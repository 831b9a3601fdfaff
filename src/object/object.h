/**
 * @file
 * The managed object model: headers and payload layout.
 *
 * Every object starts with a two-word header:
 *
 *  word 0 (status): class id (20 bits) | stale counter (3 bits) |
 *                   finalizer-enqueued bit | pinned bit |
 *                   tick stamp (ticked bit, parity bit)
 *  word 1 (size):   total object size in bytes, header included
 *
 * The three-bit stale counter is the paper's logarithmic staleness
 * clock (Section 4.1): value k means the object was last used about
 * 2^k full-heap collections ago. The header holds no mark bit: the
 * collector claims objects in the heap's side mark bitmaps
 * (Heap::tryMark) and touches the header only to tick the clock
 * (tickStaleCounter) as it visits each marked object. The pinned bit
 * models memory the pruner must never reclaim through (e.g. thread
 * stacks in the Mckoi leak, Section 6).
 *
 * The tick stamp records that the visit of collection number e raised
 * the counter: the ticked bit, plus e's parity. Pruning decisions read
 * the counter as it stood when the collection began
 * (staleCounterAtStart), so they do not depend on whether the target
 * has been visited yet. Every live object is visited once per
 * collection, and each visit rewrites the stamp, so a stamp never
 * outlives the collection after the one that set it and no clearing
 * pass is needed.
 *
 * Who writes the status word: mutators change only the stale counter
 * (the read barrier's cold path) and the pinned bit, with atomic
 * read-modify-writes, and never during a collection pause. The
 * collector writes the stale and finalizer bits only inside the
 * pause, where every mutator is parked at a safepoint, so its writes
 * are a relaxed load and a relaxed store with no locked instruction.
 * Safepoint entry and exit order the two kinds of writer (DESIGN.md
 * "Known deviations: serial collector").
 *
 * Payload layouts by ObjectKind:
 *  Scalar:    [ref slots x numRefSlots][raw data bytes]
 *  RefArray:  [length][ref slots x length]
 *  ByteArray: [length][raw bytes]
 */

#ifndef LP_OBJECT_OBJECT_H
#define LP_OBJECT_OBJECT_H

#include <atomic>
#include <cstdint>
#include <cstring>

#include "object/class_info.h"
#include "object/ref.h"
#include "util/bits.h"
#include "util/logging.h"

namespace lp {

/** Bit-field positions within the status word. */
namespace header_bits {
constexpr unsigned kClassIdLo = 0;
constexpr unsigned kClassIdWidth = 20;
constexpr unsigned kStaleLo = 20;
constexpr unsigned kStaleWidth = 3;
constexpr unsigned kFinalizerEnqueuedBit = 23;
constexpr unsigned kPinnedBit = 24;
constexpr unsigned kTickedBit = 25;
constexpr unsigned kTickParityBit = 26;
} // namespace header_bits

/** Maximum value the 3-bit logarithmic stale counter can hold. */
constexpr unsigned kMaxStaleCounter = (1u << header_bits::kStaleWidth) - 1;

/**
 * A managed heap object. Instances live only inside a Heap; the
 * class has no constructor — the allocator formats raw memory.
 */
class Object
{
  public:
    /** Header size in bytes (status word + size word). */
    static constexpr std::size_t kHeaderBytes = 2 * kWordBytes;

    // --- formatting (called by the allocator only) -------------------

    /**
     * Format a freshly allocated block as an object: initialize the
     * header and zero the payload. A reused block holds whatever its
     * dead predecessor left (reclamation never touches it), so every
     * byte of the object is written here.
     */
    static Object *
    format(void *mem, class_id_t cls, std::size_t total_bytes)
    {
        auto *obj = static_cast<Object *>(mem);
        // Relaxed atomic store, like every other status-word access.
        std::atomic_ref<word_t>(obj->status_)
            .store(setBitField(word_t{0}, header_bits::kClassIdLo,
                               header_bits::kClassIdWidth, cls),
                   std::memory_order_relaxed);
        obj->size_ = total_bytes;
        std::memset(obj->payload(), 0, total_bytes - kHeaderBytes);
        return obj;
    }

    // --- header accessors --------------------------------------------

    class_id_t
    classId() const
    {
        return static_cast<class_id_t>(bitField(
            statusRelaxed(), header_bits::kClassIdLo, header_bits::kClassIdWidth));
    }

    /** Total size in bytes, header included. */
    std::size_t sizeBytes() const { return size_; }

    /** Current value of the logarithmic stale counter. */
    unsigned
    staleCounter() const
    {
        return static_cast<unsigned>(bitField(
            statusRelaxed(), header_bits::kStaleLo, header_bits::kStaleWidth));
    }

    /**
     * The stale counter as it stood when collection @p epoch began:
     * the current value, less the tick that collection's visit made,
     * if it has visited this object yet. Pruning decisions read this,
     * so the order in which the collector visits objects cannot change
     * them.
     */
    unsigned
    staleCounterAtStart(std::uint64_t epoch) const
    {
        return staleCounter() - tickedIn(epoch);
    }

    /** The visit of collection @p epoch raised the counter. */
    bool
    tickedIn(std::uint64_t epoch) const
    {
        return (statusRelaxed() & kTickStampMask) == tickStamp(epoch);
    }

    /**
     * Set the stale counter with a CAS loop so concurrent updates of
     * other header bits (finalizer, pinned) are not lost — the paper's
     * barrier performs the same atomic header update (Section 4.1).
     */
    void
    setStaleCounter(unsigned k)
    {
        LP_ASSERT(k <= kMaxStaleCounter);
        std::atomic_ref<word_t> st(status_);
        word_t old = st.load(std::memory_order_relaxed);
        while (true) {
            const word_t next = setBitField(old, header_bits::kStaleLo,
                                            header_bits::kStaleWidth, k);
            if (next == old)
                return;
            if (st.compare_exchange_weak(old, next, std::memory_order_relaxed))
                return;
        }
    }

    /** Zero the stale counter (the read barrier's cold-path action). */
    void clearStaleCounter() { setStaleCounter(0); }

    /**
     * The visit of collection @p epoch to an object it marked: when the
     * stale counter k is below @p tick_below, raise it to k+1 and stamp
     * the tick with @p epoch's parity; otherwise clear the stamp (a
     * stamp found here is the previous collection's).
     *
     * Collector only, world stopped: a relaxed load and, only when the
     * word changes, a relaxed store, exact because no other thread
     * writes the header during the pause (file comment). @p tick_below
     * is at most kMaxStaleCounter; 0 leaves the counter alone.
     */
    void
    tickStaleCounter(unsigned tick_below, std::uint64_t epoch)
    {
        std::atomic_ref<word_t> st(status_);
        const word_t old = st.load(std::memory_order_relaxed);
        const auto k = static_cast<unsigned>(
            bitField(old, header_bits::kStaleLo, header_bits::kStaleWidth));
        word_t next = old & ~kTickStampMask;
        if (k < tick_below)
            next = setBitField(next, header_bits::kStaleLo,
                               header_bits::kStaleWidth, k + 1) |
                   tickStamp(epoch);
        if (next != old)
            st.store(next, std::memory_order_relaxed);
    }

    bool finalizerEnqueued() const { return testBit(header_bits::kFinalizerEnqueuedBit); }

    /**
     * Claim the finalizer run of an unmarked object. Collector only,
     * world stopped, like tickStaleCounter(). @return true iff this call set
     * the finalizer-enqueued bit.
     */
    bool
    tryEnqueueFinalizer()
    {
        if (finalizerEnqueued())
            return false;
        std::atomic_ref<word_t>(status_).store(
            statusRelaxed() | (word_t{1} << header_bits::kFinalizerEnqueuedBit),
            std::memory_order_relaxed);
        return true;
    }

    bool pinned() const { return testBit(header_bits::kPinnedBit); }
    void setPinned(bool on) { on ? setBit(header_bits::kPinnedBit)
                                 : clearBit(header_bits::kPinnedBit); }

    // --- payload access (layout depends on the ClassInfo) -------------

    /** First payload word, immediately after the header. */
    word_t *payload() { return reinterpret_cast<word_t *>(this) + 2; }
    const word_t *payload() const { return reinterpret_cast<const word_t *>(this) + 2; }

    /** Array length (RefArray/ByteArray only; stored in payload[0]). */
    std::size_t arrayLength() const { return payload()[0]; }
    void setArrayLength(std::size_t n) { payload()[0] = n; }

    /**
     * Address of reference slot @p i. For Scalar classes slots 0..n-1
     * lead the payload; for RefArray they follow the length word.
     */
    ref_t *
    refSlotAddr(const ClassInfo &cls, std::size_t i)
    {
        if (cls.kind == ObjectKind::Scalar) {
            LP_ASSERT(i < cls.numRefSlots, "ref slot out of range in ",
                      cls.name);
            return payload() + i;
        }
        LP_ASSERT(cls.kind == ObjectKind::RefArray, "no ref slots in ", cls.name);
        LP_ASSERT(i < arrayLength(), "array index out of range in ", cls.name);
        return payload() + 1 + i;
    }

    /** Number of reference slots given this object's class. */
    std::size_t
    refSlotCount(const ClassInfo &cls) const
    {
        switch (cls.kind) {
          case ObjectKind::Scalar:
            return cls.numRefSlots;
          case ObjectKind::RefArray:
            return arrayLength();
          case ObjectKind::ByteArray:
            return 0;
        }
        return 0;
    }

    /** Raw (untraced) data area for Scalar classes. */
    void *
    dataPtr(const ClassInfo &cls)
    {
        LP_ASSERT(cls.kind == ObjectKind::Scalar);
        return payload() + cls.numRefSlots;
    }

    /** Raw byte area for ByteArray classes. */
    unsigned char *
    bytePtr()
    {
        return reinterpret_cast<unsigned char *>(payload() + 1);
    }

    /** Visit every reference-slot address: fn(ref_t *slot). */
    template <typename Fn>
    void
    forEachRefSlot(const ClassInfo &cls, Fn &&fn)
    {
        const std::size_t n = refSlotCount(cls);
        ref_t *base = (cls.kind == ObjectKind::Scalar) ? payload()
                                                       : payload() + 1;
        for (std::size_t i = 0; i < n; ++i)
            fn(base + i);
    }

    // --- total size computation ---------------------------------------

    /** Allocation size for a scalar instance of @p cls. */
    static std::size_t
    scalarSize(const ClassInfo &cls)
    {
        return roundUp(kHeaderBytes + cls.numRefSlots * kWordBytes +
                           cls.dataBytes,
                       kWordBytes);
    }

    /** Allocation size for a RefArray of @p length elements. */
    static std::size_t
    refArraySize(std::size_t length)
    {
        return kHeaderBytes + kWordBytes + length * kWordBytes;
    }

    /** Allocation size for a ByteArray of @p length bytes. */
    static std::size_t
    byteArraySize(std::size_t length)
    {
        return roundUp(kHeaderBytes + kWordBytes + length, kWordBytes);
    }

  private:
    static constexpr word_t kTickStampMask =
        (word_t{1} << header_bits::kTickedBit) |
        (word_t{1} << header_bits::kTickParityBit);

    //! The stamp a tick in collection @p epoch leaves.
    static constexpr word_t
    tickStamp(std::uint64_t epoch)
    {
        return (word_t{1} << header_bits::kTickedBit) |
               (static_cast<word_t>(epoch & 1) << header_bits::kTickParityBit);
    }

    word_t statusRelaxed() const
    {
        return std::atomic_ref<const word_t>(status_).load(std::memory_order_relaxed);
    }

    bool
    testBit(unsigned bit) const
    {
        return (statusRelaxed() >> bit) & 1;
    }

    void
    setBit(unsigned bit)
    {
        std::atomic_ref<word_t> st(status_);
        st.fetch_or(word_t{1} << bit, std::memory_order_acq_rel);
    }

    void
    clearBit(unsigned bit)
    {
        std::atomic_ref<word_t> st(status_);
        st.fetch_and(~(word_t{1} << bit), std::memory_order_acq_rel);
    }

    word_t status_;
    word_t size_;
};

static_assert(sizeof(Object) == Object::kHeaderBytes,
              "Object must be exactly the two header words");

} // namespace lp

#endif // LP_OBJECT_OBJECT_H
