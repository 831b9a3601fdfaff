/**
 * @file
 * The managed object model: headers and payload layout.
 *
 * Every object starts with a two-word header:
 *
 *  word 0: class id (uint32) | stale byte | flags byte | 2 unused bytes
 *  word 1: total object size in bytes, header included
 *
 * The stale byte holds the three-bit stale counter (bits 0-2) and the
 * two-bit tick stamp (bit 3 ticked, bit 4 the ticking collection's
 * parity). The flags byte holds the finalizer-enqueued bit (bit 0)
 * and the pinned bit (bit 1).
 *
 * The stale counter is the paper's logarithmic staleness clock
 * (Section 4.1): value k means the object was last used about 2^k
 * full-heap collections ago. The header holds no mark bit: the
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
 * Who writes which byte. The class id is written once, by format().
 * The stale byte has one writer at a time: outside a pause only the
 * read barrier's cold path writes it, and only ever zero
 * (clearStaleCounter, one relaxed byte store), so racing readers
 * store the same value and none can undo another's reset; inside a
 * pause only the collector writes it. The flags byte's pinned bit is
 * set and cleared by mutators with a locked or/and on that byte
 * alone, outside pauses; the collector sets the finalizer bit inside
 * the pause. No writer of one byte can lose a write to the other, so
 * the barrier needs no read-modify-write on the header, and the
 * collector, the only thread running in a pause, uses a relaxed load
 * and a relaxed store. Safepoint entry and exit order the pause's
 * writes against the mutators' (DESIGN.md "Known deviations: serial
 * collector").
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

/** Maximum value the 3-bit logarithmic stale counter can hold. */
constexpr unsigned kMaxStaleCounter = 7;

/**
 * A managed heap object. Instances live only inside a Heap; the
 * class has no constructor — the allocator formats raw memory.
 */
class Object
{
  public:
    /** Header size in bytes (word 0 + size word). */
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
        // Relaxed atomic stores, like every other header access.
        store(obj->class_id_, cls);
        store(obj->stale_, std::uint8_t{0});
        store(obj->flags_, std::uint8_t{0});
        obj->size_ = total_bytes;
        std::memset(obj->payload(), 0, total_bytes - kHeaderBytes);
        return obj;
    }

    // --- header accessors --------------------------------------------

    class_id_t classId() const { return load(class_id_); }

    /** Total size in bytes, header included. */
    std::size_t sizeBytes() const { return size_; }

    /** Current value of the logarithmic stale counter. */
    unsigned staleCounter() const { return load(stale_) & kCounterMask; }

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
        const std::uint8_t s = load(stale_);
        return (s & kCounterMask) - ((s & kTickStampMask) == tickStamp(epoch));
    }

    /** The visit of collection @p epoch raised the counter. */
    bool
    tickedIn(std::uint64_t epoch) const
    {
        return (load(stale_) & kTickStampMask) == tickStamp(epoch);
    }

    /**
     * Set the stale counter to @p k, keeping the tick stamp. A plain
     * load and store of the stale byte: for tests that set up a
     * counter from the thread that owns the object, never racing the
     * barrier or a pause.
     */
    void
    setStaleCounter(unsigned k)
    {
        LP_ASSERT(k <= kMaxStaleCounter);
        store(stale_, static_cast<std::uint8_t>((load(stale_) & ~kCounterMask) | k));
    }

    /**
     * Zero the stale counter and its tick stamp: the read barrier's
     * cold-path reset (paper Section 4.1). One relaxed byte store,
     * safe without a read-modify-write because zero is the only value
     * a mutator ever writes to the stale byte (file comment). A stamp
     * it clears was the previous collection's and the next ignores it.
     */
    void clearStaleCounter() { store(stale_, std::uint8_t{0}); }

    /**
     * The visit of collection @p epoch to an object it marked: when the
     * stale counter k is below @p tick_below, raise it to k+1 and stamp
     * the tick with @p epoch's parity; otherwise clear the stamp (a
     * stamp found here is the previous collection's).
     *
     * Collector only, world stopped: a relaxed load and, only when the
     * byte changes, a relaxed store, exact because no other thread
     * writes the header during the pause (file comment). @p tick_below
     * is at most kMaxStaleCounter; 0 leaves the counter alone.
     */
    void
    tickStaleCounter(unsigned tick_below, std::uint64_t epoch)
    {
        const std::uint8_t old = load(stale_);
        const unsigned k = old & kCounterMask;
        const std::uint8_t next =
            k < tick_below ? static_cast<std::uint8_t>((k + 1) | tickStamp(epoch))
                           : static_cast<std::uint8_t>(k);
        if (next != old)
            store(stale_, next);
    }

    bool finalizerEnqueued() const { return load(flags_) & kFinalizerEnqueuedBit; }

    /**
     * Claim the finalizer run of an unmarked object. Collector only,
     * world stopped, like tickStaleCounter(). @return true iff this call set
     * the finalizer-enqueued bit.
     */
    bool
    tryEnqueueFinalizer()
    {
        const std::uint8_t old = load(flags_);
        if (old & kFinalizerEnqueuedBit)
            return false;
        store(flags_, static_cast<std::uint8_t>(old | kFinalizerEnqueuedBit));
        return true;
    }

    bool pinned() const { return load(flags_) & kPinnedBit; }

    /**
     * Set or clear the pinned bit: a locked or/and on the flags byte
     * alone, so a racing pin of the same object and the barrier's
     * stale-byte store are never lost. Mutators only, outside pauses.
     */
    void
    setPinned(bool on)
    {
        std::atomic_ref<std::uint8_t> flags(flags_);
        if (on)
            flags.fetch_or(kPinnedBit, std::memory_order_acq_rel);
        else
            flags.fetch_and(static_cast<std::uint8_t>(~kPinnedBit),
                            std::memory_order_acq_rel);
    }

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
    static constexpr std::uint8_t kCounterMask = kMaxStaleCounter;
    static constexpr std::uint8_t kTickedBit = 1u << 3;
    static constexpr std::uint8_t kTickParityBit = 1u << 4;
    static constexpr std::uint8_t kTickStampMask = kTickedBit | kTickParityBit;
    static constexpr std::uint8_t kFinalizerEnqueuedBit = 1u << 0;
    static constexpr std::uint8_t kPinnedBit = 1u << 1;

    //! The stamp a tick in collection @p epoch leaves.
    static constexpr std::uint8_t
    tickStamp(std::uint64_t epoch)
    {
        return kTickedBit | ((epoch & 1) ? kTickParityBit : 0);
    }

    //! Relaxed atomic load and store of one header field: tear-free
    //! and race-free under the writer rules of the file comment.
    template <typename T>
    static T
    load(const T &field)
    {
        return std::atomic_ref<const T>(field).load(std::memory_order_relaxed);
    }

    template <typename T>
    static void
    store(T &field, T value)
    {
        std::atomic_ref<T>(field).store(value, std::memory_order_relaxed);
    }

    class_id_t class_id_;
    std::uint8_t stale_;
    std::uint8_t flags_;
    word_t size_;
};

static_assert(sizeof(Object) == Object::kHeaderBytes,
              "Object must be exactly the two header words");

} // namespace lp

#endif // LP_OBJECT_OBJECT_H
