/**
 * @file
 * The edge table (paper Sections 4.1 and 6.2).
 *
 * Summarizes heap references by an equivalence relation on the classes
 * of their endpoints: all references src -> tgt with the same
 * (src class, tgt class) pair share one entry. Each entry records:
 *
 *  - maxStaleUse: the all-time maximum stale-counter value observed by
 *    the read barrier when the program *used* a reference of this
 *    type. Edge types that are stale for a long time but then used
 *    again get a high maxStaleUse, which protects them from pruning.
 *  - bytesUsed: bytes of stale data structures charged to this edge
 *    type by the SELECT state's stale closure; reset after selection.
 *
 * Layout matches the paper: a fixed-size closed-hashing table, four
 * words per slot (source class, target class, maxStaleUse, bytesUsed),
 * 16K slots by default (256KB). Entries are never deleted. Inserts are
 * synchronized via CAS on the key word; data updates are relaxed
 * atomics (the paper's prototype leaves them unsynchronized because
 * selection is not sensitive to exact values).
 */

#ifndef LP_GC_EDGE_TABLE_H
#define LP_GC_EDGE_TABLE_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "object/class_info.h"

namespace lp {

/** One edge type: the classes of a reference's endpoints. */
struct EdgeType {
    class_id_t srcClass = kInvalidClassId;
    class_id_t tgtClass = kInvalidClassId;

    bool
    operator==(const EdgeType &o) const
    {
        return srcClass == o.srcClass && tgtClass == o.tgtClass;
    }
};

/** Snapshot of one entry, for selection and diagnostics. */
struct EdgeEntrySnapshot {
    EdgeType type;
    unsigned maxStaleUse = 0;
    std::uint64_t bytesUsed = 0;
};

class EdgeTable
{
  public:
    /** @param slots table capacity; must be a power of two. */
    explicit EdgeTable(std::size_t slots);
    ~EdgeTable();

    EdgeTable(const EdgeTable &) = delete;
    EdgeTable &operator=(const EdgeTable &) = delete;

    /**
     * Read-barrier hook: the program used a src->tgt reference whose
     * target's stale counter was @p stale_counter. Raises the entry's
     * maxStaleUse when stale_counter >= 2 (a value of 1 is "stale only
     * since the last full-heap collection" and is ignored).
     */
    void recordUse(EdgeType type, unsigned stale_counter);

    /** Current maxStaleUse for @p type; 0 when the type is unknown. */
    unsigned maxStaleUse(EdgeType type) const;

    /** SELECT hook: charge @p bytes of stale structure to @p type. */
    void chargeBytes(EdgeType type, std::uint64_t bytes);

    /**
     * Pick the entry with the greatest bytesUsed (ties go to the
     * smaller (src class, tgt class) pair, so the order in which types
     * were inserted cannot matter) and reset every entry's bytesUsed
     * to zero.
     *
     * @return the winner, or nullopt if no entry was charged.
     */
    std::optional<EdgeEntrySnapshot> selectMaxBytesAndReset();

    /**
     * Decrement every entry's nonzero maxStaleUse by one. Implements
     * the paper's future-work policy for phased behavior (Section 6):
     * "periodically decaying each reference type's maxStaleUse value"
     * so edge types used long ago in a finished phase become pruning
     * candidates again.
     */
    void decayMaxStaleUse();

    /** Number of distinct edge types recorded (never shrinks). */
    std::size_t count() const { return count_.load(std::memory_order_acquire); }

    /** Table capacity in slots. */
    std::size_t capacity() const { return slots_; }

    /** Visit a snapshot of every entry (diagnostics, tests). */
    void forEach(const std::function<void(const EdgeEntrySnapshot &)> &fn) const;

  private:
    struct Slot {
        std::atomic<std::uint64_t> key;       //!< packed (src, tgt) or kEmpty
        std::atomic<std::uint64_t> maxStaleUse;
        std::atomic<std::uint64_t> bytesUsed;
        std::uint64_t pad_;                   //!< fourth word, as in the paper
    };

    static constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};

    static std::uint64_t
    packKey(EdgeType t)
    {
        return (std::uint64_t{t.srcClass} << 32) | t.tgtClass;
    }

    static EdgeType
    unpackKey(std::uint64_t k)
    {
        return EdgeType{static_cast<class_id_t>(k >> 32),
                        static_cast<class_id_t>(k & 0xffffffffu)};
    }

    /** Probe for @p key; optionally claim an empty slot. */
    Slot *lookup(std::uint64_t key, bool insert) const;

    /** Visit every occupied slot (O(count), via the occupied index). */
    template <typename Fn>
    void
    forEachSlot(Fn &&fn) const
    {
        const std::size_t n = count_.load(std::memory_order_acquire);
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint32_t idx =
                occupied_[i].load(std::memory_order_acquire);
            if (idx == kUnpublished)
                continue; // racing insert not yet published; skip
            fn(table_[idx]);
        }
    }

    static constexpr std::uint32_t kUnpublished = 0xffffffffu;

    std::size_t slots_;
    std::size_t mask_;
    std::unique_ptr<Slot[]> table_;
    //! Indices of claimed slots, appended on insert so per-collection
    //! scans (selection, decay) cost O(edge types), not O(capacity).
    std::unique_ptr<std::atomic<std::uint32_t>[]> occupied_;
    mutable std::atomic<std::size_t> count_{0};
};

} // namespace lp

#endif // LP_GC_EDGE_TABLE_H
