/**
 * @file
 * Disk offloading: the LeakSurvivor / Melt / Panacea baseline the
 * paper compares leak pruning against (Sections 6.1, 7 and Table 2).
 *
 * Instead of reclaiming predicted-dead objects, these systems move
 * highly stale objects to disk, freeing heap while preserving the
 * ability to bring an object back if the prediction was wrong:
 * "Since they retrieve objects from disk, the prediction mechanisms
 * do not have to be perfect ... All will eventually exhaust disk
 * space and crash."
 *
 * Implementation: when the heap is nearly full, the offloader's edge
 * rule has the in-use closure defer references to highly stale,
 * unpinned targets (staleness alone —
 * the "Most stale" criterion of Section 6.1, which the paper notes
 * "is effectively the same as those that move objects to disk"). Each
 * deferred subgraph that the closure did not otherwise reach is
 * serialized to a backing store, the reference is replaced by a
 * tagged *stub handle* (tag bits 0b10 — never traced, like a poisoned
 * reference), and the sweep reclaims the heap copies. When the
 * program later loads a stub through the read barrier, the object is
 * faulted back into the heap; its own references remain stubs and
 * fault lazily. References from offloaded objects to live heap
 * objects are recorded as extra roots so the live targets cannot be
 * collected while the disk points at them.
 *
 * The backing store charges live record bytes against a configurable
 * disk budget; once it is exhausted nothing more can be offloaded and
 * the program dies of its leak, as the paper observes for the
 * disk-based systems.
 */

#ifndef LP_VM_DISK_OFFLOAD_H
#define LP_VM_DISK_OFFLOAD_H

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "gc/plugin.h"
#include "object/class_info.h"
#include "object/ref.h"
#include "vm/handles.h"

namespace lp {

class Runtime;
class Object;

/** Tunables for the disk-offload baseline. */
struct DiskOffloadConfig {
    /** Observe staleness once the heap is this full. */
    double observeThreshold = 0.5;
    /** Offload stale subgraphs when the heap is this full. */
    double offloadThreshold = 0.9;
    /** Targets at least this stale are moved (staleness-only rule). */
    unsigned staleThreshold = 2;
    /** Live record bytes allowed on "disk". */
    std::size_t diskBudgetBytes = 64u << 20;
};

/** Counters for the offload baseline. */
struct DiskOffloadStats {
    std::uint64_t objectsOffloaded = 0;
    std::uint64_t bytesOffloaded = 0;   //!< heap bytes moved out
    std::uint64_t objectsRetrieved = 0; //!< faulted back on access
    std::uint64_t offloadCollections = 0;
    std::uint64_t recordsCollected = 0; //!< disk records freed by disk GC
    std::size_t diskLiveBytes = 0;      //!< current backing-store usage
    bool diskExhausted = false;

    bool operator==(const DiskOffloadStats &) const = default;
};

class DiskOffload : public CollectionPlugin
{
  public:
    DiskOffload(Runtime &rt, DiskOffloadConfig config);
    ~DiskOffload() override;

    DiskOffload(const DiskOffload &) = delete;
    DiskOffload &operator=(const DiskOffload &) = delete;

    // --- CollectionPlugin --------------------------------------------------

    TracePolicy beginCollection(std::uint64_t epoch) override;
    void afterInUseClosure(Tracer &tracer) override;
    void endCollection(const CollectionOutcome &outcome) override;
    bool memoryExhausted(std::size_t requested_bytes, std::uint64_t epoch,
                         unsigned rounds_so_far) override;

    /**
     * Offload mispredictions are recoverable (the object faults back
     * in from disk), so the clock may age recently-reset objects
     * through OOM retry collections — required for progress when the
     * program re-reads the whole heap (resetting every counter) just
     * before exhaustion.
     */
    bool agesUnderExhaustion() const override { return true; }

    // --- read-barrier interface ---------------------------------------------

    /**
     * The program loaded a stub handle from @p slot of @p holder:
     * retrieve the object from the backing store into the heap, repair
     * the slot, and return it. May allocate (and therefore collect);
     * @p holder is rooted meanwhile, so that collection can neither
     * offload nor free the object whose slot is repaired. Thread safe.
     */
    Object *faultIn(Object *holder, ref_t *slot, ref_t observed);

    const DiskOffloadStats &stats() const { return stats_; }

  private:
    /** One serialized object on "disk". */
    struct StubRecord {
        class_id_t cls = kInvalidClassId;
        ObjectKind kind = ObjectKind::Scalar;
        std::size_t arrayLength = 0;
        std::size_t chargedBytes = 0;
        std::vector<word_t> payload; //!< ref slots hold stub/live words
        bool live = true;
    };

    /** Encode a stub id as a tagged reference word (bits 0b10). */
    static ref_t
    stubRef(std::uint64_t id)
    {
        return (id << 2) | kPoisonBit;
    }

    static std::uint64_t stubId(ref_t r) { return r >> 2; }

    /** Serialize the unmarked subgraph rooted at @p root. */
    std::uint64_t offloadSubgraph(Object *root);

    /**
     * Disk garbage collection (after the closures of each
     * offloading-capable GC): compute the stub ids still reachable —
     * ids in @p stubs, the stub words seen in live heap slots this
     * trace, transitively closed over references between disk
     * records — and free everything else: dead records, spent
     * forwarding entries, and their keep-alive roots. This is what
     * lets re-materialized (faulted-in) data become garbage again.
     */
    void collectDisk(const std::vector<ref_t> &stubs);

    /** Visit each stub id referenced from @p record's payload. */
    template <typename Fn>
    void forEachRecordStub(const StubRecord &record, Fn &&fn) const;

    Runtime &rt_;
    DiskOffloadConfig config_;
    DiskOffloadStats stats_;

    // Collection-scoped state.
    bool observing_ = false;
    bool offload_pending_ = false;   //!< next GC should offload
    bool offloading_this_gc_ = false;
    std::uint64_t offloaded_this_gc_ = 0;

    // The "disk": stub id -> record. Records are freed on retrieval or
    // by the disk GC once nothing names their id anymore.
    std::mutex disk_mutex_;
    std::unordered_map<std::uint64_t, StubRecord> disk_;
    //! Stub ids already faulted back in: other slots holding the same
    //! stub resolve here (Melt's forwarding information). Entries die
    //! with their last referencing stub (disk GC).
    std::unordered_map<std::uint64_t, Object *> retrieved_;
    std::uint64_t next_stub_id_ = 1;

    // Per-GC map from offloaded object to its stub id (shared graphs).
    std::unordered_map<Object *, std::uint64_t> offload_map_;

    // Keep-alive roots: per record id, the live heap objects its
    // serialized payload points at; per retrieved id, the
    // re-materialized object (while stubs may still name it).
    std::unordered_map<std::uint64_t,
                       std::vector<std::unique_ptr<GlobalRoot>>>
        record_roots_;
    std::unordered_map<std::uint64_t, std::unique_ptr<GlobalRoot>>
        retrieved_roots_;

    std::uint64_t gc_start_id_ = 1; //!< ids >= this were minted this GC
};

} // namespace lp

#endif // LP_VM_DISK_OFFLOAD_H
