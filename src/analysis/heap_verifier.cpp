#include "analysis/heap_verifier.h"

#include <ostream>
#include <sstream>
#include <unordered_set>

#include "core/leak_pruning.h"
#include "gc/collector.h"
#include "heap/heap.h"
#include "object/class_info.h"
#include "object/object.h"
#include "telemetry/audit.h"
#include "util/logging.h"

namespace lp {

const char *
invariantCheckName(InvariantCheck check)
{
    switch (check) {
      case InvariantCheck::TagBits: return "tag-bits";
      case InvariantCheck::MarkBits: return "mark-bits";
      case InvariantCheck::EdgeTable: return "edge-table";
      case InvariantCheck::Accounting: return "accounting";
      case InvariantCheck::Reachability: return "reachability";
      case InvariantCheck::ObjectShape: return "object-shape";
      case InvariantCheck::AuditTrail: return "audit-trail";
    }
    return "?";
}

std::string
VerifierReport::summary() const
{
    std::ostringstream oss;
    oss << "epoch " << epoch << ": " << objectsScanned << " objects, "
        << refsScanned << " refs, " << rootsScanned << " roots, "
        << edgeEntriesScanned << " edge entries; ";
    if (clean()) {
        oss << "clean";
        return oss.str();
    }
    oss << violationCount << " violation(s):";
    for (std::size_t i = 0; i < kNumInvariantChecks; ++i) {
        if (perCheck[i] != 0)
            oss << " " << invariantCheckName(static_cast<InvariantCheck>(i))
                << "=" << perCheck[i];
    }
    return oss.str();
}

void
VerifierReport::writeCsv(std::ostream &os) const
{
    os << "check,count\n";
    for (std::size_t i = 0; i < kNumInvariantChecks; ++i)
        os << invariantCheckName(static_cast<InvariantCheck>(i)) << ","
           << perCheck[i] << "\n";
}

HeapVerifier::HeapVerifier(const VerifierContext &ctx, HeapVerifierConfig config)
    : ctx_(ctx), config_(config)
{
    LP_ASSERT(ctx_.heap && ctx_.registry,
              "HeapVerifier needs at least a heap and a class registry");
}

void
HeapVerifier::addViolation(VerifierReport &report, InvariantCheck check,
                           std::string detail)
{
    if (config_.mode == VerifierMode::FailFast)
        panic("heap verifier [", invariantCheckName(check), "] at epoch ",
              report.epoch, ": ", detail);
    ++report.violationCount;
    ++report.perCheck[static_cast<std::size_t>(check)];
    ++total_violations_;
    if (report.violations.size() < VerifierReport::kMaxRecordedViolations)
        report.violations.push_back(VerifierViolation{check, std::move(detail)});
}

VerifierReport
HeapVerifier::verify(std::uint64_t epoch)
{
    VerifierReport report;
    report.epoch = epoch;

    const Heap &heap = *ctx_.heap;
    const ClassRegistry &registry = *ctx_.registry;
    const std::size_t num_classes = registry.count();

    // Whether the barrier staleness protocol may have tagged references
    // (stale-check bits) and whether any poisoned/stub references may
    // legally exist. Both are one-way facts: legality permits tags, it
    // never requires them.
    const bool tags_legal =
        ctx_.offloadActive || (ctx_.pruning && ctx_.pruning->observing());
    const bool poison_legal =
        ctx_.offloadActive ||
        (ctx_.gcStats && ctx_.gcStats->refsPoisonedTotal > 0) ||
        (ctx_.pruning && ctx_.pruning->hasPruned());

    // --- Phase 0: allocator metadata self-check --------------------------
    // The verifier runs at stop-the-world points, after the runtime has
    // retired every thread-local allocation cache; a chunk still on
    // lease here means the safepoint flush protocol broke, and every
    // byte invariant below would be checked against stale counters.
    if (heap.leasedChunkCount() != 0)
        addViolation(report, InvariantCheck::Accounting,
                     detail::concat(heap.leasedChunkCount(),
                                    " chunk lease(s) outstanding at a "
                                    "stop-the-world verification point"));
    // Chunk tables, in-use bitmaps, free-chunk and byte counters.
    heap.checkIntegrity([&](const std::string &msg) {
        addViolation(report, InvariantCheck::Accounting, msg);
    });
    // The flip clears every side mark, so between collections none is
    // set: a stray one would make the next trace skip its object.
    heap.checkMarksClear([&](const std::string &msg) {
        addViolation(report, InvariantCheck::MarkBits, msg);
    });

    // --- Phase 1: object walk (live set, headers, byte accounting) -------
    std::unordered_set<const Object *> live;
    std::size_t charged_sum = 0;
    heap.forEachObjectWithCharge([&](Object *obj, std::size_t charged) {
        ++report.objectsScanned;
        live.insert(obj);
        charged_sum += charged;

        const class_id_t cls_id = obj->classId();
        if (cls_id >= num_classes) {
            addViolation(report, InvariantCheck::ObjectShape,
                         detail::concat("object ", obj,
                                        " has unregistered class id ", cls_id));
            return; // layout unknown: skip the shape check
        }
        // Every collection visits every live object and each visit
        // rewrites the tick stamp, so a stamp of the other parity than
        // the last collection's has outlived its collection, and the
        // next collection would read it as its own tick.
        if (obj->tickedIn(epoch + 1))
            addViolation(report, InvariantCheck::ObjectShape,
                         detail::concat("object ", obj,
                                        " carries a tick stamp older than "
                                        "collection ", epoch));
        const ClassInfo &cls = registry.info(cls_id);
        std::size_t expected = 0;
        switch (cls.kind) {
          case ObjectKind::Scalar:
            expected = Object::scalarSize(cls);
            break;
          case ObjectKind::RefArray:
            expected = Object::refArraySize(obj->arrayLength());
            break;
          case ObjectKind::ByteArray:
            expected = Object::byteArraySize(obj->arrayLength());
            break;
        }
        if (obj->sizeBytes() != expected)
            addViolation(report, InvariantCheck::ObjectShape,
                         detail::concat("object ", obj, " (", cls.name,
                                        ") size ", obj->sizeBytes(),
                                        " != layout size ", expected));
        if (charged < obj->sizeBytes())
            addViolation(report, InvariantCheck::Accounting,
                         detail::concat("object ", obj, " (", cls.name,
                                        ") charged ", charged,
                                        " bytes < object size ",
                                        obj->sizeBytes()));
    });

    if (charged_sum != heap.usedBytes())
        addViolation(report, InvariantCheck::Accounting,
                     detail::concat("walked live bytes ", charged_sum,
                                    " != heap usedBytes ", heap.usedBytes()));
    if (heap.committedBytes() < heap.usedBytes())
        addViolation(report, InvariantCheck::Accounting,
                     detail::concat("committedBytes ", heap.committedBytes(),
                                    " < usedBytes ", heap.usedBytes()));
    if (heap.committedBytes() > heap.capacity())
        addViolation(report, InvariantCheck::Accounting,
                     detail::concat("committedBytes ", heap.committedBytes(),
                                    " > capacity ", heap.capacity()));

    // --- Phase 2: reference scan over every live object's slots ----------
    for (const Object *cobj : live) {
        Object *obj = const_cast<Object *>(cobj);
        const class_id_t cls_id = obj->classId();
        if (cls_id >= num_classes)
            continue; // already reported; layout unknown
        const ClassInfo &cls = registry.info(cls_id);
        obj->forEachRefSlot(cls, [&](ref_t *slot) {
            const ref_t r = *slot;
            ++report.refsScanned;
            if (refIsNull(r)) {
                if ((r & kTagMask) != 0)
                    addViolation(report, InvariantCheck::TagBits,
                                 detail::concat("tagged null reference in ",
                                                cls.name, " at ", slot));
                return;
            }
            if (refIsPoisoned(r)) {
                // The target is deliberately never inspected: pruned
                // memory was reclaimed (offload stubs encode an id).
                if (!poison_legal)
                    addViolation(
                        report, InvariantCheck::TagBits,
                        detail::concat("poisoned reference in ", cls.name,
                                       " at ", slot,
                                       " but no prune/offload ever ran"));
                else if (!ctx_.offloadActive && !refHasStaleCheck(r))
                    addViolation(
                        report, InvariantCheck::TagBits,
                        detail::concat("poison tag 0b10 in ", cls.name,
                                       " at ", slot,
                                       " (stub encoding outside disk-offload "
                                       "mode; pruning poisons as 0b11)"));
                return;
            }
            if (refHasStaleCheck(r) && !tags_legal)
                addViolation(report, InvariantCheck::TagBits,
                             detail::concat("stale-check tag in ", cls.name,
                                            " at ", slot,
                                            " while the analysis is inactive"));
            const Object *tgt = refTarget(r);
            if (live.find(tgt) == live.end())
                addViolation(
                    report, InvariantCheck::Reachability,
                    detail::concat("unpoisoned reference in ", cls.name,
                                   " at ", slot, " targets non-live memory ",
                                   tgt));
        });
    }

    // --- Phase 3: root scan -----------------------------------------------
    // Roots (handles, globals, per-thread allocation roots) hold clean
    // references: the tracer tags only heap slots, and the barrier/
    // write paths publish untagged words.
    if (ctx_.roots) {
        ctx_.roots->forEachRoot([&](ref_t *slot) {
            const ref_t r = *slot;
            ++report.rootsScanned;
            if (refIsNull(r)) {
                if ((r & kTagMask) != 0)
                    addViolation(report, InvariantCheck::TagBits,
                                 detail::concat("tagged null root at ", slot));
                return;
            }
            if ((r & kTagMask) != 0) {
                addViolation(report, InvariantCheck::TagBits,
                             detail::concat("tagged reference in root slot ",
                                            slot));
                return;
            }
            const Object *tgt = refTarget(r);
            if (live.find(tgt) == live.end())
                addViolation(report, InvariantCheck::Reachability,
                             detail::concat("root at ", slot,
                                            " targets non-live memory ", tgt));
        });
    }

    // --- Phase 4: edge table ----------------------------------------------
    if (ctx_.pruning) {
        const EdgeTable &table = ctx_.pruning->edgeTable();
        if (table.count() > table.capacity())
            addViolation(report, InvariantCheck::EdgeTable,
                         detail::concat("edge-table count ", table.count(),
                                        " exceeds capacity ",
                                        table.capacity()));
        table.forEach([&](const EdgeEntrySnapshot &e) {
            ++report.edgeEntriesScanned;
            if (e.type.srcClass >= num_classes || e.type.tgtClass >= num_classes)
                addViolation(
                    report, InvariantCheck::EdgeTable,
                    detail::concat("edge entry names unregistered classes (",
                                   e.type.srcClass, " -> ", e.type.tgtClass,
                                   ")"));
            if (e.maxStaleUse > kMaxStaleCounter)
                addViolation(
                    report, InvariantCheck::EdgeTable,
                    detail::concat("edge entry maxStaleUse ", e.maxStaleUse,
                                   " exceeds the ", kMaxStaleCounter,
                                   " ceiling of the 3-bit stale counter"));
            // bytesUsed is charged during a SELECT collection and reset
            // by selection before the pause ends; between collections it
            // must read zero.
            if (e.bytesUsed != 0)
                addViolation(
                    report, InvariantCheck::EdgeTable,
                    detail::concat("edge entry bytesUsed ", e.bytesUsed,
                                   " not reset outside a SELECT collection"));
        });
    }

    // --- Phase 5: pruning audit trail --------------------------------------
    // The engine writes one audit record per PRUNE collection and, apart
    // from the records, keeps a running count of every reference it
    // poisoned; the two must agree exactly or a decision was lost or
    // double-counted.
    if (ctx_.audit && ctx_.pruning) {
        const std::uint64_t audit_refs = ctx_.audit->summary().refsPoisoned;
        const std::uint64_t engine_refs = ctx_.pruning->stats().refsPoisoned;
        if (audit_refs != engine_refs)
            addViolation(report, InvariantCheck::AuditTrail,
                         detail::concat("audit refs poisoned ", audit_refs,
                                        " != the engine's ", engine_refs));
    }

    ++runs_;
    if (!report.clean())
        warn("heap verifier: ", report.summary());
    else
        debugLog("heap verifier: ", report.summary());
    return report;
}

} // namespace lp
