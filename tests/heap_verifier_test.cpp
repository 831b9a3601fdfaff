/**
 * @file
 * Tests for the heap-integrity verifier (src/analysis/): a clean heap
 * verifies clean, every invariant family is actually enforced (proved
 * by fault injection: corrupt one thing, assert the verifier charges
 * the right check), and the automatic post-collection pass stays
 * clean across the seed workloads in both tolerance modes.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "analysis/heap_verifier.h"
#include "apps/leak_workload.h"
#include "core/errors.h"
#include "harness/driver.h"
#include "object/ref.h"
#include "util/logging.h"
#include "vm/runtime.h"

namespace lp {
namespace {

/** LogOnly-mode runtime config for the fault-injection tests. */
RuntimeConfig
logOnlyConfig()
{
    RuntimeConfig rc;
    rc.heapBytes = 8u << 20;
    // Manual verifyHeap() only: the automatic pass would FailFast on
    // the deliberately corrupted heap before the test can observe it.
    rc.verifier.enabled = false;
    rc.verifier.mode = VerifierMode::LogOnly;
    return rc;
}

/** Silence the LogOnly warn spam while a test inspects violations. */
class QuietScope
{
  public:
    QuietScope() : saved_(logLevel()) { setLogLevel(LogLevel::Silent); }
    ~QuietScope() { setLogLevel(saved_); }

  private:
    LogLevel saved_;
};

TEST(HeapVerifierTest, FreshRuntimeVerifiesClean)
{
    Runtime rt(logOnlyConfig());
    const VerifierReport report = rt.verifyHeap();
    EXPECT_TRUE(report.clean()) << report.summary();
    EXPECT_EQ(report.violationCount, 0u);
    EXPECT_EQ(rt.heapVerifier().runs(), 1u);
}

TEST(HeapVerifierTest, PopulatedHeapVerifiesCleanAcrossCollections)
{
    Runtime rt(logOnlyConfig());
    const class_id_t node = rt.defineClass("Node", 2);
    const class_id_t blob = rt.defineByteArrayClass("Blob");

    HandleScope scope(rt.roots());
    Handle head = scope.handle(rt.allocate(node));
    Handle cur = scope.handle(head.get());
    for (int i = 0; i < 2000; ++i) {
        Handle next = scope.handle(rt.allocate(node));
        rt.writeRef(next.get(), 1, rt.allocateByteArray(blob, 256));
        rt.writeRef(cur.get(), 0, next.get());
        cur = scope.handle(next.get());
    }
    rt.collectNow();

    const VerifierReport report = rt.verifyHeap();
    EXPECT_TRUE(report.clean()) << report.summary();
    EXPECT_GE(report.objectsScanned, 4000u);
    EXPECT_GE(report.refsScanned, 4000u);
    EXPECT_GE(report.rootsScanned, 1u);
}

TEST(HeapVerifierTest, DetectsIllegalStaleTagBit)
{
    Runtime rt(logOnlyConfig());
    const class_id_t node = rt.defineClass("Node", 2);

    HandleScope scope(rt.roots());
    Handle src = scope.handle(rt.allocate(node));
    Handle tgt = scope.handle(rt.allocate(node));
    rt.writeRef(src.get(), 0, tgt.get());

    // The pruning state machine is still Inactive (no collection has
    // observed memory pressure), so no slot may carry a stale-check
    // tag. Plant one behind the write barrier's back.
    ASSERT_NE(rt.pruning(), nullptr);
    rt.pokeRefBitsForTesting(src.get(), 0,
                             makeRef(tgt.get()) | kStaleCheckBit);
    {
        QuietScope quiet;
        const VerifierReport report = rt.verifyHeap();
        EXPECT_FALSE(report.clean());
        EXPECT_GE(report.count(InvariantCheck::TagBits), 1u);
        EXPECT_EQ(report.count(InvariantCheck::Accounting), 0u);
        ASSERT_FALSE(report.violations.empty());
        EXPECT_EQ(report.violations[0].check, InvariantCheck::TagBits);
    }

    // Repairing the slot restores a clean verdict.
    rt.writeRef(src.get(), 0, tgt.get());
    EXPECT_TRUE(rt.verifyHeap().clean());
}

TEST(HeapVerifierTest, DetectsIllegalPoisonBit)
{
    Runtime rt(logOnlyConfig());
    const class_id_t node = rt.defineClass("Node", 2);

    HandleScope scope(rt.roots());
    Handle src = scope.handle(rt.allocate(node));
    Handle tgt = scope.handle(rt.allocate(node));

    // Nothing has ever been pruned, so a poisoned slot is corruption.
    rt.pokeRefBitsForTesting(src.get(), 0,
                             makeRef(tgt.get()) | kPoisonBit | kStaleCheckBit);
    QuietScope quiet;
    const VerifierReport report = rt.verifyHeap();
    EXPECT_FALSE(report.clean());
    EXPECT_GE(report.count(InvariantCheck::TagBits), 1u);
}

TEST(HeapVerifierTest, DetectsDanglingReference)
{
    Runtime rt(logOnlyConfig());
    const class_id_t node = rt.defineClass("Node", 2);

    HandleScope scope(rt.roots());
    Handle src = scope.handle(rt.allocate(node));

    // A well-aligned pointer that is not a live heap object.
    alignas(8) static unsigned char off_heap[64] = {};
    rt.pokeRefBitsForTesting(src.get(), 0,
                             reinterpret_cast<ref_t>(&off_heap[0]));
    {
        QuietScope quiet;
        const VerifierReport report = rt.verifyHeap();
        EXPECT_FALSE(report.clean());
        EXPECT_GE(report.count(InvariantCheck::Reachability), 1u);
    }
    rt.writeRef(src.get(), 0, nullptr);
    EXPECT_TRUE(rt.verifyHeap().clean());
}

TEST(HeapVerifierTest, DetectsStrayMarkBit)
{
    Runtime rt(logOnlyConfig());
    const class_id_t node = rt.defineClass("Node", 2);

    const class_id_t bytes = rt.defineByteArrayClass("Bytes");
    HandleScope scope(rt.roots());
    Handle obj = scope.handle(rt.allocate(node));
    Handle big = scope.handle(rt.allocateByteArray(bytes, 64 * 1024));

    // The epoch flip clears every side mark, so between collections
    // each mark word is zero. A stray bit would make the next trace
    // skip its object as already claimed.
    for (Object *victim : {obj.get(), big.get()}) {
        ASSERT_TRUE(rt.heap().tryMark(victim));
        {
            QuietScope quiet;
            const VerifierReport report = rt.verifyHeap();
            EXPECT_FALSE(report.clean());
            EXPECT_EQ(report.count(InvariantCheck::MarkBits), 1u);
        }
        // The next collection keeps the marked object and clears it.
        rt.collectNow();
        EXPECT_TRUE(rt.verifyHeap().clean());
    }
}

TEST(HeapVerifierTest, DetectsTickStampOfTheWrongParity)
{
    Runtime rt(logOnlyConfig());
    const class_id_t node = rt.defineClass("Node", 2);

    HandleScope scope(rt.roots());
    Handle obj = scope.handle(rt.allocate(node));
    rt.collectNow(); // collection 1
    ASSERT_EQ(rt.gcStats().collections, 1u);
    EXPECT_TRUE(rt.verifyHeap().clean());

    // Collection 1's own stamp is legal between collections...
    obj.get()->tickStaleCounter(kMaxStaleCounter, 1);
    EXPECT_TRUE(rt.verifyHeap().clean());
    // ...but collection 2's is not: collection 2 would misread it as
    // its own tick and decide on a counter one too low.
    obj.get()->tickStaleCounter(kMaxStaleCounter, 2);
    {
        QuietScope quiet;
        const VerifierReport report = rt.verifyHeap();
        EXPECT_FALSE(report.clean());
        EXPECT_EQ(report.count(InvariantCheck::ObjectShape), 1u);
    }
    // The next collection visits the object and rewrites the stamp.
    rt.collectNow();
    EXPECT_TRUE(rt.verifyHeap().clean());
}

TEST(HeapVerifierTest, DetectsInUseBitPastTheLastBlock)
{
    Runtime rt(logOnlyConfig());
    const class_id_t node = rt.defineClass("Node", 2);
    HandleScope scope(rt.roots());
    Handle obj = scope.handle(rt.allocate(node));

    // A 32-byte class has 512 blocks; the bitmap row has room for more,
    // and those bits must stay clear or a carve could hand out memory
    // past the chunk.
    const std::size_t past = 64 * Heap::kBitmapWords - 1;
    rt.heap().toggleInUseBitForTesting(obj.get(), past);
    {
        QuietScope quiet;
        const VerifierReport report = rt.verifyHeap();
        EXPECT_FALSE(report.clean());
        EXPECT_GE(report.count(InvariantCheck::Accounting), 1u);
    }
    rt.heap().toggleInUseBitForTesting(obj.get(), past);
    EXPECT_TRUE(rt.verifyHeap().clean());
}

TEST(HeapVerifierTest, DetectsLiveBlocksDrift)
{
    Runtime rt(logOnlyConfig());
    const class_id_t node = rt.defineClass("Node", 2);
    HandleScope scope(rt.roots());
    Handle obj = scope.handle(rt.allocate(node));

    // Clearing a live object's in-use bit makes the chunk's liveBlocks
    // disagree with the bitmap's popcount (and hides the object).
    const std::size_t first = 0;
    rt.heap().toggleInUseBitForTesting(obj.get(), first);
    {
        QuietScope quiet;
        const VerifierReport report = rt.verifyHeap();
        EXPECT_FALSE(report.clean());
        EXPECT_GE(report.count(InvariantCheck::Accounting), 1u);
    }
    rt.heap().toggleInUseBitForTesting(obj.get(), first);
    EXPECT_TRUE(rt.verifyHeap().clean());
}

TEST(HeapVerifierTest, DetectsUsedBytesDrift)
{
    Runtime rt(logOnlyConfig());
    const class_id_t node = rt.defineClass("Node", 2);
    HandleScope scope(rt.roots());
    Handle obj = scope.handle(rt.allocate(node));
    (void)obj;

    rt.heap().adjustUsedBytesForTesting(64);
    {
        QuietScope quiet;
        const VerifierReport report = rt.verifyHeap();
        EXPECT_FALSE(report.clean());
        EXPECT_GE(report.count(InvariantCheck::Accounting), 1u);
    }
    rt.heap().adjustUsedBytesForTesting(-64);
    EXPECT_TRUE(rt.verifyHeap().clean());
}

TEST(HeapVerifierTest, DetectsUnregisteredEdgeTableEntry)
{
    Runtime rt(logOnlyConfig());
    rt.defineClass("Node", 2);

    // Record a use of an edge between class ids that were never
    // registered — exactly what a corrupted edge-table slot looks like.
    ASSERT_NE(rt.pruning(), nullptr);
    rt.pruning()->forceState(PruningState::Observe);
    rt.pruning()->onReferenceUsed(12345, 54321, 5);

    QuietScope quiet;
    const VerifierReport report = rt.verifyHeap();
    EXPECT_FALSE(report.clean());
    EXPECT_GE(report.count(InvariantCheck::EdgeTable), 1u);
    EXPECT_GE(report.edgeEntriesScanned, 1u);
}

TEST(HeapVerifierTest, DetectsAuditRecordTheEngineNeverLogged)
{
    Runtime rt(logOnlyConfig());
    ASSERT_NE(rt.pruning(), nullptr);
    ASSERT_EQ(rt.pruning()->stats().refsPoisoned, 0u);

    // A prune record the engine never wrote: the trail's refs poisoned
    // no longer match the engine's own count.
    PruneAuditRecord rec;
    rec.epoch = 1;
    rec.refsPoisoned = 3;
    rec.bytesReclaimed = 4096;
    rt.telemetry()->audit().recordPrune(rec);

    QuietScope quiet;
    const VerifierReport report = rt.verifyHeap();
    EXPECT_FALSE(report.clean());
    ASSERT_GE(report.count(InvariantCheck::AuditTrail), 1u);
    bool saw_count = false;
    for (const VerifierViolation &v : report.violations) {
        if (v.check == InvariantCheck::AuditTrail &&
            v.detail.find("audit refs poisoned 3 != the engine's 0") !=
                std::string::npos)
            saw_count = true;
    }
    EXPECT_TRUE(saw_count) << report.summary();
}

TEST(HeapVerifierTest, FailFastPanicsOnViolation)
{
    RuntimeConfig rc = logOnlyConfig();
    rc.verifier.mode = VerifierMode::FailFast;
    Runtime rt(rc);
    const class_id_t node = rt.defineClass("Node", 2);

    HandleScope scope(rt.roots());
    Handle src = scope.handle(rt.allocate(node));
    Handle tgt = scope.handle(rt.allocate(node));
    rt.pokeRefBitsForTesting(src.get(), 0,
                             makeRef(tgt.get()) | kStaleCheckBit);

    EXPECT_DEATH({ rt.verifyHeap(); }, "heap verifier");
}

TEST(HeapVerifierTest, ReportFormattingAndHistory)
{
    Runtime rt(logOnlyConfig());
    VerifierReport report = rt.verifyHeap();
    EXPECT_NE(report.summary().find("clean"), std::string::npos);

    std::ostringstream csv;
    report.writeCsv(csv);
    // Header plus one row per invariant family.
    std::size_t lines = 0;
    std::string line;
    std::istringstream in(csv.str());
    while (std::getline(in, line))
        ++lines;
    EXPECT_EQ(lines, 1 + kNumInvariantChecks);

    rt.verifyHeap();
    EXPECT_EQ(rt.heapVerifier().runs(), 2u);
    EXPECT_EQ(rt.heapVerifier().totalViolations(), 0u);
}

/**
 * The acceptance bar for the automatic pass: every seed workload runs
 * with verification after every collection in FailFast mode — any
 * invariant violation during real pruning/offload activity panics the
 * test. Short runs keep the suite fast; each still collects many times.
 */
class VerifierWorkloadTest : public ::testing::Test
{
  protected:
    void SetUp() override { registerAllWorkloads(); }

    static DriverConfig
    verifyingConfig()
    {
        DriverConfig cfg;
        cfg.maxIterations = 4000;
        cfg.maxSeconds = 1.0;
        cfg.verifier.enabled = true;
        cfg.verifier.everyNCollections = 1;
        cfg.verifier.mode = VerifierMode::FailFast;
        return cfg;
    }
};

TEST_F(VerifierWorkloadTest, LeakWorkloadsStayCleanUnderPruning)
{
    for (const WorkloadInfo *info : WorkloadRegistry::instance().leaks()) {
        const RunResult r = runWorkload(*info, verifyingConfig());
        // Any verifier violation would have panicked; reaching here
        // with collections done means the pass ran and stayed clean.
        EXPECT_GT(r.gc.collections, 0u) << info->name;
    }
}

TEST_F(VerifierWorkloadTest, OverheadSuiteStaysClean)
{
    DriverConfig cfg = verifyingConfig();
    cfg.maxSeconds = 0.5;
    for (const WorkloadInfo *info :
         WorkloadRegistry::instance().nonLeaking()) {
        const RunResult r = runWorkload(*info, cfg);
        EXPECT_TRUE(r.survived() || r.end == EndReason::OutOfMemory)
            << info->name;
    }
}

TEST_F(VerifierWorkloadTest, DiskOffloadModeStaysClean)
{
    DriverConfig cfg = verifyingConfig();
    cfg.tolerance = ToleranceMode::DiskOffload;
    const RunResult r = runWorkload(
        *WorkloadRegistry::instance().find("ListLeak"), cfg);
    EXPECT_GT(r.gc.collections, 0u);
}

} // namespace
} // namespace lp
