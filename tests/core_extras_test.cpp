/**
 * @file
 * Tests for the core extras: the maxStaleUse decay extension, the
 * finalizer policy (paper Section 2), and the pruning report (paper
 * Section 3.2).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/errors.h"
#include "core/pruning_report.h"
#include "gc/edge_table.h"
#include "vm/handles.h"
#include "vm/runtime.h"

namespace lp {
namespace {

// --- maxStaleUse decay --------------------------------------------------------

TEST(DecayTest, DecayLowersEveryNonZeroEntry)
{
    EdgeTable table(64);
    table.recordUse({1, 2}, 5);
    table.recordUse({3, 4}, 2);
    table.chargeBytes({5, 6}, 100); // maxStaleUse 0 stays 0
    table.decayMaxStaleUse();
    EXPECT_EQ(table.maxStaleUse({1, 2}), 4u);
    EXPECT_EQ(table.maxStaleUse({3, 4}), 1u);
    EXPECT_EQ(table.maxStaleUse({5, 6}), 0u);
    for (int i = 0; i < 10; ++i)
        table.decayMaxStaleUse();
    EXPECT_EQ(table.maxStaleUse({1, 2}), 0u) << "decay saturates at zero";
}

TEST(DecayTest, PeriodicDecayRunsInsideCollections)
{
    RuntimeConfig cfg;
    cfg.heapBytes = 8u << 20;
    cfg.enableLeakPruning = true;
    cfg.pruning.maxStaleUseDecayPeriod = 2;
    Runtime rt(cfg);
    const class_id_t src = rt.defineClass("d.Src", 1, 0);
    const class_id_t tgt = rt.defineClass("d.Tgt", 0, 8);
    rt.pruning()->forceState(PruningState::Observe);
    rt.pruning()->onReferenceUsed(src, tgt, 6);
    ASSERT_EQ(rt.pruning()->edgeTable().maxStaleUse({src, tgt}), 6u);
    for (int i = 0; i < 8; ++i)
        rt.collectNow();
    // Every second collection decays by one: 8 GCs -> -4.
    EXPECT_LE(rt.pruning()->edgeTable().maxStaleUse({src, tgt}), 2u);
    EXPECT_GE(rt.pruning()->edgeTable().maxStaleUse({src, tgt}), 1u);
}

TEST(DecayTest, DisabledByDefault)
{
    RuntimeConfig cfg;
    cfg.heapBytes = 8u << 20;
    cfg.enableLeakPruning = true;
    Runtime rt(cfg);
    const class_id_t src = rt.defineClass("d.Src", 1, 0);
    const class_id_t tgt = rt.defineClass("d.Tgt", 0, 8);
    rt.pruning()->forceState(PruningState::Observe);
    rt.pruning()->onReferenceUsed(src, tgt, 6);
    for (int i = 0; i < 8; ++i)
        rt.collectNow();
    EXPECT_EQ(rt.pruning()->edgeTable().maxStaleUse({src, tgt}), 6u)
        << "the paper's configuration never decays";
}

// --- finalizer policy -----------------------------------------------------------

class FinalizerPolicyTest : public ::testing::TestWithParam<FinalizerPolicy>
{
};

TEST_P(FinalizerPolicyTest, PolicyGovernsPostPruneFinalization)
{
    int finalized = 0;
    RuntimeConfig cfg;
    cfg.heapBytes = 8u << 20;
    cfg.enableLeakPruning = true;
    cfg.pruning.finalizerPolicy = GetParam();
    Runtime rt(cfg);
    const class_id_t holder = rt.defineClass("f.Holder", 1, 0);
    const class_id_t victim =
        rt.defineClass("f.Victim", 0, 64, [&](Object *) { ++finalized; });

    HandleScope scope(rt.roots());
    Handle h = scope.handle(rt.allocate(holder));
    {
        HandleScope inner(rt.roots());
        Handle v = inner.handle(rt.allocate(victim));
        rt.writeRef(h.get(), 0, v.get());
    }

    // Pre-prune: ordinary reclamation runs finalizers in both modes.
    {
        HandleScope inner(rt.roots());
        inner.handle(rt.allocate(victim)); // becomes garbage at scope end
    }
    rt.releaseAllocationRoot();
    rt.collectNow();
    EXPECT_EQ(finalized, 1);

    // Force a prune of holder -> victim.
    rt.pruning()->forceState(PruningState::Observe);
    rt.collectNow();
    rt.readRef(h.get(), 0)->setStaleCounter(4);
    rt.pruning()->forceState(PruningState::Select);
    rt.collectNow(); // SELECT
    rt.collectNow(); // PRUNE: reclaims the victim
    const int after_prune = finalized;

    // Post-prune garbage: policy decides.
    {
        HandleScope inner(rt.roots());
        inner.handle(rt.allocate(victim));
    }
    rt.releaseAllocationRoot();
    rt.collectNow();
    if (GetParam() == FinalizerPolicy::KeepRunning) {
        EXPECT_EQ(after_prune, 2) << "pruned victim finalizes (paper default)";
        EXPECT_EQ(finalized, 3);
    } else {
        EXPECT_EQ(after_prune, 1) << "strict: no finalizers once pruning began";
        EXPECT_EQ(finalized, 1);
    }
}

INSTANTIATE_TEST_SUITE_P(Policies, FinalizerPolicyTest,
                         ::testing::Values(FinalizerPolicy::KeepRunning,
                                           FinalizerPolicy::DisableAfterFirstPrune));

// --- pruning report ---------------------------------------------------------------

TEST(PruningReportTest, EmptyWithoutExhaustion)
{
    RuntimeConfig cfg;
    cfg.heapBytes = 8u << 20;
    cfg.enableLeakPruning = true;
    Runtime rt(cfg);
    const PruningReport report =
        buildPruningReport(*rt.pruning(), rt.telemetry()->audit());
    EXPECT_FALSE(report.memoryExhausted);
    EXPECT_TRUE(report.suspects.empty());
    EXPECT_NE(report.toString().find("never exhausted"), std::string::npos);
}

TEST(PruningReportTest, RanksSuspectsByStructureBytes)
{
    // Drive a real leak to exhaustion and check the report names the
    // leaking edge type first with a non-trivial byte count.
    RuntimeConfig cfg;
    cfg.heapBytes = 1u << 20;
    cfg.enableLeakPruning = true;
    Runtime rt(cfg);
    const class_id_t node = rt.defineClass("r.Node", 2, 0);
    const class_id_t payload = rt.defineClass("r.Payload", 0, 2048);
    HandleScope scope(rt.roots());
    Handle head = scope.handle(nullptr);
    for (int i = 0; i < 2000; ++i) {
        HandleScope inner(rt.roots());
        Handle p = inner.handle(rt.allocate(payload));
        Handle n = inner.handle(rt.allocate(node));
        rt.writeRef(n.get(), 0, head.get());
        rt.writeRef(n.get(), 1, p.get());
        head.set(n.get());
        for (Object *w = head.get(); w; w = rt.readRef(w, 0)) {
        }
    }

    const PruningReport report =
        buildPruningReport(*rt.pruning(), rt.telemetry()->audit());
    EXPECT_TRUE(report.memoryExhausted);
    EXPECT_FALSE(report.oomMessage.empty());
    ASSERT_FALSE(report.suspects.empty());
    EXPECT_NE(report.suspects.front().typeName.find("r.Node -> r.Payload"),
              std::string::npos);
    EXPECT_GT(report.suspects.front().structureBytes, 100000u);
    EXPECT_GT(report.totalRefsPoisoned, 0u);
    // Rendering mentions the top suspect.
    EXPECT_NE(report.toString().find("r.Node -> r.Payload"),
              std::string::npos);
}

TEST(PruningReportTest, PoisonAccessIsAttributedEndToEnd)
{
    // Prune holder -> victim, then read the pruned reference: the throw
    // lands on the decision's one audit record, and the record, the
    // report and the summary all grade the prediction as wrong.
    RuntimeConfig cfg;
    cfg.heapBytes = 8u << 20;
    cfg.enableLeakPruning = true;
    Runtime rt(cfg);
    const class_id_t holder = rt.defineClass("a.Holder", 1, 0);
    const class_id_t victim = rt.defineClass("a.Victim", 0, 64);

    HandleScope scope(rt.roots());
    Handle h = scope.handle(rt.allocate(holder));
    {
        HandleScope inner(rt.roots());
        Handle v = inner.handle(rt.allocate(victim));
        rt.writeRef(h.get(), 0, v.get());
    }
    rt.releaseAllocationRoot();

    rt.pruning()->forceState(PruningState::Observe);
    rt.collectNow();
    rt.readRef(h.get(), 0)->setStaleCounter(4);
    rt.pruning()->forceState(PruningState::Select);
    rt.collectNow(); // SELECT
    rt.collectNow(); // PRUNE: poisons holder -> victim
    EXPECT_THROW(rt.readRef(h.get(), 0), InternalError);

    const PruneAuditTrail &audit = rt.telemetry()->audit();
    const std::vector<PruneAuditRecord> recs = audit.records();
    ASSERT_EQ(recs.size(), 1u);
    EXPECT_EQ(recs[0].typeName, "a.Holder -> a.Victim");
    EXPECT_EQ(recs[0].poisonHits, 1u);
    EXPECT_EQ(recs[0].refsPoisoned, rt.pruning()->stats().refsPoisoned);
    EXPECT_EQ(recs[0].refsPoisoned, 1u);

    const PruningReport report = buildPruningReport(*rt.pruning(), audit);
    ASSERT_EQ(report.suspects.size(), 1u);
    EXPECT_EQ(report.suspects[0].poisonAccessHits, 1u);

    const PruneAuditSummary summary = audit.summary();
    EXPECT_TRUE(summary.graded);
    EXPECT_EQ(summary.unattributedHits, 0u);
    EXPECT_DOUBLE_EQ(summary.accuracy, 0.0);
}

} // namespace
} // namespace lp
