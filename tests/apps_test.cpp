/**
 * @file
 * Sanity tests for the evaluation workloads: registration, short runs
 * under both configurations, and the leak-specific invariants each
 * model must exhibit (who dies, who is saved, what gets pruned).
 */

#include <gtest/gtest.h>

#include <iterator>
#include <string>

#include "apps/leak_workload.h"
#include "core/errors.h"
#include "harness/driver.h"

namespace lp {
namespace {

class AppsTest : public ::testing::Test
{
  protected:
    void SetUp() override { registerAllWorkloads(); }
};

TEST_F(AppsTest, AllPaperWorkloadsRegistered)
{
    const char *expected[] = {"ListLeak", "SwapLeak", "DualLeak",
                              "EclipseDiff", "EclipseCP", "MySQL",
                              "SPECjbb2000", "JbbMod", "Mckoi", "Delaunay"};
    for (const char *name : expected) {
        EXPECT_NE(WorkloadRegistry::instance().find(name), nullptr) << name;
    }
    EXPECT_GE(WorkloadRegistry::instance().nonLeaking().size(), 8u)
        << "the Section 5 overhead suite";
}

TEST_F(AppsTest, EveryWorkloadRunsTenIterations)
{
    // Smoke: every registered workload must set up and iterate without
    // dying instantly in a roomy heap.
    for (const WorkloadInfo *info : WorkloadRegistry::instance().all()) {
        DriverConfig cfg;
        cfg.enablePruning = true;
        cfg.heapBytes = 64u << 20;
        cfg.maxIterations = 10;
        cfg.maxSeconds = 20.0;
        const RunResult r = runWorkload(*info, cfg);
        EXPECT_GE(r.iterations, 10u) << info->name;
    }
}

TEST_F(AppsTest, LeaksDieWithoutPruning)
{
    // Every leak except the short-running Delaunay must exhaust its
    // paper heap on the unmodified runtime.
    for (const char *name : {"ListLeak", "SwapLeak", "DualLeak",
                             "EclipseDiff", "EclipseCP", "MySQL",
                             "SPECjbb2000", "JbbMod", "Mckoi"}) {
        DriverConfig cfg;
        cfg.enablePruning = false;
        cfg.maxSeconds = 20.0;
        const RunResult r = runWorkloadByName(name, cfg);
        EXPECT_EQ(r.end, EndReason::OutOfMemory) << name;
    }
}

TEST_F(AppsTest, PureLeaksSurviveWithPruning)
{
    for (const char *name : {"ListLeak", "SwapLeak"}) {
        DriverConfig base_cfg;
        base_cfg.enablePruning = false;
        base_cfg.maxSeconds = 10.0;
        const RunResult base = runWorkloadByName(name, base_cfg);

        DriverConfig cfg;
        cfg.enablePruning = true;
        cfg.maxIterations = base.iterations * 10;
        cfg.maxSeconds = 30.0;
        const RunResult pruned = runWorkloadByName(name, cfg);
        EXPECT_TRUE(pruned.survived())
            << name << " ended: " << endReasonName(pruned.end);
        EXPECT_GT(pruned.pruning.refsPoisoned, 0u) << name;
    }
}

TEST_F(AppsTest, DualLeakGetsNoHelp)
{
    DriverConfig base_cfg;
    base_cfg.enablePruning = false;
    base_cfg.maxSeconds = 10.0;
    const RunResult base = runWorkloadByName("DualLeak", base_cfg);

    DriverConfig cfg;
    cfg.enablePruning = true;
    cfg.maxSeconds = 20.0;
    const RunResult pruned = runWorkloadByName("DualLeak", cfg);
    EXPECT_EQ(pruned.end, EndReason::OutOfMemory);
    EXPECT_EQ(pruned.pruning.refsPoisoned, 0u)
        << "all growth is live; nothing may be pruned";
    EXPECT_LT(pruned.ratioVs(base), 1.3);
}

TEST_F(AppsTest, DelaunayFinishesUnderBothConfigs)
{
    for (bool pruning : {false, true}) {
        DriverConfig cfg;
        cfg.enablePruning = pruning;
        cfg.maxSeconds = 30.0;
        const RunResult r = runWorkloadByName("Delaunay", cfg);
        EXPECT_EQ(r.end, EndReason::Finished) << "pruning=" << pruning;
        if (pruning) {
            EXPECT_EQ(r.pruning.refsPoisoned, 0u)
                << "bounded-memory program must not be pruned";
        }
    }
}

TEST_F(AppsTest, EclipseDiffPrunesCompareInputStructures)
{
    DriverConfig cfg;
    cfg.enablePruning = true;
    cfg.maxSeconds = 10.0;
    cfg.maxIterations = 3000;
    const RunResult r = runWorkloadByName("EclipseDiff", cfg);
    EXPECT_TRUE(r.survived());
    ASSERT_FALSE(r.pruneLog.empty());
    // The paper: "correctly selects and prunes several edge types with
    // source type ResourceCompareInput".
    bool from_rci = false;
    for (const PruneAuditRecord &rec : r.pruneLog) {
        if (rec.typeName.find("ResourceCompareInput ->") != std::string::npos)
            from_rci = true;
        EXPECT_EQ(rec.typeName.find("NavigationHistory.List"),
                  std::string::npos)
            << "the live history spine must never be pruned: "
            << rec.typeName;
    }
    EXPECT_TRUE(from_rci);
}

TEST_F(AppsTest, EclipseCpPruneLogIsPinned)
{
    // The two leaking lists alternate as the selected edge type. Every
    // decision reads stale counters as they stood when its collection
    // began and the stale closure charges shared subgraphs in edge-type
    // order, so any trace order gives these figures.
    const RunResult r = runWorkloadByName("EclipseCP", DriverConfig{});
    EXPECT_EQ(r.end, EndReason::PrunedAccess);
    EXPECT_EQ(r.iterations, 1201u);
    EXPECT_EQ(r.pruning.pruneCollections, 81u);
    EXPECT_EQ(r.pruning.refsPoisoned, 2385u);
    ASSERT_EQ(r.pruneLog.size(), 81u);

    const std::string events = "org.eclipse.jface.text.DocumentEventLog.ListNode"
                               " -> org.eclipse.jface.text.DocumentEvent";
    const std::string undo =
        "org.eclipse.jface.text.DefaultUndoManager.ListNode"
        " -> org.eclipse.jface.text.DefaultUndoManager$TextCommand";
    struct Decision {
        std::uint64_t epoch;
        const std::string &type;
        std::uint64_t refs;
    };
    const Decision first[] = {
        {14, undo, 22},   {21, events, 34}, {31, undo, 30},
        {40, events, 30}, {49, undo, 30},
    };
    for (std::size_t i = 0; i < std::size(first); ++i) {
        const PruneAuditRecord &rec = r.pruneLog[i];
        EXPECT_EQ(rec.epoch, first[i].epoch) << "decision " << i;
        EXPECT_EQ(rec.typeName, first[i].type) << "decision " << i;
        EXPECT_EQ(rec.refsPoisoned, first[i].refs) << "decision " << i;
    }
}

TEST_F(AppsTest, MySqlPrunesResultsNotStatements)
{
    DriverConfig cfg;
    cfg.enablePruning = true;
    cfg.maxSeconds = 15.0;
    const RunResult r = runWorkloadByName("MySQL", cfg);
    ASSERT_FALSE(r.pruneLog.empty());
    for (const PruneAuditRecord &rec : r.pruneLog) {
        EXPECT_EQ(rec.typeName.find("-> com.mysql.jdbc.ServerPreparedStatement"),
                  std::string::npos)
            << "live statements must not be pruned: " << rec.typeName;
    }
    EXPECT_EQ(r.end, EndReason::OutOfMemory)
        << "MySQL's live statement growth eventually wins";
}

TEST_F(AppsTest, JbbModOrdersProtectedByMaxStaleUse)
{
    DriverConfig cfg;
    cfg.enablePruning = true;
    cfg.maxSeconds = 25.0;
    const RunResult r = runWorkloadByName("JbbMod", cfg);
    ASSERT_FALSE(r.pruneLog.empty());
    for (const PruneAuditRecord &rec : r.pruneLog) {
        EXPECT_EQ(rec.typeName.find("Object[] -> spec.jbbmod.Order"),
                  std::string::npos)
            << "phased maxStaleUse must protect Object[]->Order: "
            << rec.typeName;
    }
}

TEST_F(AppsTest, MckoiModestExtension)
{
    DriverConfig base_cfg;
    base_cfg.enablePruning = false;
    base_cfg.maxSeconds = 10.0;
    const RunResult base = runWorkloadByName("Mckoi", base_cfg);
    DriverConfig cfg;
    cfg.enablePruning = true;
    cfg.maxSeconds = 20.0;
    const RunResult pruned = runWorkloadByName("Mckoi", cfg);
    const double ratio = pruned.ratioVs(base);
    EXPECT_GT(ratio, 1.2) << "dead connection state should be reclaimed";
    EXPECT_LT(ratio, 3.0) << "pinned thread stacks must not be reclaimed";
}

TEST_F(AppsTest, PhasedLeakDecayExtensionHelps)
{
    DriverConfig no_decay;
    no_decay.enablePruning = true;
    no_decay.maxSeconds = 20.0;
    no_decay.maxIterations = 40000;
    const RunResult protected_run = runWorkloadByName("PhasedLeak", no_decay);
    EXPECT_EQ(protected_run.end, EndReason::OutOfMemory)
        << "without decay the phase's record protects the dead registry";

    DriverConfig with_decay = no_decay;
    with_decay.decayPeriod = 4;
    const RunResult decayed = runWorkloadByName("PhasedLeak", with_decay);

    EXPECT_GT(decayed.iterations, protected_run.iterations * 2)
        << "decay must unprotect the finished phase's dead registry";
    EXPECT_GT(decayed.pruning.refsPoisoned, protected_run.pruning.refsPoisoned);
}

} // namespace
} // namespace lp
