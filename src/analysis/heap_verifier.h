/**
 * @file
 * The heap-integrity verifier: a stop-the-world full-heap analysis
 * pass in the mold of Jikes RVM's debug heap-verification scans.
 *
 * Leak pruning's correctness rests on invariants the paper states but
 * ordinary execution never checks: reference-word tag bits must agree
 * with the pruning state machine, poisoned references may exist only
 * after a PRUNE collection (or as disk-offload stubs), mark bits must
 * be clear outside collections, the edge table may only name
 * registered class pairs, and the heap's byte accounting must equal
 * what a full walk observes. The verifier walks every live object,
 * every reference slot, every root, and every edge-table entry, and
 * reports violations through a structured VerifierReport — either
 * fail-fast (panic at the first violation, for CI and debug runs) or
 * log-only (collect everything, for tests and diagnostics).
 *
 * The verifier must run with the world stopped (it is wired into the
 * collector's post-collection hook, where the pause already exists,
 * and into Runtime::verifyHeap(), which stops the world itself). See
 * DESIGN.md "Invariants" for the full catalogue of checks.
 */

#ifndef LP_ANALYSIS_HEAP_VERIFIER_H
#define LP_ANALYSIS_HEAP_VERIFIER_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace lp {

class Heap;
class ClassRegistry;
class RootProvider;
class LeakPruning;
class PruneAuditTrail;
struct GcStats;

/** What the verifier does when it finds a violation. */
enum class VerifierMode {
    FailFast, //!< panic at the first violation (debug/CI runs)
    LogOnly,  //!< record every violation, warn, keep going (tests)
};

/** The invariant families the verifier checks. */
enum class InvariantCheck : std::uint8_t {
    TagBits,      //!< reference tag/poison bits vs. the pruning state
    MarkBits,     //!< mark bits clear outside collections
    EdgeTable,    //!< entries name registered class pairs, sane counts
    Accounting,   //!< committed/used bytes equal the walked live sizes
    Reachability, //!< unpoisoned references target live heap objects
    ObjectShape,  //!< headers: registered class ids, layout-exact sizes,
                  //!< no tick stamp older than the last collection
    AuditTrail,   //!< audit refs poisoned equal the engine's count
};

/** Number of InvariantCheck values (for per-check counters). */
constexpr std::size_t kNumInvariantChecks = 7;

/** Printable name of one check family. */
const char *invariantCheckName(InvariantCheck check);

/** Verifier deployment knobs (part of RuntimeConfig). */
struct HeapVerifierConfig {
    /**
     * Master switch for the automatic post-collection pass. Defaults
     * on in debug (!NDEBUG) builds, off in release builds; explicit
     * calls to Runtime::verifyHeap() work regardless.
     */
#ifndef NDEBUG
    bool enabled = true;
#else
    bool enabled = false;
#endif
    /** Run the automatic pass after every Nth collection (0 = never). */
    unsigned everyNCollections = 8;
    VerifierMode mode = VerifierMode::FailFast;
};

/** One recorded violation. */
struct VerifierViolation {
    InvariantCheck check;
    std::string detail;
};

/** Structured result of one verification pass. */
struct VerifierReport {
    /** Cap on the recorded violation details (LogOnly mode). */
    static constexpr std::size_t kMaxRecordedViolations = 64;

    std::uint64_t epoch = 0;          //!< collection number at the pass
    std::uint64_t objectsScanned = 0;
    std::uint64_t refsScanned = 0;
    std::uint64_t rootsScanned = 0;
    std::uint64_t edgeEntriesScanned = 0;

    /** Total violations found (recorded details are capped). */
    std::uint64_t violationCount = 0;
    std::array<std::uint64_t, kNumInvariantChecks> perCheck{};
    std::vector<VerifierViolation> violations;

    bool clean() const { return violationCount == 0; }

    /** Violations charged to one check family. */
    std::uint64_t
    count(InvariantCheck check) const
    {
        return perCheck[static_cast<std::size_t>(check)];
    }

    /** One-line human summary ("clean" or per-check counts). */
    std::string summary() const;

    /** Emit "check,count" CSV rows (harness/CI artifact format). */
    void writeCsv(std::ostream &os) const;
};

/**
 * Everything the verifier inspects. Pointers rather than a Runtime so
 * the analysis layer depends only on the layers below the VM facade
 * (heap, object, gc, core) and lp_vm can link against lp_analysis.
 */
struct VerifierContext {
    Heap *heap = nullptr;                 //!< required
    const ClassRegistry *registry = nullptr; //!< required
    RootProvider *roots = nullptr;        //!< optional: root scanning
    const LeakPruning *pruning = nullptr; //!< optional: edge table, state
    const GcStats *gcStats = nullptr;     //!< optional: poison legality
    //! Optional: the telemetry audit trail. When both this and
    //! `pruning` are set, the verifier checks that the trail's refs
    //! poisoned total equals the engine's running count, which the
    //! engine keeps apart from the records, so disagreement means a
    //! prune decision was lost or double-counted.
    const PruneAuditTrail *audit = nullptr;
    bool offloadActive = false;           //!< disk-offload stubs legal
};

class HeapVerifier
{
  public:
    HeapVerifier(const VerifierContext &ctx, HeapVerifierConfig config);

    HeapVerifier(const HeapVerifier &) = delete;
    HeapVerifier &operator=(const HeapVerifier &) = delete;

    /**
     * Run one full verification pass. The world must be stopped (or
     * quiescent: single mutator, no collection in progress).
     *
     * In FailFast mode the first violation panics; in LogOnly mode all
     * violations are collected into the returned report and a summary
     * warning is logged.
     */
    VerifierReport verify(std::uint64_t epoch);

    /** Should the automatic post-collection pass run at @p epoch? */
    bool
    due(std::uint64_t epoch) const
    {
        return config_.enabled && config_.everyNCollections != 0 &&
               epoch % config_.everyNCollections == 0;
    }

    /** Passes executed so far. */
    std::uint64_t runs() const { return runs_; }

    /** Total violations across all passes. */
    std::uint64_t totalViolations() const { return total_violations_; }

    const HeapVerifierConfig &config() const { return config_; }

  private:
    void addViolation(VerifierReport &report, InvariantCheck check,
                      std::string detail);

    VerifierContext ctx_;
    HeapVerifierConfig config_;
    std::uint64_t runs_ = 0;
    std::uint64_t total_violations_ = 0;
};

} // namespace lp

#endif // LP_ANALYSIS_HEAP_VERIFIER_H
