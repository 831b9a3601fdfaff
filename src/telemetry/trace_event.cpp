#include "telemetry/trace_event.h"

namespace lp {

const char *
tracePhaseName(TracePhase phase)
{
    switch (phase) {
      case TracePhase::SafepointWait: return "safepoint.wait";
      case TracePhase::GcPause: return "gc.pause";
      case TracePhase::GcMark: return "gc.mark";
      case TracePhase::GcPlugin: return "gc.plugin";
      case TracePhase::GcSweep: return "gc.sweep";
      case TracePhase::GcVerify: return "gc.verify";
      case TracePhase::CacheRetireAll: return "cache.retire_all";
      case TracePhase::GcFinalizerScan: return "gc.finalizer_scan";
      case TracePhase::PruneDecision: return "prune.decision";
      case TracePhase::CacheRefill: return "cache.refill";
      case TracePhase::OffloadWrite: return "offload.write";
      case TracePhase::OffloadFault: return "offload.fault";
      case TracePhase::PoisonAccess: return "barrier.poison_access";
      case TracePhase::kCount: break;
    }
    return "?";
}

} // namespace lp
