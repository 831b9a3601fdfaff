#include "telemetry/audit.h"

namespace lp {

void
PruneAuditTrail::recordPrune(PruneAuditRecord rec)
{
    rec.poisonHits = 0;
    std::lock_guard<std::mutex> lock(mutex_);
    records_.push_back(std::move(rec));
}

void
PruneAuditTrail::recordPoisonAccess(std::uint32_t src_class)
{
    std::lock_guard<std::mutex> lock(mutex_);
    // Newest-first: the most recent decision for this source class is
    // the one whose poisoned references the program can still hold.
    for (auto it = records_.rbegin(); it != records_.rend(); ++it) {
        if (it->hasType && it->srcClass == src_class) {
            ++it->poisonHits;
            return;
        }
    }
    for (auto it = records_.rbegin(); it != records_.rend(); ++it) {
        if (!it->hasType) { // MostStale prunes poison by level, not type
            ++it->poisonHits;
            return;
        }
    }
    ++unattributed_hits_;
}

PruneAuditSummary
PruneAuditTrail::summary() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    PruneAuditSummary s;
    s.records = records_.size();
    s.unattributedHits = unattributed_hits_;
    for (const PruneAuditRecord &r : records_) {
        s.refsPoisoned += r.refsPoisoned;
        s.bytesReclaimed += r.bytesReclaimed;
        s.poisonHits += r.poisonHits;
        if (r.poisonHits > 0)
            s.bytesMispredicted += r.bytesReclaimed;
    }
    s.graded = !records_.empty();
    s.accuracy = s.bytesReclaimed
        ? 1.0 - static_cast<double>(s.bytesMispredicted) /
                    static_cast<double>(s.bytesReclaimed)
        : 1.0;
    return s;
}

std::vector<PruneAuditRecord>
PruneAuditTrail::records() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return records_;
}

} // namespace lp
