/**
 * @file
 * A log-scale histogram. The collector keeps its pause and
 * safepoint-wait distributions in these so tests, benches and the
 * metrics export can read them.
 */

#ifndef LP_UTIL_STATS_H
#define LP_UTIL_STATS_H

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace lp {

/** Power-of-two bucketed histogram (e.g. object sizes, pause times). */
class LogHistogram
{
  public:
    static constexpr unsigned kBuckets = 48;

    /** Record one sample. */
    void
    add(std::uint64_t v)
    {
        unsigned b = 0;
        while (v > 1 && b + 1 < kBuckets) {
            v >>= 1;
            ++b;
        }
        ++buckets_[b];
        ++count_;
    }

    std::uint64_t count() const { return count_; }
    std::uint64_t bucket(unsigned i) const { return i < kBuckets ? buckets_[i] : 0; }

    /**
     * Power of two above every sample in bucket @p i: bucket i >= 1
     * holds [2^i, 2^(i+1)), bucket 0 holds 0 and 1 (the last bucket
     * also takes every larger sample).
     */
    static constexpr std::uint64_t
    bucketBound(unsigned i)
    {
        return std::uint64_t{1} << (i + 1);
    }

    /**
     * Bound of the bucket holding the nearest-rank @p fraction
     * percentile: the ceil(fraction * count)-th smallest sample, at
     * least the first. 0 when the histogram is empty.
     */
    std::uint64_t
    percentileBound(double fraction) const
    {
        if (count_ == 0)
            return 0;
        const std::uint64_t rank = std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(
                   std::ceil(fraction * static_cast<double>(count_))));
        std::uint64_t seen = 0;
        for (unsigned i = 0; i < kBuckets; ++i) {
            seen += buckets_[i];
            if (seen >= rank)
                return bucketBound(i);
        }
        return bucketBound(kBuckets - 1);
    }

  private:
    std::uint64_t buckets_[kBuckets] = {};
    std::uint64_t count_ = 0;
};

} // namespace lp

#endif // LP_UTIL_STATS_H
