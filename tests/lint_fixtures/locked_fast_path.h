/**
 * @file
 * Deliberate fast-path offender for tools/lint_barriers.py's
 * self-test. Never compiled. Its readRef() counts every load with a
 * locked fetch_add on a counter shared by all threads, which the
 * fast-path guard must flag; its writeRef() names fetch_add only in a
 * comment and must pass.
 */

#include <atomic>
#include <cstdint>

namespace lp {

class FixtureRuntime
{
  public:
    int
    readRef(const int *slot)
    {
        reads_.fetch_add(1, std::memory_order_relaxed); // offense
        return *slot;
    }

    void
    writeRef(int *slot, int value)
    {
        // No fetch_add or compare_exchange_strong here: a plain store.
        *slot = value;
    }

  private:
    std::atomic<std::uint64_t> reads_{0};
};

} // namespace lp
