/**
 * @file
 * Deliberate fast-path offender for tools/lint_barriers.py's
 * self-test. Never compiled. Its readRef() counts every load with a
 * locked fetch_add on a counter shared by all threads, and its
 * out-of-line carve() bumps a shared cursor the same way; the
 * fast-path guard must flag both, finding carve() by its qualified
 * definition. Its destructor releases a shared count with a locked
 * fetch_sub and must be flagged under its own name, ~FixtureRuntime;
 * its writeRef() names fetch_add only in a comment and its
 * constructor, defined after the destructor, is a plain store, and
 * both must pass.
 */

#include <atomic>
#include <cstdint>

namespace lp {

class FixtureRuntime
{
  public:
    ~FixtureRuntime()
    {
        live_.fetch_sub(1, std::memory_order_relaxed); // offense
    }

    FixtureRuntime() { blocks_[0] = 1; }

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

    int *carve();

  private:
    std::atomic<std::uint64_t> reads_{0};
    std::atomic<std::uint64_t> cursor_{0};
    static inline std::atomic<std::uint64_t> live_{0};
    int blocks_[64] = {};
};

int *
FixtureRuntime::carve()
{
    return &blocks_[cursor_.fetch_add(1) % 64]; // offense
}

} // namespace lp
