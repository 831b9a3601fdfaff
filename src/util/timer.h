/**
 * @file
 * Monotonic wall-clock timing used by the GC statistics and the
 * per-iteration throughput figures (paper Figs. 8, 10, 11).
 */

#ifndef LP_UTIL_TIMER_H
#define LP_UTIL_TIMER_H

#include <chrono>
#include <cstdint>

namespace lp {

/** Nanoseconds on the steady clock. */
inline std::uint64_t
nowNanos()
{
    const auto t = std::chrono::steady_clock::now().time_since_epoch();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t).count();
}

/** Stopwatch that accumulates across start/stop pairs. */
class Timer
{
  public:
    /** Begin a timed interval. */
    void
    start()
    {
        start_ns_ = nowNanos();
        running_ = true;
    }

    /** End the current interval and fold it into the total. */
    void
    stop()
    {
        if (running_) {
            total_ns_ += nowNanos() - start_ns_;
            running_ = false;
        }
    }

    /** Discard all accumulated time. */
    void
    reset()
    {
        total_ns_ = 0;
        running_ = false;
    }

    /** Accumulated time, including a still-running interval. */
    std::uint64_t
    elapsedNanos() const
    {
        std::uint64_t t = total_ns_;
        if (running_)
            t += nowNanos() - start_ns_;
        return t;
    }

    double elapsedSeconds() const { return elapsedNanos() * 1e-9; }

  private:
    std::uint64_t total_ns_ = 0;
    std::uint64_t start_ns_ = 0;
    bool running_ = false;
};

/** RAII timer that adds its lifetime to an accumulator on destruction. */
class ScopedTimer
{
  public:
    explicit ScopedTimer(std::uint64_t &accum_ns)
        : accum_ns_(accum_ns), start_ns_(nowNanos())
    {}

    ~ScopedTimer() { accum_ns_ += nowNanos() - start_ns_; }

    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

  private:
    std::uint64_t &accum_ns_;
    std::uint64_t start_ns_;
};

} // namespace lp

#endif // LP_UTIL_TIMER_H
