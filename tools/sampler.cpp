/**
 * @file
 * A SIGPROF sampling profiler, loaded into any binary with LD_PRELOAD.
 *
 * On load it arms ITIMER_PROF at 1 ms of process CPU time; the kernel
 * delivers the signal at its own tick (4 ms on a 250 Hz kernel), so
 * the interval actually observed is reported, not assumed. Each signal
 * records the interrupted program counter in a static array: no
 * allocation, lock or system call in the handler. At exit the library
 * stops the timer, resolves each program counter to its module and
 * load base with dladdr, and writes
 *
 *     # lp_sampler samples=N dropped=D cpu_s=C wall_s=W
 *     <base hex> <pc hex> <module path>
 *     ...
 *
 * to $TMPDIR/lp_sampler.<pid>.txt (TMPDIR defaults to /tmp), where the
 * caller, which knows the pid it started, picks it up.
 * tools/sample_profile.py runs a command this way and summarises the samples
 * by function, by source line and by inlined stack.
 *
 * Not preloaded, it costs nothing: nothing in the runtime links it.
 */

#include <dlfcn.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <atomic>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <ctime>

namespace {

//! 2^20 samples: about 70 minutes of CPU at a 4-ms tick.
constexpr std::size_t kMaxSamples = std::size_t{1} << 20;
constexpr long kIntervalMicros = 1000;

void *g_pcs[kMaxSamples];
std::atomic<std::size_t> g_count{0};
timespec g_start{};

double
seconds(const timespec &ts)
{
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

void *
interruptedPc(void *context)
{
    auto *uc = static_cast<ucontext_t *>(context);
#if defined(__x86_64__)
    return reinterpret_cast<void *>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
    return reinterpret_cast<void *>(uc->uc_mcontext.pc);
#else
#error "lp_sampler: unsupported architecture"
#endif
}

void
onProf(int, siginfo_t *, void *context)
{
    const std::size_t i = g_count.fetch_add(1, std::memory_order_relaxed);
    if (i < kMaxSamples)
        g_pcs[i] = interruptedPc(context);
}

void
setTimer(long micros)
{
    itimerval tv{};
    tv.it_interval.tv_usec = micros;
    tv.it_value.tv_usec = micros;
    setitimer(ITIMER_PROF, &tv, nullptr);
}

__attribute__((constructor)) void
startSampling()
{
    clock_gettime(CLOCK_MONOTONIC, &g_start);
    struct sigaction sa {};
    sa.sa_sigaction = onProf;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, nullptr);
    setTimer(kIntervalMicros);
}

__attribute__((destructor)) void
writeSamples()
{
    setTimer(0);
    timespec end{};
    clock_gettime(CLOCK_MONOTONIC, &end);
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const double cpu = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
                       static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;

    const char *dir = std::getenv("TMPDIR");
    char path[4096];
    std::snprintf(path, sizeof path, "%s/lp_sampler.%d.txt",
                  dir && *dir ? dir : "/tmp", static_cast<int>(getpid()));
    std::FILE *out = std::fopen(path, "w");
    if (!out)
        return;
    const std::size_t taken = g_count.load(std::memory_order_relaxed);
    const std::size_t kept = taken < kMaxSamples ? taken : kMaxSamples;
    std::fprintf(out, "# lp_sampler samples=%zu dropped=%zu cpu_s=%.3f wall_s=%.3f\n",
                 kept, taken - kept, cpu, seconds(end) - seconds(g_start));
    // dladdr names the main program by the path it was started with,
    // or not at all; name it by its absolute path instead.
    char exe[4096] = "?";
    const ssize_t len = readlink("/proc/self/exe", exe, sizeof exe - 1);
    if (len > 0)
        exe[len] = '\0';
    for (std::size_t i = 0; i < kept; ++i) {
        Dl_info info{};
        if (!dladdr(g_pcs[i], &info) || !info.dli_fname) {
            std::fprintf(out, "0 %p ?\n", g_pcs[i]);
            continue;
        }
        const char *module = info.dli_fname[0] == '/' ? info.dli_fname : exe;
        std::fprintf(out, "%p %p %s\n", info.dli_fbase, g_pcs[i], module);
    }
    std::fclose(out);
}

} // namespace
