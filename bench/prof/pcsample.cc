/**
 * @file
 * A SIGPROF program-counter sampler, loaded with LD_PRELOAD.
 *
 * Line-level profiles without perf or a PMU: ITIMER_PROF delivers
 * SIGPROF once per millisecond of CPU time the process uses (on any
 * of its threads), and the handler records the interrupted
 * instruction pointer (REG_RIP). At exit the sampler writes the
 * histogram, with the process's executable mappings, to
 * pcsample.<pid>.txt in the working directory. Unlike gprof, a sample
 * lands on the instruction that ran, so code the compiler inlined or
 * flattened into a caller is charged to its own source line by
 * bench/prof/pcreport.py. See docs/PERF.md, "Line-level profiles".
 *
 *   LD_PRELOAD=build/libpcsample.so ./build/example_capacity_frontier 2
 *   python3 bench/prof/pcreport.py pcsample.<pid>.txt
 *
 * x86-64 Linux only.
 */

#if !defined(__x86_64__) || !defined(__linux__)
#error "pcsample reads REG_RIP: x86-64 Linux only"
#endif

#include <signal.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace
{

/** Sampling period: 1 ms of process CPU time. */
constexpr long kPeriodUs = 1000;

/** Sample buffer: about 35 CPU-minutes at 1 kHz, then samples drop. */
constexpr std::size_t kMaxSamples = std::size_t(1) << 21;

std::uintptr_t samples[kMaxSamples];
std::atomic<std::size_t> taken{0};

/** The SIGPROF handler: async-signal-safe, one relaxed atomic add. */
void
onProf(int, siginfo_t *, void *context)
{
    const auto *uc = static_cast<const ucontext_t *>(context);
    const std::size_t i = taken.fetch_add(1, std::memory_order_relaxed);
    if (i < kMaxSamples)
        samples[i] =
            static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
}

void
setTimer(long periodUs)
{
    itimerval timer{};
    timer.it_interval.tv_usec = periodUs;
    timer.it_value.tv_usec = periodUs;
    setitimer(ITIMER_PROF, &timer, nullptr);
}

__attribute__((constructor)) void
startSampling()
{
    struct sigaction sa{};
    sa.sa_sigaction = onProf;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, nullptr);
    setTimer(kPeriodUs);
}

/**
 * Write the histogram: a header, the executable mappings (so the
 * report can turn a PC into a file address for addr2line), then one
 * "pc <hex> <count>" line per distinct PC, most-sampled first.
 */
__attribute__((destructor)) void
dumpSamples()
{
    setTimer(0);
    const std::size_t total = taken.load();
    const std::size_t kept = std::min(total, kMaxSamples);
    std::vector<std::uintptr_t> pcs(samples, samples + kept);
    std::sort(pcs.begin(), pcs.end());
    std::vector<std::pair<std::size_t, std::uintptr_t>> hist;
    for (std::size_t i = 0; i < pcs.size();) {
        std::size_t j = i;
        while (j < pcs.size() && pcs[j] == pcs[i])
            ++j;
        hist.emplace_back(j - i, pcs[i]);
        i = j;
    }
    std::sort(hist.rbegin(), hist.rend());

    const std::string path =
        "pcsample." + std::to_string(getpid()) + ".txt";
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (out == nullptr)
        return;
    std::fprintf(out, "# pcsample period_us %ld samples %zu dropped %zu\n",
                 kPeriodUs, kept, total - kept);
    if (std::FILE *maps = std::fopen("/proc/self/maps", "r")) {
        char line[4096];
        while (std::fgets(line, sizeof line, maps) != nullptr) {
            // start-end perms offset dev inode path: keep r-x maps.
            char perms[8] = {};
            if (std::sscanf(line, "%*x-%*x %7s", perms) == 1 &&
                perms[2] == 'x')
                std::fprintf(out, "map %s", line);
        }
        std::fclose(maps);
    }
    for (const auto &[count, pc] : hist)
        std::fprintf(out, "pc %lx %zu\n", static_cast<unsigned long>(pc),
                     count);
    std::fclose(out);
    std::fprintf(stderr, "pcsample: %zu samples -> %s\n", kept,
                 path.c_str());
}

} // namespace
