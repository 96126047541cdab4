/**
 * @file
 * Shared plumbing for the repository benchmark: options, the span and
 * count recorder, the raw result a workload hands back, and the pinned
 * world configurations.
 *
 * The benchmark times the simulator from outside: every span wraps a
 * call into a public function, and every count is read through a
 * public accessor. Nothing in src/ is instrumented.
 */

#ifndef HHBENCH_BENCH_H
#define HHBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "hyperhammer/hyperhammer.h"

namespace hhb {

using Clock = std::chrono::steady_clock;

inline double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

inline double
secondsSince(Clock::time_point t0)
{
    return msSince(t0) / 1e3;
}

/** Wall time of @p f in milliseconds. */
template <class F>
double
timedMs(F &&f)
{
    const Clock::time_point t0 = Clock::now();
    f();
    return msSince(t0);
}

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string referenceDir = "hhbench/reference";
    /** Scratch directory for sweep artifacts (inside the checkout). */
    std::string workDir = ".bench_build/work";
};

/**
 * Wall-clock spans and deterministic counts, recorded by the
 * benchmark's own code around public calls. Spans keep every sample;
 * the reporting side reduces them.
 */
class Trace
{
  public:
    explicit Trace(bool enabled) : on(enabled) {}

    /** Time @p f and, when tracing, record it under @p name. */
    template <class F>
    double
    span(const std::string &name, F &&f)
    {
        const double ms = timedMs(f);
        add(name, ms);
        return ms;
    }

    void
    add(const std::string &name, double value)
    {
        if (on)
            spans[name].push_back(value);
    }

    /** Accumulate a deterministic count. */
    void
    count(const std::string &name, uint64_t n)
    {
        if (on)
            counts[name] += n;
    }

    std::map<std::string, std::vector<double>> spans;
    std::map<std::string, uint64_t> counts;

  private:
    bool on;
};

/** What a workload measured, before reduction to metrics. */
struct RunResult
{
    explicit RunResult(bool trace) : trace(trace) {}

    /** What one timed unit is ("trial", "cell", "shard"). */
    std::string unit;
    /** Output checks made, and how many failed. */
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** Loud failures that void the run (each also counts as failed). */
    std::vector<std::string> errors;
    /** One sample per repeated set-up, seconds. */
    std::vector<double> setupSeconds;
    /** Latency of each timed unit, milliseconds. */
    std::vector<double> unitMs;
    /** Units completed in the throughput window and its length. */
    uint64_t throughputUnits = 0;
    double throughputSeconds = 0.0;
    /** Trials the run executed (every workload runs trials). */
    uint64_t trials = 0;
    Trace trace;

    void
    check(bool ok)
    {
        ++attempted;
        if (!ok)
            ++failed;
    }

    void
    fail(const std::string &why)
    {
        ++attempted;
        ++failed;
        errors.push_back(why);
    }
};

/** Set-ups per run; setup_s is their median. */
constexpr unsigned kSetupRepeats = 3;

/** A simulated world: host, attacker VM and attack tunables. */
struct World
{
    hh::sys::SystemConfig host;
    hh::vm::VmConfig vm;
    hh::attack::AttackConfig attack;
};

/** S1 at @p bytes, paper VM shape (boot 1/16, plugged 12/16). */
World paperWorld(uint64_t bytes);

/** The calibrated 1 GiB quick configuration of experiment E11. */
hh::mitigate::MatrixSpec quickMatrixSpec();

/** Largest resident set of this process or any reaped child, MiB. */
double peakRssMb();

/** Seeded Fisher-Yates permutation of [0, n). */
std::vector<uint64_t> seededOrder(uint64_t n, uint64_t seed,
                                  uint64_t salt);

/** @p v as 16 hex digits, the form the reference files use. */
std::string hex(uint64_t v);

/** Read "key value" lines; '#' starts a comment. */
std::map<std::string, std::string> readKeyValues(const std::string &path);

RunResult runCampaign(const Options &opts);
RunResult runMatrix(const Options &opts);
RunResult runSweep(const Options &opts);

int pinCampaign(const Options &opts);
int pinMatrix(const Options &opts);

} // namespace hhb

#endif // HHBENCH_BENCH_H
