/**
 * @file
 * Minimal JSON metrics reporter for the perf-smoke benches.
 *
 * A bench collects flat key -> number (or string) metrics into a
 * JsonReport and writes them as one sorted JSON object, e.g.
 * BENCH_clone.json / BENCH_table3.json. tools/check_bench.py diffs the
 * gated ratio metrics against the checked-in baseline in
 * bench/baselines/ and fails CI on a >20% regression.
 *
 * This header is the one sanctioned wall-clock site outside
 * src/base/sim_clock.*: perf metrics measure the host, not the
 * simulation, so they must NOT be charged to virtual time (and they
 * never feed back into simulated behaviour -- the determinism
 * guarantee is about simulation state, not about how long the host
 * took to compute it). The hh-lint wall-clock exemption for this file
 * lives in .hh-lint.toml.
 */

#ifndef HYPERHAMMER_BENCH_BENCH_JSON_H
#define HYPERHAMMER_BENCH_BENCH_JSON_H

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <variant>

namespace hh::bench {

/** Host wall-clock stopwatch (perf measurement only; see @file). */
class WallTimer
{
  public:
    WallTimer() : start(std::chrono::steady_clock::now()) {}

    /** Seconds since construction (or the last restart()). */
    double
    seconds() const
    {
        const auto now = std::chrono::steady_clock::now();
        return std::chrono::duration<double>(now - start).count();
    }

    void restart() { start = std::chrono::steady_clock::now(); }

  private:
    std::chrono::steady_clock::time_point start;
};

/**
 * Started during static initialisation, before main() runs, so it
 * times the whole process: the JsonReport envelope's env_wall_seconds.
 */
inline const WallTimer processTimer;

/** Peak resident set size of this process so far, in bytes. */
inline uint64_t
peakRssBytes()
{
    struct rusage usage = {};
    if (getrusage(RUSAGE_SELF, &usage) != 0)
        return 0;
    // Linux reports ru_maxrss in KiB.
    return static_cast<uint64_t>(usage.ru_maxrss) * 1024;
}

/**
 * The commit the running binary was built from: $GITHUB_SHA under CI,
 * else `git rev-parse HEAD`, else "unknown". Trend tooling
 * (tools/bench_trend.py) keys history rows on it.
 */
inline std::string
gitSha()
{
    if (const char *sha = std::getenv("GITHUB_SHA"))
        return sha;
    std::string out;
    if (std::FILE *p = ::popen("git rev-parse HEAD 2>/dev/null", "r")) {
        char buf[128];
        if (std::fgets(buf, sizeof buf, p) != nullptr) {
            buf[std::strcspn(buf, "\n")] = '\0';
            out = buf;
        }
        ::pclose(p);
    }
    return out.empty() ? "unknown" : out;
}

/**
 * Flat JSON object writer: set() metrics, then writeFile(). Keys are
 * emitted sorted so reports diff cleanly.
 *
 * Constructing with a bench name opts into the standard telemetry
 * envelope: every report gains env_bench, env_git_sha,
 * env_schema_version, env_wall_seconds (seconds from process start
 * to render, whenever the report was constructed) and
 * env_peak_rss_bytes, plus env_config_fingerprint when
 * the bench calls setConfigFingerprint(). The env_ prefix keeps
 * envelope keys disjoint from metric keys, so gating and trend
 * tooling can tell the two apart mechanically.
 */
class JsonReport
{
  public:
    JsonReport() = default;

    explicit JsonReport(const std::string &bench_name)
        : benchName(bench_name), envelope(true)
    {
    }

    /** Stamp the campaign/config identity into the envelope. */
    void
    setConfigFingerprint(uint64_t fingerprint)
    {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%016llx",
                      static_cast<unsigned long long>(fingerprint));
        configFingerprint = buf;
    }

    void set(const std::string &key, double value) { values[key] = value; }
    void
    set(const std::string &key, uint64_t value)
    {
        values[key] = static_cast<double>(value);
    }
    void
    set(const std::string &key, const std::string &value)
    {
        values[key] = value;
    }

    /** Render the report as a pretty-printed JSON object. */
    std::string
    render() const
    {
        // Merge the envelope into a copy so render() stays const and
        // repeatable; wall/RSS are sampled at render time (the whole
        // bench run, not a sub-phase).
        std::map<std::string, std::variant<double, std::string>>
            merged = values;
        if (envelope) {
            merged["env_bench"] = benchName;
            merged["env_git_sha"] = gitSha();
            merged["env_schema_version"] = 1.0;
            merged["env_wall_seconds"] = processTimer.seconds();
            merged["env_peak_rss_bytes"] =
                static_cast<double>(peakRssBytes());
            if (!configFingerprint.empty())
                merged["env_config_fingerprint"] = configFingerprint;
        }
        std::string out = "{\n";
        for (auto it = merged.begin(); it != merged.end(); ++it) {
            out += "  \"" + it->first + "\": ";
            if (const double *num = std::get_if<double>(&it->second)) {
                char buf[64];
                // %.17g round-trips doubles; trim to a clean integer
                // spelling when the value is integral.
                if (*num == static_cast<uint64_t>(*num)
                    && *num >= 0 && *num < 1e15) {
                    std::snprintf(buf, sizeof buf, "%llu",
                                  static_cast<unsigned long long>(*num));
                } else {
                    std::snprintf(buf, sizeof buf, "%.17g", *num);
                }
                out += buf;
            } else {
                out += "\"" + std::get<std::string>(it->second) + "\"";
            }
            out += std::next(it) != merged.end() ? ",\n" : "\n";
        }
        out += "}\n";
        return out;
    }

    /** Write the report to @p path; returns false on I/O failure. */
    bool
    writeFile(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (f == nullptr)
            return false;
        const std::string text = render();
        const bool ok =
            std::fwrite(text.data(), 1, text.size(), f) == text.size();
        return (std::fclose(f) == 0) && ok;
    }

  private:
    std::map<std::string, std::variant<double, std::string>> values;
    std::string benchName;
    std::string configFingerprint;
    bool envelope = false;
};

} // namespace hh::bench

#endif // HYPERHAMMER_BENCH_BENCH_JSON_H
