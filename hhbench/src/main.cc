/**
 * @file
 * hhbench: the repository benchmark's measuring binary.
 *
 *   hhbench --workload campaign|matrix|sweep --seed N --seconds S
 *           --trace 0|1 [--reference-dir DIR] [--work-dir DIR]
 *   hhbench --pin campaign|matrix [--reference-dir DIR]
 *
 * Prints one JSON object of raw samples (set-up times, unit latencies,
 * spans, counts) as its last line; hhbench/run.py reduces it to the
 * benchmark's metrics. Exit status is 0 whenever the run completed,
 * even if an output check failed -- the checks travel in the JSON.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

namespace {

void
usage()
{
    std::fprintf(stderr,
                 "usage: hhbench --workload campaign|matrix|sweep "
                 "--seed N --seconds S --trace 0|1 [--reference-dir DIR]"
                 " [--work-dir DIR]\n"
                 "       hhbench --pin campaign|matrix "
                 "[--reference-dir DIR]\n");
}

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += (c == '\n' || c == '\t') ? ' ' : c;
    }
    return out + "\"";
}

std::string
number(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
numbers(const std::vector<double> &values)
{
    std::string out = "[";
    for (size_t i = 0; i < values.size(); ++i) {
        if (i > 0)
            out += ',';
        out += number(values[i]);
    }
    return out + "]";
}

void
emit(const hhb::Options &opts, const hhb::RunResult &r)
{
    std::string out = "{";
    out += "\"workload\":" + quoted(opts.workload);
    out += ",\"seed\":" + std::to_string(opts.seed);
    out += ",\"trace\":" + std::string(opts.trace ? "true" : "false");
    out += ",\"unit\":" + quoted(r.unit);
    out += ",\"attempted\":" + std::to_string(r.attempted);
    out += ",\"failed\":" + std::to_string(r.failed);
    out += ",\"errors\":[";
    for (size_t i = 0; i < r.errors.size(); ++i) {
        if (i > 0)
            out += ',';
        out += quoted(r.errors[i]);
    }
    out += "]";
    out += ",\"setup_s\":" + numbers(r.setupSeconds);
    out += ",\"unit_ms\":" + numbers(r.unitMs);
    out += ",\"throughput_units\":" + std::to_string(r.throughputUnits);
    out += ",\"throughput_seconds\":" + number(r.throughputSeconds);
    out += ",\"trials\":" + std::to_string(r.trials);
    out += ",\"peak_rss_mb\":" + number(hhb::peakRssMb());
    out += ",\"spans\":{";
    const char *sep = "";
    for (const auto &[name, samples] : r.trace.spans) {
        out += sep;
        out += quoted(name) + ":" + numbers(samples);
        sep = ",";
    }
    out += "},\"counts\":{";
    sep = "";
    for (const auto &[name, n] : r.trace.counts) {
        out += sep;
        out += quoted(name) + ":" + std::to_string(n);
        sep = ",";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
}

} // namespace

int
main(int argc, char **argv)
{
    hhb::Options opts;
    std::string pin;
    bool have_seed = false;
    bool have_seconds = false;
    bool have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc) {
            usage();
            return 2;
        }
        const std::string value = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            opts.workload = value;
        } else if (arg == "--pin") {
            pin = value;
        } else if (arg == "--seed") {
            opts.seed = std::strtoull(value.c_str(), &end, 10);
            have_seed = *end == '\0' && !value.empty();
        } else if (arg == "--seconds") {
            opts.seconds = std::strtod(value.c_str(), &end);
            have_seconds = *end == '\0' && opts.seconds > 0
                && opts.seconds <= 3600;
        } else if (arg == "--trace") {
            have_trace = value == "0" || value == "1";
            opts.trace = value == "1";
        } else if (arg == "--reference-dir") {
            opts.referenceDir = value;
        } else if (arg == "--work-dir") {
            opts.workDir = value;
        } else {
            usage();
            return 2;
        }
    }

    if (!pin.empty()) {
        opts.workload = pin;
        if (pin == "campaign")
            return hhb::pinCampaign(opts);
        if (pin == "matrix")
            return hhb::pinMatrix(opts);
        usage();
        return 2;
    }
    if (!have_seed || !have_seconds || !have_trace) {
        usage();
        return 2;
    }

    hhb::RunResult result(opts.trace);
    if (opts.workload == "campaign") {
        result = hhb::runCampaign(opts);
    } else if (opts.workload == "matrix") {
        result = hhb::runMatrix(opts);
    } else if (opts.workload == "sweep") {
        result = hhb::runSweep(opts);
    } else {
        usage();
        return 2;
    }
    for (const std::string &error : result.errors)
        std::fprintf(stderr, "hhbench: %s: %s\n", opts.workload.c_str(),
                     error.c_str());
    emit(opts, result);
    return 0;
}
