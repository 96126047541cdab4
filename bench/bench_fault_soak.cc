/**
 * @file
 * Nightly fault-soak driver: end-to-end attacks under randomized
 * FaultPlans.
 *
 * Each trial installs FaultPlan::randomized(seed_base + trial,
 * intensity) on a small S1 host, profiles, runs the attempt loop, and
 * prints one line with the trial's status, retry/degradation counters
 * and the number of faults the injector fired. Every line is fully
 * reproducible from its plan seed, so a failing nightly run can be
 * replayed locally with --seed-base=<seed> --trials=1.
 *
 * The exit code is non-zero only when a trial violates the degradation
 * contract (aborts instead of returning a partial-result Status); a
 * degraded or failed attack is an expected soak outcome, not an error.
 */

#include "bench_common.h"
#include "bench_json.h"

using namespace hh;
using namespace hh::bench;

namespace {

struct SoakOptions
{
    unsigned trials = 8;
    uint64_t seedBase = 1;
    /** Scales every entry's firing probability, (0, 1]. */
    double intensity = 1.0;
    /** Checkpoint each campaign every N attempts (0 = off). */
    uint64_t checkpointEvery = 0;
    /** Base path; campaign files get a "_s<plan seed>" suffix. */
    std::string checkpointPath = "fault_soak.ckpt";
    /** Restore valid checkpoints instead of starting from scratch. */
    bool resume = false;
    /** Simulated crash: stop each campaign after N attempts. */
    uint64_t killAt = 0;
    /**
     * Telemetry report (BENCH_soak.json shape) for the nightly trend
     * pipeline; empty = off. Status messages go to stderr because the
     * nightly kill/resume leg byte-diffs this binary's stdout.
     */
    std::string jsonOut;

    static SoakOptions
    parse(int argc, char **argv)
    {
        SoakOptions soak;
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            auto value = [&arg](const char *prefix) -> const char * {
                const size_t len = std::strlen(prefix);
                return arg.compare(0, len, prefix) == 0
                    ? arg.c_str() + len : nullptr;
            };
            if (const char *v = value("--trials="))
                soak.trials = static_cast<unsigned>(
                    std::strtoul(v, nullptr, 0));
            else if (const char *v2 = value("--seed-base="))
                soak.seedBase = std::strtoull(v2, nullptr, 0);
            else if (const char *v3 = value("--intensity="))
                soak.intensity = std::strtod(v3, nullptr);
            else if (const char *v4 = value("--checkpoint-every="))
                soak.checkpointEvery = std::strtoull(v4, nullptr, 0);
            else if (const char *v5 = value("--checkpoint-path="))
                soak.checkpointPath = v5;
            else if (const char *v6 = value("--kill-at="))
                soak.killAt = std::strtoull(v6, nullptr, 0);
            else if (arg == "--resume")
                soak.resume = true;
            else if (const char *v7 = value("--resume="))
                soak.resume = true, soak.checkpointPath = v7;
            else if (const char *v8 = value("--json-out="))
                soak.jsonOut = v8;
        }
        return soak;
    }
};

sys::SystemConfig
soakHostConfig(const Options &opts)
{
    sys::SystemConfig cfg = sys::SystemConfig::s1(opts.seed).withMemory(
        opts.hostBytes ? opts.hostBytes : 1_GiB);
    // Densify weak cells so attempts have material to work with at
    // this scale (same factor the orchestrator tests use).
    cfg.dram.fault.weakCellsPerRow *= 4.0;
    return cfg;
}

vm::VmConfig
soakVmConfig()
{
    vm::VmConfig cfg;
    cfg.bootMemBytes = 64_MiB;
    cfg.virtioMemRegionSize = 1_GiB;
    cfg.virtioMemPlugged = 640_MiB;
    return cfg;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opts = Options::parse(argc, argv);
    const SoakOptions soak = SoakOptions::parse(argc, argv);

    std::printf("== fault soak: %u trials, plan seeds [%llu, %llu], "
                "intensity %.2f ==\n",
                soak.trials,
                static_cast<unsigned long long>(soak.seedBase),
                static_cast<unsigned long long>(
                    soak.seedBase + soak.trials - 1),
                soak.intensity);

    JsonReport report("bench_fault_soak");
    analysis::TextTable table({"Plan seed", "Status", "Degraded",
                               "Attempts", "Retries", "Reprofiles",
                               "Faults fired"});
    unsigned successes = 0;
    unsigned degraded = 0;
    uint64_t faults_total = 0;
    for (unsigned trial = 0; trial < soak.trials; ++trial) {
        const uint64_t plan_seed = soak.seedBase + trial;
        sys::SystemConfig cfg = soakHostConfig(opts).withFaults(
            fault::FaultPlan::randomized(plan_seed, soak.intensity));
        sys::HostSystem host(cfg);

        attack::AttackConfig acfg;
        acfg.maxAttempts = opts.quick ? 2 : 4;
        acfg.steering.exhaustMappings = 2'500;
        attack::HyperHammerAttack attack(host, soakVmConfig(),
                                         host.dram().mapping(), acfg);
        attack.profilePhase();
        attack::AttackResult result;
        if (soak.checkpointEvery > 0) {
            // Checkpointed campaigns go through the Monte-Carlo
            // engine: attempts are pure per-index trials, so a run
            // killed here and resumed with --resume reproduces the
            // straight run's table bit for bit.
            snapshot::CheckpointPolicy policy;
            policy.path = soak.checkpointPath + "_s" +
                std::to_string(plan_seed);
            policy.everyTrials = soak.checkpointEvery;
            policy.resume = soak.resume;
            policy.stopAfterTrials = soak.killAt;
            result = attack.runAttempts(acfg.maxAttempts, opts.threads,
                                        policy);
        } else {
            result = attack.run();
        }

        uint64_t retries = 0;
        for (const attack::AttemptOutcome &outcome : result.outcomes)
            retries += outcome.retries;
        successes += result.success;
        degraded += result.degraded;
        faults_total += result.faultsInjected;
        table.addRow({
            std::to_string(plan_seed),
            base::errorName(result.status.error()),
            result.degraded ? "yes" : "no",
            std::to_string(result.attempts),
            std::to_string(retries),
            std::to_string(result.reprofiles),
            std::to_string(result.faultsInjected),
        });
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("soak: %u/%u attacks escalated, %u degraded, "
                "%llu faults fired\n",
                successes, soak.trials, degraded,
                static_cast<unsigned long long>(faults_total));

    if (!soak.jsonOut.empty()) {
        const double trials = soak.trials ? soak.trials : 1;
        report.set("trials", static_cast<uint64_t>(soak.trials));
        report.set("successes", static_cast<uint64_t>(successes));
        report.set("success_rate", successes / trials);
        report.set("degraded", static_cast<uint64_t>(degraded));
        report.set("degraded_rate", degraded / trials);
        report.set("faults_fired", faults_total);
        report.set("intensity", soak.intensity);
        report.set("seed_base", soak.seedBase);
        if (!report.writeFile(soak.jsonOut))
            std::fprintf(stderr, "warning: cannot write %s\n",
                         soak.jsonOut.c_str());
        else
            std::fprintf(stderr, "wrote %s\n", soak.jsonOut.c_str());
    }
    return 0;
}
