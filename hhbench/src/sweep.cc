/**
 * @file
 * Workload `sweep`: a supervised multi-process campaign.
 *
 * S1 at 1 GiB, seed 1, paper VM shape, profiled once in set-up. Each
 * round is a 36-trial campaign split into 6 six-trial shards, launched
 * in an order drawn from the seed, and run by a dispatch::Supervisor
 * whose launcher fork()s workers from this process after profiling, at
 * most 3 at a time, one thread each -- the in-process launcher of
 * bench_dispatch_soak. A worker runs runTrialRange with a checkpoint
 * after every trial and a heartbeat, saves its shard with
 * shard::saveShard and reports its own timings in a side file. The
 * supervisor merges the shards; every round's merged result must equal
 * aggregateOutcomes() of the same trials run in-process. A first,
 * untimed round warms up; timed rounds then repeat until the time is
 * up.
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>

#include <unistd.h>

#include "replay.h"

using namespace hh;

namespace hhb {

namespace {

constexpr uint64_t kRoundTrials = 36;
/**
 * Trials per shard. A shard is the latency unit, so this sets how many
 * samples a run holds and so where its tail (the 11th-highest sample)
 * falls. About 50 six-trial shards a run put it near p80: a slow spell
 * of the host must slow a fifth of the shards to move it. Two-trial
 * shards put it near p92, and slow spells moved it by a third between
 * runs.
 */
constexpr uint64_t kShardTrials = 6;
/**
 * Worker processes at once. One of the 4 cores is left to the polling
 * supervisor and the rest of the machine, which keeps the workers'
 * timings from swinging with whatever else wakes up.
 */
constexpr uint32_t kWorkers = 3;
/** Trials of the first round the traced run replays phase by phase. */
constexpr uint64_t kReplayedTrials = 4;

/** A worker's own timings, written beside its artifact. */
struct WorkerReport
{
    double rangeMs = 0.0;
    double saveMs = 0.0;
    double busyMs = 0.0;
    uint64_t checkpoints = 0;
};

std::string
reportPath(const std::string &artifact)
{
    return artifact + ".times";
}

/**
 * A round's shards: [0, kRoundTrials) in ranges of kShardTrials,
 * handed to the supervisor in a seeded order (which is the order it
 * launches them in).
 */
std::vector<shard::ShardRange>
plan(uint64_t seed, uint64_t round)
{
    const std::vector<shard::ShardRange> ranges =
        shard::planShards(kRoundTrials, kRoundTrials / kShardTrials);
    std::vector<shard::ShardRange> ordered;
    for (uint64_t index : seededOrder(ranges.size(), seed, 0x5eeb + round))
        ordered.push_back(ranges[index]);
    return ordered;
}

dispatch::SupervisorConfig
supervisorConfig(const std::string &dir)
{
    dispatch::SupervisorConfig cfg;
    cfg.ledgerPath = dir + "/ledger.bin";
    cfg.artifactDir = dir;
    cfg.leaseSeconds = 120.0;
    cfg.pollSeconds = 0.005;
    cfg.maxParallel = kWorkers;
    return cfg;
}

/** The worker body, run in a fork()ed child; never returns. */
[[noreturn]] void
runWorker(ProfiledCampaign &s, uint64_t fingerprint, const dispatch::WorkerSpec &spec)
{
    const Clock::time_point t0 = Clock::now();
    snapshot::CheckpointPolicy policy;
    policy.path = spec.checkpointPath;
    policy.everyTrials = 1;
    policy.resume = spec.resume;
    policy.heartbeatPath = spec.heartbeatPath;
    WorkerReport report;
    attack::TrialRangeResult ran;
    report.rangeMs = timedMs([&] {
        ran = s.attack->runTrialRange(spec.range.begin, spec.range.end,
                                      1, policy);
    });
    report.checkpoints = ran.outcomes.size() - ran.resumedTrials;

    shard::ShardResult piece;
    piece.manifest.campaignFingerprint = fingerprint;
    piece.manifest.totalTrials = kRoundTrials;
    piece.manifest.range = spec.range;
    piece.terminal = !ran.stopped;
    piece.outcomes = std::move(ran.outcomes);
    base::Status saved = base::Status::success();
    report.saveMs =
        timedMs([&] { saved = shard::saveShard(spec.artifactPath, piece); });
    report.busyMs = msSince(t0);

    std::ofstream out(reportPath(spec.artifactPath));
    out.precision(17);
    out << report.rangeMs << ' ' << report.saveMs << ' ' << report.busyMs
        << ' ' << report.checkpoints << '\n';
    out.close();
    ::_exit(saved.ok() && out ? 0 : 9);
}

dispatch::WorkerLauncher
launcher(ProfiledCampaign &s, uint64_t fingerprint)
{
    return [&s, fingerprint](const dispatch::WorkerSpec &spec) -> long {
        const pid_t pid = ::fork();
        if (pid == 0)
            runWorker(s, fingerprint, spec);
        return pid;
    };
}

/** The campaign set-up plus one openSweep; negative on failure. */
double
setUp(ProfiledCampaign &s, const Options &opts, Trace &trace)
{
    const Clock::time_point t0 = Clock::now();
    (void)setUpCampaign(s, trace);
    const std::string dir = opts.workDir + "/setup";
    std::filesystem::create_directories(dir);
    const uint64_t fingerprint = s.attack->campaignFingerprint();
    dispatch::Supervisor sup(supervisorConfig(dir),
                             launcher(s, fingerprint));
    const base::Status opened =
        sup.openSweep(fingerprint, kRoundTrials, plan(opts.seed, 0), false);
    const double seconds = secondsSince(t0);
    std::filesystem::remove_all(dir);
    return opened.ok() ? seconds : -1.0;
}

} // namespace

RunResult
runSweep(const Options &opts)
{
    RunResult r(opts.trace);
    r.unit = "shard";
    Trace &trace = r.trace;
    ProfiledCampaign s(paperWorld(1_GiB));
    std::filesystem::remove_all(opts.workDir);
    for (unsigned i = 0; i < kSetupRepeats; ++i) {
        const double seconds = setUp(s, opts, trace);
        if (seconds < 0) {
            r.fail("openSweep failed during set-up");
            return r;
        }
        r.setupSeconds.push_back(seconds);
    }
    trace.count("attack.profile_combinations", s.profile.combinations);
    trace.count("attack.profiled_bits", s.attack->hostProfile().size());
    const uint64_t fingerprint = s.attack->campaignFingerprint();

    std::vector<attack::AttackResult> merged_rounds;
    double swept_seconds = 0.0;
    // Round 0 is checked but not timed: the first workers forked after
    // set-up ran about three times slower than every later one.
    Trace untimed(false);
    Clock::time_point t0 = Clock::now();
    for (uint64_t round = 0; round <= 1 || secondsSince(t0) < opts.seconds;
         ++round) {
        const bool timed = round > 0;
        Trace &spans = timed ? trace : untimed;
        if (round == 1)
            t0 = Clock::now();
        const std::string dir =
            opts.workDir + "/round" + std::to_string(round);
        std::filesystem::create_directories(dir);
        const std::vector<shard::ShardRange> ranges =
            plan(opts.seed, round);
        dispatch::Supervisor sup(supervisorConfig(dir),
                                 launcher(s, fingerprint));
        base::Status opened = base::Status::success();
        const double open_ms = spans.span("dispatch.open_sweep_ms", [&] {
            opened = sup.openSweep(fingerprint, kRoundTrials, ranges,
                                   false);
        });
        base::Expected<shard::SweepReport> swept = base::ErrorCode::NotFound;
        const double run_ms = spans.span("dispatch.run_sweep_ms", [&] {
            if (opened.ok())
                swept = sup.runSweep();
        });
        if (timed) {
            swept_seconds += (open_ms + run_ms) / 1e3;
            r.trials += kRoundTrials;
            r.throughputUnits += kRoundTrials;
        }
        if (!opened.ok() || !swept || swept->partial()) {
            r.fail("round " + std::to_string(round)
                   + ": supervised sweep did not complete");
            std::filesystem::remove_all(dir);
            continue;
        }
        merged_rounds.push_back(swept->result);

        // Worker-side timings; a shard's latency is its worker's busy
        // time (runTrialRange plus saveShard).
        double busy_ms = 0.0;
        uint64_t checkpoints = 0;
        std::vector<shard::ShardResult> loaded;
        for (const dispatch::ShardJob &job : sup.ledger().jobs) {
            const std::string artifact = sup.artifactPath(job.index);
            std::ifstream in(reportPath(artifact));
            WorkerReport w;
            if (!(in >> w.rangeMs >> w.saveMs >> w.busyMs
                  >> w.checkpoints)) {
                r.fail("shard " + std::to_string(job.index)
                       + ": worker left no timings");
                continue;
            }
            if (timed)
                r.unitMs.push_back(w.busyMs);
            spans.add("attack.trial_range_ms", w.rangeMs);
            spans.add("shard.save_ms", w.saveMs);
            busy_ms += w.busyMs;
            checkpoints += w.checkpoints;
            if (opts.trace) {
                auto artifact_loaded = shard::loadShard(artifact);
                if (artifact_loaded)
                    loaded.push_back(std::move(*artifact_loaded));
            }
        }
        spans.add("dispatch.worker_busy_frac",
                  busy_ms / (kWorkers * run_ms));
        spans.add("dispatch.ledger_saves",
                  static_cast<double>(sup.stats().ledgerSaves));
        if (opts.trace) {
            base::Expected<attack::AttackResult> remerged =
                base::ErrorCode::NotFound;
            spans.span("shard.merge_ms", [&] {
                remerged = shard::mergeShards(std::move(loaded));
            });
            r.check(remerged.ok()
                    && snapshot::diffAttackResults(*remerged, swept->result)
                           .empty());
        }
        if (round == 0) {
            trace.count("dispatch.shards", ranges.size());
            trace.count("dispatch.launches", sup.stats().launches);
            trace.count("dispatch.retries", sup.stats().retries);
            trace.count("snapshot.checkpoints", checkpoints);
        }
        std::filesystem::remove_all(dir);
    }
    r.throughputSeconds = swept_seconds;
    std::filesystem::remove_all(opts.workDir);

    // The same trials in-process: every round's merge must equal it.
    attack::TrialRangeResult reference_range = s.attack->runTrialRange(
        0, kRoundTrials, kWorkers, snapshot::CheckpointPolicy{});
    const attack::AttackResult reference =
        attack::HyperHammerAttack::aggregateOutcomes(
            std::move(reference_range.outcomes));
    for (const attack::AttackResult &merged : merged_rounds)
        r.check(snapshot::diffAttackResults(merged, reference).empty());

    if (opts.trace) {
        const TrialWorld world = trialWorldOf(*s.host, s.world.vm,
                                              s.world.attack, *s.attack);
        const uint64_t replayed =
            std::min<uint64_t>(kReplayedTrials, reference.outcomes.size());
        for (uint64_t trial = 0; trial < replayed; ++trial) {
            attack::AttemptOutcome orchestrated;
            const bool same = checkedReplay(*s.attack, world, trial, trace,
                                            true, orchestrated);
            if (!same
                || outcomeBytes(orchestrated)
                    != outcomeBytes(reference.outcomes[trial]))
                r.fail("trial " + std::to_string(trial)
                       + ": replayed outcome differs from the "
                         "orchestrator's");
        }
    }
    return r;
}

} // namespace hhb
