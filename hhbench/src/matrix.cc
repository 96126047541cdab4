/**
 * @file
 * Workload `matrix`: the E11 quick mitigation matrix, cell by cell.
 *
 * 6 defenses x 2 attacks on the calibrated 1 GiB host, 8 trials a
 * cell. Every cell profiles its own defended world, so the workload is
 * profile-bound and drives the mitigate layer and the Siloz/CATT
 * buddy layouts. A pass runs all 12 cells through mitigate::runMatrix
 * (single-cell specs, four in flight, issued in a seeded order) and
 * reassembles them in canonical order; the pass's
 * MatrixResult::fingerprint() must equal the pinned one. Passes repeat
 * until the time is up.
 *
 * The traced run replays each cell through its public steps --
 * makeDefenseSet, host build, configure, profilePhase, runTrialRange,
 * mergeShards -- and replays the first trials of each cell phase by
 * phase.
 */

#include <cstdio>
#include <mutex>
#include <thread>

#include "replay.h"

using namespace hh;

namespace hhb {

namespace {

const char *const kReferenceFile = "/matrix.txt";
/** Trials of each cell the traced run replays phase by phase. */
constexpr uint64_t kReplayedTrialsPerCell = 2;
/**
 * Admission takes tens of milliseconds, where one-off page faults are
 * a large share, so it is repeated more often than the other set-ups.
 */
constexpr unsigned kAdmissionRepeats = 9;
/** Cells in flight at once in the measured run (nproc = 4). */
constexpr unsigned kMatrixWorkers = 4;

struct CellKey
{
    std::string defense;
    std::string attackName;
};

std::vector<CellKey>
cellsOf(const mitigate::MatrixSpec &spec)
{
    std::vector<CellKey> cells;
    for (const std::string &defense : spec.defenses)
        for (const std::string &attack_name : spec.attacks)
            cells.push_back({defense, attack_name});
    return cells;
}

/**
 * Set-up: admit every defense against the host before the sweep --
 * build its defense set and defended host and run configure(), the
 * checks that would otherwise fail a matrix half way through.
 */
double
admitDefenses(const mitigate::MatrixSpec &spec, RunResult &r)
{
    const Clock::time_point t0 = Clock::now();
    for (const std::string &defense : spec.defenses) {
        auto set = mitigate::makeDefenseSet(defense);
        if (!set) {
            r.fail("unknown defense '" + defense + "'");
            continue;
        }
        sys::SystemConfig host_cfg = spec.hosts.front();
        set->applyHostConfig(host_cfg);
        sys::HostSystem host(host_cfg);
        if (!set->configure(host).ok())
            r.fail("defense '" + defense + "' rejected the host");
    }
    return secondsSince(t0);
}

/**
 * One cell through its public steps, mirroring runMatrix's cell
 * runner, with a span around each step and the first trials replayed.
 */
base::Expected<mitigate::MatrixCell>
replayCell(const mitigate::MatrixSpec &spec, const CellKey &key,
           RunResult &r, bool count)
{
    Trace &trace = r.trace;
    base::Expected<mitigate::DefenseSet> made = base::ErrorCode::NotFound;
    trace.span("mitigate.make_defense_ms",
               [&] { made = mitigate::makeDefenseSet(key.defense); });
    if (!made)
        return made.error();
    mitigate::DefenseSet &set = *made;

    sys::SystemConfig host_cfg = spec.hosts.front();
    set.applyHostConfig(host_cfg);
    vm::VmConfig vm_cfg = spec.vm;
    set.applyVmConfig(vm_cfg);
    attack::AttackConfig attack_cfg = spec.attack;
    attack_cfg.exploit.combinedHammer = key.attackName == "combined";

    std::unique_ptr<sys::HostSystem> host;
    trace.span("sys.host_build_ms", [&] {
        host = std::make_unique<sys::HostSystem>(host_cfg);
    });
    base::Status configured = base::Status::success();
    trace.span("mitigate.configure_ms",
               [&] { configured = set.configure(*host); });
    if (!configured.ok())
        return configured.error();

    attack::HyperHammerAttack campaign(*host, vm_cfg,
                                       host->dram().mapping(), attack_cfg);
    campaign.attachDefenses(&set);
    attack::ProfileResult profile;
    trace.span("attack.profile_ms",
               [&] { profile = campaign.profilePhase(); });
    if (count) {
        trace.count("attack.profile_combinations", profile.combinations);
        trace.count("attack.profiled_bits", campaign.hostProfile().size());
    }

    mitigate::MatrixCell cell;
    cell.host = spec.hosts.front().name;
    cell.defense = set.label();
    cell.attackName = key.attackName;
    cell.profiledBits = campaign.hostProfile().size();
    cell.overhead = set.overhead();
    cell.campaignFingerprint = campaign.campaignFingerprint();

    std::vector<shard::ShardResult> pieces;
    for (const shard::ShardRange &range :
         shard::planShards(spec.trials, spec.shards)) {
        attack::TrialRangeResult ran;
        trace.span("attack.trial_range_ms", [&] {
            ran = campaign.runTrialRange(range.begin, range.end,
                                         spec.threads,
                                         snapshot::CheckpointPolicy{});
        });
        shard::ShardResult piece;
        piece.manifest.campaignFingerprint = cell.campaignFingerprint;
        piece.manifest.totalTrials = spec.trials;
        piece.manifest.range = range;
        piece.outcomes = std::move(ran.outcomes);
        pieces.push_back(std::move(piece));
    }
    base::Expected<attack::AttackResult> merged = base::ErrorCode::NotFound;
    trace.span("shard.merge_ms",
               [&] { merged = shard::mergeShards(std::move(pieces)); });
    if (!merged)
        return merged.error();

    cell.success = merged->success;
    cell.attempts = merged->attempts;
    cell.releasedSubBlocks =
        static_cast<uint64_t>(merged->stats.releasedSubBlocks.sum());
    cell.flippedMappings =
        static_cast<uint64_t>(merged->stats.changedPages.sum());
    cell.epteCandidates =
        static_cast<uint64_t>(merged->stats.epteCandidates.sum());
    cell.successRate = merged->attempts > 0
        ? (merged->success ? 1.0 : 0.0)
            / static_cast<double>(merged->attempts)
        : 0.0;
    cell.avgAttemptSeconds = merged->avgAttemptSeconds();

    // Phase-by-phase replay of the cell's first trials in its
    // defended world; each must match the cell's own outcome.
    const TrialWorld world =
        trialWorldOf(*host, vm_cfg, attack_cfg, campaign);
    const uint64_t replayed = std::min<uint64_t>(
        kReplayedTrialsPerCell, merged->outcomes.size());
    for (uint64_t trial = 0; trial < replayed; ++trial) {
        attack::AttemptOutcome orchestrated;
        const bool same = checkedReplay(campaign, world, trial, trace,
                                        count, orchestrated);
        if (!same
            || outcomeBytes(orchestrated)
                != outcomeBytes(merged->outcomes[trial]))
            r.fail("cell " + key.defense + "/" + key.attackName
                   + " trial " + std::to_string(trial)
                   + ": replayed outcome differs from the "
                     "orchestrator's");
    }
    return cell;
}

} // namespace

RunResult
runMatrix(const Options &opts)
{
    RunResult r(opts.trace);
    r.unit = "cell";
    const mitigate::MatrixSpec spec = quickMatrixSpec();
    const std::vector<CellKey> cells = cellsOf(spec);

    for (unsigned i = 0; i < kAdmissionRepeats; ++i)
        r.setupSeconds.push_back(admitDefenses(spec, r));

    const auto reference =
        readKeyValues(opts.referenceDir + kReferenceFile);
    const auto pinned = reference.find("fingerprint");
    if (pinned == reference.end()) {
        r.fail("no pinned fingerprint in " + opts.referenceDir
               + kReferenceFile);
        return r;
    }

    // Cells are issued pass by pass, each pass in its own seeded
    // order; a new pass starts only while time remains, and every
    // issued pass runs to completion so its fingerprint can be checked.
    std::mutex mu;
    uint64_t issued = 0;
    std::vector<mitigate::MatrixResult> passes;
    std::vector<std::vector<uint64_t>> orders;
    std::vector<std::string> failures;
    const Clock::time_point t0 = Clock::now();

    auto worker = [&] {
        for (;;) {
            uint64_t pass = 0;
            uint64_t index = 0;
            {
                std::lock_guard<std::mutex> lock(mu);
                if (issued % cells.size() == 0) {
                    if (issued > 0 && secondsSince(t0) >= opts.seconds)
                        return;
                    orders.push_back(seededOrder(cells.size(), opts.seed,
                                                 0x3a7 + orders.size()));
                    passes.emplace_back();
                    passes.back().cells.resize(cells.size());
                }
                pass = issued / cells.size();
                index = orders[pass][issued % cells.size()];
                ++issued;
            }
            const CellKey &key = cells[index];
            base::Expected<mitigate::MatrixCell> cell =
                base::ErrorCode::NotFound;
            const double ms = timedMs([&] {
                if (opts.trace) {
                    cell = replayCell(spec, key, r, pass == 0);
                    return;
                }
                mitigate::MatrixSpec one = spec;
                one.defenses = {key.defense};
                one.attacks = {key.attackName};
                auto ran = mitigate::runMatrix(one);
                if (ran && ran->cells.size() == 1)
                    cell = ran->cells.front();
            });
            std::lock_guard<std::mutex> lock(mu);
            r.unitMs.push_back(ms);
            if (!cell) {
                failures.push_back("cell " + key.defense + "/"
                                   + key.attackName + " failed");
                continue;
            }
            r.trials += cell->attempts;
            passes[pass].cells[index] = std::move(*cell);
        }
    };
    // The traced run replays cells one at a time, so its spans are not
    // inflated by contention and replayCell() may touch r unlocked; the
    // measured run uses every core.
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < (opts.trace ? 1u : kMatrixWorkers); ++t)
        threads.emplace_back(worker);
    for (std::thread &thread : threads)
        thread.join();
    r.throughputSeconds = secondsSince(t0);
    r.throughputUnits = issued;

    for (const std::string &failure : failures)
        r.fail(failure);
    for (const mitigate::MatrixResult &pass : passes)
        r.check(hex(pass.fingerprint()) == pinned->second);
    return r;
}

int
pinMatrix(const Options &opts)
{
    mitigate::MatrixSpec spec = quickMatrixSpec();
    auto result = mitigate::runMatrix(spec);
    if (!result) {
        std::fprintf(stderr, "matrix failed\n");
        return 1;
    }
    const std::string path = opts.referenceDir + kReferenceFile;
    FILE *out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return 1;
    }
    std::fprintf(out,
                 "# MatrixResult::fingerprint() of the E11 quick matrix\n"
                 "# (bench_mitigation_matrix --quick --seed=1).\n"
                 "# Regenerate with: hhbench --pin matrix\n"
                 "fingerprint %s\n",
                 hex(result->fingerprint()).c_str());
    std::fclose(out);
    std::printf("pinned matrix fingerprint %s\n",
                hex(result->fingerprint()).c_str());
    return 0;
}

} // namespace hhb
