/**
 * @file
 * Workload `campaign`: single-thread attack trials on a world where the
 * whole flip -> EPTE -> escalation chain runs.
 *
 * S1 at 2 GiB, seed 1, paper VM shape: a full profile finds 5 bits and
 * trials land ~0.7 changed pages each. Set-up (host build, profilePhase,
 * trial-template build) runs kSetupRepeats times; then trials run one
 * at a time through runTrialRange(i, i + 1) in a seeded order of the
 * pinned trial indices until the time is up. Each trial's outcome
 * digest must match the pinned reference. The traced run replays every
 * trial phase by phase and requires the replay to match.
 */

#include <cstdio>
#include <cstdlib>
#include <memory>

#include "replay.h"

using namespace hh;

namespace hhb {

namespace {

/** Trial indices with a pinned outcome digest. */
constexpr uint64_t kPinnedTrials = 256;
/** Traced runs sum counts over this many leading trials. */
constexpr uint64_t kCountedTrials = 8;

const char *const kReferenceFile = "/campaign.txt";

attack::TrialRangeResult
oneTrial(attack::HyperHammerAttack &campaign, uint64_t trial)
{
    return campaign.runTrialRange(trial, trial + 1, 1,
                                  snapshot::CheckpointPolicy{});
}

} // namespace

RunResult
runCampaign(const Options &opts)
{
    RunResult r(opts.trace);
    r.unit = "trial";
    ProfiledCampaign c(paperWorld(2_GiB));
    for (unsigned i = 0; i < kSetupRepeats; ++i)
        r.setupSeconds.push_back(setUpCampaign(c, r.trace));

    const uint64_t bits = c.attack->hostProfile().size();
    r.trace.count("attack.profile_combinations", c.profile.combinations);
    r.trace.count("attack.profiled_bits", bits);
    if (bits == 0) {
        r.fail("the profile found no exploitable bits: the run would "
               "never reach the exploit path");
        return r;
    }

    const auto reference =
        readKeyValues(opts.referenceDir + kReferenceFile);
    const auto pinned_fp = reference.find("fingerprint");
    if (pinned_fp == reference.end()
        || pinned_fp->second != hex(c.attack->campaignFingerprint())) {
        r.fail("campaign fingerprint does not match the pinned "
               "reference in " + opts.referenceDir + kReferenceFile);
        return r;
    }

    TrialWorld world;
    if (opts.trace)
        world = trialWorldOf(*c.host, c.world.vm, c.world.attack,
                             *c.attack);

    const std::vector<uint64_t> order =
        seededOrder(kPinnedTrials, opts.seed, 0xca3a1);
    uint64_t changed_pages = 0;
    const Clock::time_point t0 = Clock::now();
    for (uint64_t k = 0; secondsSince(t0) < opts.seconds
         || (opts.trace && k < kCountedTrials);
         ++k) {
        const uint64_t trial = order[k % order.size()];
        attack::AttemptOutcome outcome;
        bool ran = true;
        if (opts.trace) {
            const bool same = checkedReplay(*c.attack, world, trial,
                                            r.trace, k < kCountedTrials,
                                            outcome);
            r.unitMs.push_back(r.trace.spans["attack.trial_ms"].back());
            if (!same)
                r.fail("trial " + std::to_string(trial)
                       + ": replayed outcome differs from the "
                         "orchestrator's");
        } else {
            attack::TrialRangeResult range;
            r.unitMs.push_back(
                timedMs([&] { range = oneTrial(*c.attack, trial); }));
            ran = range.outcomes.size() == 1;
            if (ran)
                outcome = range.outcomes.front();
        }
        const auto pinned = reference.find(std::to_string(trial));
        r.check(ran && pinned != reference.end()
                && pinned->second == hex(outcomeDigest(outcome)));
        changed_pages += outcome.changedPages;
        ++r.trials;
    }
    r.throughputSeconds = secondsSince(t0);
    r.throughputUnits = r.trials;

    if (changed_pages == 0)
        r.fail("no trial changed a page mapping: the run never reached "
               "the flip -> EPTE path");
    return r;
}

int
pinCampaign(const Options &opts)
{
    Trace trace(false);
    ProfiledCampaign c(paperWorld(2_GiB));
    (void)setUpCampaign(c, trace);
    const std::string path = opts.referenceDir + kReferenceFile;
    FILE *out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return 1;
    }
    std::fprintf(out,
                 "# Outcome digests (FNV-1a of writeOutcome) of the "
                 "campaign workload's trials:\n"
                 "# S1, 2 GiB, seed 1, paper VM shape, full profile.\n"
                 "# Regenerate with: hhbench --pin campaign\n");
    std::fprintf(out, "fingerprint %s\n",
                 hex(c.attack->campaignFingerprint()).c_str());
    uint64_t changed = 0;
    for (uint64_t trial = 0; trial < kPinnedTrials; ++trial) {
        const attack::TrialRangeResult range = oneTrial(*c.attack, trial);
        if (range.outcomes.size() != 1) {
            std::fprintf(stderr, "trial %llu produced no outcome\n",
                         static_cast<unsigned long long>(trial));
            std::fclose(out);
            return 1;
        }
        changed += range.outcomes.front().changedPages;
        std::fprintf(out, "%llu %s\n",
                     static_cast<unsigned long long>(trial),
                     hex(outcomeDigest(range.outcomes.front())).c_str());
    }
    std::fclose(out);
    std::printf("pinned %llu trials: %zu profiled bits, %.3f changed "
                "pages per trial\n",
                static_cast<unsigned long long>(kPinnedTrials),
                c.attack->hostProfile().size(),
                static_cast<double>(changed) / kPinnedTrials);
    return 0;
}

} // namespace hhb
