/**
 * @file
 * Phase-by-phase replay of one attack trial through public calls.
 *
 * HyperHammerAttack::runTrialRange() runs a trial as one opaque call.
 * The replay re-executes the same trial -- fork the world, plant the
 * secret, spawn the VM, relocate the profile, steer, mark, hammer,
 * detect, escalate, tear down -- with a span around each public call,
 * and its AttemptOutcome must equal the orchestrator's for the same
 * trial index. The replay mirrors the fault-free path only.
 */

#ifndef HHBENCH_REPLAY_H
#define HHBENCH_REPLAY_H

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "bench.h"

namespace hhb {

/** A profiled campaign on its own host, ready to run trials. */
struct ProfiledCampaign
{
    explicit ProfiledCampaign(World w) : world(std::move(w)) {}

    World world;
    std::unique_ptr<hh::sys::HostSystem> host;
    std::unique_ptr<hh::attack::HyperHammerAttack> attack;
    hh::attack::ProfileResult profile;
};

/**
 * (Re)build @p c from scratch: host build, profilePhase and the trial
 * template, each timed into @p trace. Returns the seconds it took.
 */
double setUpCampaign(ProfiledCampaign &c, Trace &trace);

/** Everything a replay needs, all taken from public accessors. */
struct TrialWorld
{
    hh::sys::SystemConfig host;
    hh::vm::VmConfig vm;
    hh::attack::AttackConfig attack;
    /** The campaign's host-physical profile (hostProfile()). */
    std::vector<hh::attack::HostVulnBit> profile;
    /** The replay's own pristine template (makeForkTemplate). */
    std::unique_ptr<const hh::sys::HostSystem> tmpl;
};

/** Snapshot the replay inputs of a profiled campaign on @p host. */
TrialWorld trialWorldOf(const hh::sys::HostSystem &host,
                        const hh::vm::VmConfig &vm,
                        const hh::attack::AttackConfig &attack,
                        const hh::attack::HyperHammerAttack &campaign);

/** Canonical wire form of an outcome (writeOutcome). */
std::vector<uint8_t> outcomeBytes(const hh::attack::AttemptOutcome &o);

/** FNV-1a digest of outcomeBytes(). */
uint64_t outcomeDigest(const hh::attack::AttemptOutcome &o);

/**
 * Run trial @p trial once through the orchestrator (timed as
 * attack.trial_ms) and once through the phase-by-phase replay, and
 * return whether the two outcomes are identical. The orchestrator's
 * outcome is stored in @p orchestrated. With @p count set, the
 * replayed trial's deterministic counts are added to the trace.
 */
bool checkedReplay(hh::attack::HyperHammerAttack &campaign,
                   const TrialWorld &world, uint64_t trial, Trace &trace,
                   bool count, hh::attack::AttemptOutcome &orchestrated);

} // namespace hhb

#endif // HHBENCH_REPLAY_H
