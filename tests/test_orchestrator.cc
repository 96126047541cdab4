/**
 * @file
 * Tests of the end-to-end orchestrator: the profiling phase and its
 * host-physical record conversion, the attempt loop with VM respawn,
 * the expected-time model (Section 5.3.3), and the countermeasure's
 * end-to-end effect.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>

#include "attack/orchestrator.h"

namespace hh::attack {
namespace {

sys::SystemConfig
hostConfig(uint64_t seed = 42, double density_scale = 4.0)
{
    sys::SystemConfig cfg = sys::SystemConfig::s1(seed)
        .withMemory(1_GiB);
    cfg.dram.fault.weakCellsPerRow *= density_scale;
    return cfg;
}

vm::VmConfig
vmConfig()
{
    vm::VmConfig cfg;
    cfg.bootMemBytes = 64_MiB;
    cfg.virtioMemRegionSize = 1_GiB;
    cfg.virtioMemPlugged = 640_MiB;
    return cfg;
}

AttackConfig
attackConfig(unsigned max_attempts = 4)
{
    AttackConfig cfg;
    cfg.maxAttempts = max_attempts;
    cfg.steering.exhaustMappings = 2'500;
    return cfg;
}

TEST(ExpectedTime, ModelMatchesPaperArithmetic)
{
    // Section 5.3.3 for S1: full profile 72 h finds 96 bits; needing
    // 12 per attempt gives 9 h per profile, and 512 attempts yield
    // 192 days.
    const base::SimTime full = 72 * base::kHour;
    const base::SimTime expected =
        expectedEndToEndTime(full, 96, 12, 512);
    EXPECT_NEAR(base::SimClock::toSeconds(expected),
                192.0 * 24 * 3600, 3600.0);
    // S2: 48 h, 90 bits, 512 attempts -> ~136.5 days.
    const base::SimTime s2 = expectedEndToEndTime(
        48 * base::kHour, 90, 12, 512);
    EXPECT_NEAR(base::SimClock::toSeconds(s2) / (24 * 3600), 136.5,
                1.0);
    EXPECT_EQ(expectedEndToEndTime(full, 0, 12, 512), 0u);
}

TEST(Orchestrator, ProfilePhaseBuildsHostRecords)
{
    sys::HostSystem host(hostConfig());
    HyperHammerAttack attack(host, vmConfig(),
                             host.dram().mapping(), attackConfig());
    const ProfileResult profile = attack.profilePhase();
    EXPECT_GT(profile.totalFlips(), 0u);

    // Records correspond to exploitable+releasable bits only, are in
    // host-physical terms, and are sorted stable-first.
    unsigned usable = 0;
    for (const VulnerableBit &bit : profile.bits)
        usable += bit.exploitable && bit.releasable;
    EXPECT_EQ(attack.hostProfile().size(), usable);
    bool seen_unstable = false;
    for (const HostVulnBit &record : attack.hostProfile()) {
        EXPECT_FALSE(record.aggressorHpas.empty());
        if (!record.stable)
            seen_unstable = true;
        else
            EXPECT_FALSE(seen_unstable) << "stable bits must sort first";
    }
}

TEST(Orchestrator, SecretPlantedInHostMemory)
{
    sys::HostSystem host(hostConfig());
    HyperHammerAttack attack(host, vmConfig(),
                             host.dram().mapping(), attackConfig());
    EXPECT_NE(attack.secretValue(), 0u);
    EXPECT_EQ(host.dram().backend().read64(attack.secretAddress()),
              attack.secretValue());
    // The secret page is host kernel memory, not guest-reachable.
    const mm::PageFrame &frame =
        host.buddy().frame(attack.secretAddress().pfn());
    EXPECT_EQ(frame.use, mm::PageUse::KernelData);
}

TEST(Orchestrator, RunExecutesAttemptsAndRespawns)
{
    sys::HostSystem host(hostConfig());
    HyperHammerAttack attack(host, vmConfig(),
                             host.dram().mapping(), attackConfig(3));
    (void)attack.profilePhase();
    const AttackResult result = attack.run();
    EXPECT_EQ(result.attempts, result.success ? result.attempts : 3u);
    EXPECT_EQ(result.outcomes.size(), result.attempts);
    // Every attempt after the first pays the VM respawn (the first
    // reuses the profiling VM, whose spawn was charged to profiling).
    for (size_t i = 1; i < result.outcomes.size(); ++i)
        EXPECT_GT(result.outcomes[i].duration, 10 * base::kSecond);
    EXPECT_GT(result.totalTime, 0u);
    EXPECT_GT(result.avgAttemptSeconds(), 10.0);
}

TEST(Orchestrator, AttemptsReleaseAndSprayWhenTargetsRelocate)
{
    sys::HostSystem host(hostConfig(7, 8.0));
    HyperHammerAttack attack(host, vmConfig(),
                             host.dram().mapping(), attackConfig(6));
    (void)attack.profilePhase();
    ASSERT_GT(attack.hostProfile().size(), 0u);
    const AttackResult result = attack.run();
    uint64_t total_targeted = 0;
    uint64_t total_demotions = 0;
    for (const AttemptOutcome &outcome : result.outcomes) {
        total_targeted += outcome.bitsTargeted;
        total_demotions += outcome.demotions;
        EXPECT_EQ(outcome.releasedSubBlocks > 0,
                  outcome.bitsTargeted > 0);
    }
    EXPECT_GT(total_targeted, 0u) << "no attempt relocated any bit";
    EXPECT_GT(total_demotions, 0u);
}

TEST(Orchestrator, QuarantineStopsTheAttack)
{
    sys::HostSystem host(hostConfig(7, 8.0));
    vm::VmConfig vm_cfg = vmConfig();
    vm_cfg.quarantine.enabled = true;
    HyperHammerAttack attack(host, vm_cfg, host.dram().mapping(),
                             attackConfig(3));
    (void)attack.profilePhase();
    const AttackResult result = attack.run();
    EXPECT_FALSE(result.success);
    for (const AttemptOutcome &outcome : result.outcomes)
        EXPECT_EQ(outcome.releasedSubBlocks, 0u);
}

TEST(Orchestrator, BatchCappedBySprayBudget)
{
    // A VM with ~352 hugepages can afford at most 1 released bit per
    // attempt even if many more are profiled (Section 4.3's 1 GB per
    // bit rule, scaled).
    sys::HostSystem host(hostConfig(7, 16.0));
    AttackConfig cfg = attackConfig(2);
    cfg.bitsPerAttempt = 12;
    HyperHammerAttack attack(host, vmConfig(),
                             host.dram().mapping(), cfg);
    (void)attack.profilePhase();
    const AttackResult result = attack.run();
    for (const AttemptOutcome &outcome : result.outcomes)
        EXPECT_LE(outcome.bitsTargeted, 1u);
}

TEST(Orchestrator, TrialRangeOutcomesArePinned)
{
    // Forked trial worlds are dropped without their VM teardown
    // (HostSystem::discardTrial). These seeds' trials demote EPT pages
    // and land flips that change mappings, so every layer the discard
    // skips did work; their outcomes, virtual time included, must
    // stay byte-identical to the full-teardown engine's.
    const std::pair<uint64_t, uint64_t> pinned[] = {
        {7, 0xa1219c0c7e27b705ull}, {42, 0xdb112f3ee1875da5ull}};
    for (const auto &[seed, digest] : pinned) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        sys::HostSystem host(hostConfig(seed, 8.0));
        HyperHammerAttack attack(host, vmConfig(), host.dram().mapping(),
                                 attackConfig());
        (void)attack.profilePhase();
        const TrialRangeResult range =
            attack.runTrialRange(0, 12, 2, snapshot::CheckpointPolicy{});
        ASSERT_EQ(range.outcomes.size(), 12u);
        base::ArchiveWriter w;
        for (const AttemptOutcome &outcome : range.outcomes) {
            EXPECT_GT(outcome.demotions, 0u);
            EXPECT_GT(outcome.changedPages, 0u);
            writeOutcome(w, outcome);
        }
        EXPECT_EQ(base::fnv1a64(w.buffer().data(), w.buffer().size()),
                  digest);
    }
}

} // namespace
} // namespace hh::attack
