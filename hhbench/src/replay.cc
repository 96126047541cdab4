#include "replay.h"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>

using namespace hh;

namespace hhb {

namespace {

/** Phase spans in trial order; their sum is the attributed time. */
const char *const kPhases[] = {
    "sys.fork_trial_ms",  "mm.plant_secret_ms", "sys.create_vm_ms",
    "attack.relocate_ms", "attack.exhaust_ms",  "attack.release_ms",
    "attack.spray_ms",    "attack.mark_ms",     "attack.hammer_ms",
    "attack.detect_ms",   "attack.escalate_ms", "vm.destroy_ms",
    "sys.destroy_ms",
};

/**
 * The orchestrator's profile relocation (the GPA->HPA debug hypercall
 * oracle of Section 5.3.2), rebuilt from debugTranslate() and the
 * public host-physical profile.
 */
std::vector<attack::VulnerableBit>
relocate(vm::VirtualMachine &current,
         const std::vector<attack::HostVulnBit> &profile,
         unsigned bits_per_attempt)
{
    std::unordered_map<uint64_t, GuestPhysAddr> host_to_guest;
    for (GuestPhysAddr hp : current.hugePageGpas()) {
        auto hpa = current.debugTranslate(hp);
        if (hpa)
            host_to_guest[hpa->hugePageBase().value()] = hp;
    }
    auto locate = [&](HostPhysAddr hpa) -> base::Expected<GuestPhysAddr> {
        const auto it = host_to_guest.find(hpa.hugePageBase().value());
        if (it == host_to_guest.end())
            return base::ErrorCode::NotFound;
        return it->second + hpa.hugePageOffset();
    };

    // One bit per ~512 sprayed EPT pages, as in the orchestrator.
    const uint64_t hugepages = current.memorySize() / kHugePageSize;
    const uint64_t groups = hugepages / kEntriesPerTable;
    const unsigned spray_cap = static_cast<unsigned>(
        std::max<uint64_t>(1, groups > 1 ? groups - 1 : 1));
    const unsigned batch = std::min(bits_per_attempt, spray_cap);

    std::vector<attack::VulnerableBit> targets;
    for (const attack::HostVulnBit &record : profile) {
        if (targets.size() >= batch)
            break;
        auto word_gpa = locate(record.wordHpa);
        if (!word_gpa)
            continue;
        const GuestPhysAddr victim_hp = word_gpa->hugePageBase();
        if (!current.memDevice_().contains(victim_hp))
            continue;
        attack::VulnerableBit bit;
        bit.wordGpa = *word_gpa;
        bit.bitInWord = record.bitInWord;
        bit.direction = record.direction;
        bit.stable = record.stable;
        bit.victimHugePage = victim_hp;
        bool ok = true;
        for (HostPhysAddr aggressor : record.aggressorHpas) {
            auto gpa = locate(aggressor);
            if (!gpa || gpa->hugePageBase() == victim_hp) {
                ok = false;
                break;
            }
            bit.aggressors.push_back(*gpa);
        }
        if (!ok || bit.aggressors.empty())
            continue;
        bit.aggressorHugePage = bit.aggressors.front().hugePageBase();
        bit.exploitable = true;
        targets.push_back(std::move(bit));
    }
    return targets;
}

/** Replay trial @p trial with a span per phase. */
attack::AttemptOutcome
replayTrial(const TrialWorld &world, uint64_t trial, Trace &trace,
            bool count)
{
    std::map<std::string, double> ms;
    const Clock::time_point t_all = Clock::now();

    // Trial seed derivation and template fork, as runTrial() does.
    sys::SystemConfig trial_cfg = world.host;
    trial_cfg.seed = base::SeedSequence(world.host.seed).seed(trial);
    std::unique_ptr<sys::HostSystem> host;
    ms["sys.fork_trial_ms"] = timedMs([&] {
        host = sys::HostSystem::forkTrial(*world.tmpl, trial_cfg);
    });
    const uint64_t flips_before = host->dram().totalFlips();

    // The hypervisor secret: a kernel page holding a magic value.
    HostPhysAddr secret_addr{0};
    uint64_t secret_value = 0;
    ms["mm.plant_secret_ms"] = timedMs([&] {
        auto frame = host->buddy().allocPages(
            0, mm::MigrateType::Unmovable, mm::PageUse::KernelData);
        if (!frame)
            base::fatal("replay: cannot allocate the host secret page");
        secret_addr = HostPhysAddr(*frame * kPageSize + 0x5e8);
        secret_value = base::mix64(0x5ec7e7, host->config().seed) | 1;
        host->dram().write64(secret_addr, secret_value);
    });

    const base::SimTime start = host->clock().now();
    std::unique_ptr<vm::VirtualMachine> machine;
    ms["sys.create_vm_ms"] =
        timedMs([&] { machine = host->createVm(world.vm); });

    attack::AttemptOutcome outcome;
    std::vector<attack::VulnerableBit> targets;
    ms["attack.relocate_ms"] = timedMs([&] {
        targets = relocate(*machine, world.profile,
                           world.attack.bitsPerAttempt);
    });
    outcome.bitsTargeted = static_cast<unsigned>(targets.size());
    uint64_t iova_mappings = 0;
    if (!targets.empty()) {
        attack::PageSteering steering(*machine, host->clock(),
                                      world.attack.steering);
        const uint64_t spray = world.attack.sprayBytes
            ? world.attack.sprayBytes
            : machine->memorySize();
        attack::SteeringResult steered;
        ms["attack.exhaust_ms"] = timedMs(
            [&] { steered.iovaMappings = steering.exhaustNoisePages(); });
        iova_mappings = steered.iovaMappings;
        ms["attack.release_ms"] = timedMs(
            [&] { steering.releaseVulnerable(targets, steered); });
        ms["attack.spray_ms"] = timedMs([&] {
            std::unordered_set<uint64_t> excluded;
            for (const GuestPhysAddr &hp : steered.releasedHugePages)
                excluded.insert(hp.value());
            steered.demotions = steering.sprayEptes(spray, excluded);
        });
        outcome.releasedSubBlocks = steered.releasedSubBlocks;
        outcome.demotions = steered.demotions;

        attack::Exploiter exploiter(*machine, host->clock(),
                                    world.attack.exploit);
        ms["attack.mark_ms"] = timedMs(
            [&] { exploiter.markPages(machine->hugePageGpas()); });
        ms["attack.hammer_ms"] =
            timedMs([&] { exploiter.hammerTargets(targets); });
        std::vector<GuestPhysAddr> changed;
        ms["attack.detect_ms"] = timedMs(
            [&] { changed = exploiter.detectMappingChanges(); });
        outcome.changedPages = changed.size();
        ms["attack.escalate_ms"] = timedMs([&] {
            for (GuestPhysAddr page : changed) {
                if (!exploiter.looksLikeEptPage(page))
                    continue;
                ++outcome.epteCandidates;
                auto escalation = exploiter.validateAndEscalate(page);
                if (!escalation)
                    continue;
                auto value = exploiter.readHost(*escalation, secret_addr);
                if (value && *value == secret_value) {
                    outcome.success = true;
                    break;
                }
            }
        });
    }
    outcome.duration = host->clock().now() - start;

    if (count) {
        trace.count("dram.touched_pages", host->dram().backend().touchedPages());
        trace.count("dram.flips", host->dram().totalFlips() - flips_before);
        trace.count("kvm.demotions", machine->mmu().demotions());
        trace.count("kvm.ept_pages", machine->mmu().eptPageCount());
        trace.count("iommu.mappings", iova_mappings);
        trace.count("iommu.iopt_pages", machine->vfio() != nullptr
                        ? machine->vfio()->ioptPageCount()
                        : 0);
        trace.count("virtio.released_sub_blocks",
                    machine->memDevice_().stats().releasedBlockPfns.size());
        trace.count("attack.bits_targeted", outcome.bitsTargeted);
        trace.count("attack.changed_pages", outcome.changedPages);
        trace.count("attack.epte_candidates", outcome.epteCandidates);
        trace.count("trace.replayed_trials", 1);
    }

    ms["vm.destroy_ms"] = timedMs([&] { machine.reset(); });
    ms["sys.destroy_ms"] = timedMs([&] { host.reset(); });
    const double total = msSince(t_all);

    // Every phase gets a sample each trial (0 when skipped), so the
    // per-trial means add up to the replayed trial's time.
    double attributed = 0.0;
    for (const char *phase : kPhases) {
        trace.add(phase, ms[phase]);
        attributed += ms[phase];
    }
    trace.add("trace.replay_ms", total);
    trace.add("trace.unattributed_ms", total - attributed);
    return outcome;
}

} // namespace

double
setUpCampaign(ProfiledCampaign &c, Trace &trace)
{
    c.attack.reset();
    c.host.reset();
    const Clock::time_point t0 = Clock::now();
    trace.span("sys.host_build_ms", [&] {
        c.host = std::make_unique<sys::HostSystem>(c.world.host);
    });
    c.attack = std::make_unique<attack::HyperHammerAttack>(
        *c.host, c.world.vm, c.host->dram().mapping(), c.world.attack);
    trace.span("attack.profile_ms",
               [&] { c.profile = c.attack->profilePhase(); });
    // An empty range builds the shared trial template and runs nothing.
    trace.span("sys.template_build_ms", [&] {
        (void)c.attack->runTrialRange(0, 0, 1,
                                      snapshot::CheckpointPolicy{});
    });
    return secondsSince(t0);
}

TrialWorld
trialWorldOf(const sys::HostSystem &host, const vm::VmConfig &vm,
             const attack::AttackConfig &attack,
             const attack::HyperHammerAttack &campaign)
{
    TrialWorld world;
    world.host = host.config();
    world.vm = vm;
    world.attack = attack;
    world.profile = campaign.hostProfile();
    world.tmpl = sys::HostSystem::makeForkTemplate(world.host);
    return world;
}

std::vector<uint8_t>
outcomeBytes(const attack::AttemptOutcome &o)
{
    base::ArchiveWriter w;
    attack::writeOutcome(w, o);
    return w.buffer();
}

uint64_t
outcomeDigest(const attack::AttemptOutcome &o)
{
    base::ArchiveWriter w;
    attack::writeOutcome(w, o);
    return w.fingerprint();
}

bool
checkedReplay(attack::HyperHammerAttack &campaign, const TrialWorld &world,
              uint64_t trial, Trace &trace, bool count,
              attack::AttemptOutcome &orchestrated)
{
    attack::TrialRangeResult ran;
    trace.span("attack.trial_ms", [&] {
        ran = campaign.runTrialRange(trial, trial + 1, 1,
                                     snapshot::CheckpointPolicy{});
    });
    if (ran.outcomes.size() != 1)
        return false;
    orchestrated = ran.outcomes.front();
    const attack::AttemptOutcome replayed =
        replayTrial(world, trial, trace, count);
    return outcomeBytes(replayed) == outcomeBytes(orchestrated);
}

} // namespace hhb
