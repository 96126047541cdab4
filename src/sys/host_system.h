/**
 * @file
 * HostSystem: the hypervisor host -- DRAM, buddy allocator, background
 * memory noise, and VM lifecycle.
 *
 * Three presets reproduce the paper's evaluation machines (Section 5):
 *   S1 -- Core i3-10100 host, 16 GB DDR4-2666, plain KVM;
 *   S2 -- Xeon E3-2124 host, same DIMMs, plain KVM;
 *   S3 -- S1's hardware running a single-node OpenStack (DevStack)
 *         deployment, which leaves a much larger population of
 *         unmovable "noise" pages and keeps churning them.
 */

#ifndef HYPERHAMMER_SYS_HOST_SYSTEM_H
#define HYPERHAMMER_SYS_HOST_SYSTEM_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "base/archive.h"
#include "base/rng.h"
#include "base/sim_clock.h"
#include "base/status.h"
#include "dram/dram_system.h"
#include "fault/fault.h"
#include "mm/buddy_allocator.h"
#include "vm/virtual_machine.h"

namespace hh::sys {

/** Host background-memory workload parameters. */
struct NoiseConfig
{
    /** Unmovable kernel allocations made at boot and kept (pages). */
    uint64_t kernelResidentPages = 40'000;
    /**
     * Small-order MIGRATE_UNMOVABLE *free* pages left behind by boot
     * (the Figure 3 "noise pages" starting level). Produced by
     * allocating and randomly freeing unmovable pages so the frees do
     * not coalesce back into large blocks.
     */
    uint64_t unmovableFreePages = 21'000;
    /** Movable page-cache pages resident after boot. */
    uint64_t pageCachePages = 120'000;
    /**
     * Background churn per noiseTick(): pages allocated and freed by
     * host services while the attack runs (OpenStack's agents on S3).
     * Zero disables churn.
     */
    uint64_t churnPagesPerTick = 0;
};

/** Full host configuration. */
struct SystemConfig
{
    std::string name = "S1";
    dram::DramConfig dram;
    NoiseConfig noise;
    uint64_t seed = 1;
    /**
     * Fault-injection schedule. Empty (the default) means no injector
     * is built and every HH_FAULT_POINT is a branch on a null pointer.
     */
    fault::FaultPlan faults;
    /**
     * Physical isolation domains (the mitigation layer). Empty -- the
     * default -- is the undefended single-zone buddy allocator;
     * defenses install Siloz/CATT-style partitionings here before the
     * host is constructed.
     */
    mm::DomainLayout domains;

    /** Paper system S1: i3-10100 host. */
    static SystemConfig s1(uint64_t seed = 1);
    /** Paper system S2: Xeon E3-2124 host. */
    static SystemConfig s2(uint64_t seed = 1);
    /** Paper system S3: S1 hardware + OpenStack noise. */
    static SystemConfig s3(uint64_t seed = 1);

    /** Scale host memory (and the row range) down for fast tests. */
    SystemConfig &withMemory(uint64_t bytes);
    /** Replace the RNG seed everywhere it matters. */
    SystemConfig &withSeed(uint64_t seed);
    /** Install a fault-injection plan. */
    SystemConfig &withFaults(fault::FaultPlan plan);
};

/**
 * The host: owns the virtual clock, the DRAM device, the buddy
 * allocator and the boot-time memory footprint; creates VMs.
 */
class HostSystem
{
  private:
    /** Restrict the template/clone/trial ctors to the static makers. */
    struct TemplateTag
    {};
    struct CloneTag
    {};
    struct TrialTag
    {};

  public:
    explicit HostSystem(SystemConfig config);
    ~HostSystem();

    /** Deep copies are banned: clone via fork() / forkTrial(). */
    HostSystem(const HostSystem &) = delete;
    HostSystem &operator=(const HostSystem &) = delete;

    /** @name Copy-on-write world forking */
    /// @{

    /**
     * Build a *pristine* trial template: constructed exactly like
     * HostSystem(config) but stopping before bootHost(), with the
     * memory backend frozen. The template captures every piece of
     * world state that is invariant across trial seeds -- the DRAM
     * geometry, the seed-derived fault oracle and weak-row index, the
     * frame database and initial free lists -- and shares them with
     * each fork. Trial-varying state (host rng, fault-injector
     * cursors, the boot footprint) is recreated per forkTrial() from
     * the trial's own seed, which is what makes a forked trial
     * bitwise-identical to a freshly constructed HostSystem.
     *
     * The returned host is const: a template must never be mutated
     * while forks are being taken from it.
     */
    static std::unique_ptr<const HostSystem>
    makeForkTemplate(SystemConfig config);

    /**
     * Fork a trial world from a pristine template and boot it with
     * @p trial_cfg's seed. @p trial_cfg must be the template's config
     * with only the seed changed (asserted on the cheap proxies).
     * Produces bit-for-bit the state of HostSystem(trial_cfg) at
     * O(pages the boot touches) instead of a full world rebuild.
     * Safe to call concurrently on one template.
     */
    static std::unique_ptr<HostSystem>
    forkTrial(const HostSystem &tmpl, const SystemConfig &trial_cfg);

    /**
     * Drop a trial world together with the VM it booted. Nothing of
     * the world outlives this call, so the VM is destroyed without
     * its teardown -- no unplug, unmap, unpin, page clear or buddy
     * free: its frames and page contents go with the world. Destroying
     * a VM any other way (in-host respawns, a live host) keeps the
     * full teardown.
     */
    static void discardTrial(std::unique_ptr<HostSystem> world,
                             std::unique_ptr<vm::VirtualMachine> machine);

    /**
     * Copy-on-write clone of this (booted) host: same config, same
     * seed, same state -- the forked world diverges from the original
     * only through its own subsequent writes. The memory and frame
     * database are shared copy-on-write at O(chunk pointers). VMs
     * are owned by callers and do not travel with the fork.
     */
    std::unique_ptr<HostSystem> fork() const;

    /**
     * Mark the memory backend's current contents as the template its
     * touchedPages() (and every later fork's) counts from.
     * Idempotent; O(1).
     */
    void freezeMemory() { dramSys->backend().freeze(); }

    /** True for hosts built by makeForkTemplate() (never booted). */
    bool isPristineTemplate() const { return pristineTemplate; }

    /** Tag ctors backing the static makers; tags are private. */
    HostSystem(TemplateTag, SystemConfig config);
    HostSystem(CloneTag, const HostSystem &src);
    HostSystem(TrialTag, const HostSystem &tmpl,
               const SystemConfig &trial_cfg);
    /// @}

    const SystemConfig &config() const { return cfg; }
    base::SimClock &clock() { return simClock; }
    dram::DramSystem &dram() { return *dramSys; }
    mm::BuddyAllocator &buddy() { return *allocator; }

    /** The host's fault injector; null when no plan is installed. */
    fault::FaultInjector *faults() { return injector.get(); }

    /** Create (boot) a VM. */
    std::unique_ptr<vm::VirtualMachine> createVm(const vm::VmConfig &cfg);

    /**
     * The Figure 3 metric: free MIGRATE_UNMOVABLE pages in orders
     * 0..8 (anything an order-0 EPT/IOPT allocation would prefer over
     * a released order-9 block), plus the PCP front-end.
     */
    uint64_t noisePages() const;

    /** Free-list census passthrough. */
    mm::PageTypeInfo pageTypeInfo() const { return allocator->pageTypeInfo(); }

    /**
     * One step of background host activity: services allocate and
     * free unmovable pages (churnPagesPerTick of each), perturbing the
     * free lists while an attack runs. Charges virtual time.
     */
    void noiseTick();

    /** Census of allocated frames by use (Table 2's E counts, etc.). */
    uint64_t countFramesByUse(mm::PageUse use, uint16_t owner = 0) const;

    /**
     * Page-cache turnover: evict and re-fault @p pages file pages.
     * Runs implicitly on every VM spawn -- real hosts keep serving I/O
     * between guest lifetimes, so no two spawns see identical free
     * lists (attack attempts are not deterministic replays).
     */
    void pageCacheChurn(uint64_t pages);

    /** @name Crash-safe snapshots */
    /// @{

    /**
     * FNV fingerprint over every SystemConfig field that shapes
     * serialized state. Snapshots embed it; loadSnapshot() refuses a
     * file taken under a different configuration (state would be
     * meaningless against mismatched geometry or fault plans).
     */
    uint64_t configFingerprint() const;

    /**
     * Serialize the full host: virtual clock, fault-injector cursors,
     * DRAM contents and counters, buddy free lists, the host RNG, the
     * VM id counter and the resident noise-page sets. VMs are owned by
     * callers and serialize separately (vm::VirtualMachine::saveState).
     */
    void saveState(base::ArchiveWriter &w) const;

    /**
     * Restore state written by saveState() over this booted host. The
     * nested subsystems commit as they load, so on failure the host is
     * partially modified and must be discarded -- corrupt payloads are
     * normally stopped earlier by the file checksum.
     */
    [[nodiscard]] base::Status loadState(base::ArchiveReader &r);

    /** Atomically write a host snapshot (temp + fsync + rename). */
    [[nodiscard]] base::Status saveSnapshot(const std::string &path) const;

    /**
     * Load a snapshot written by saveSnapshot(). Wrong magic, stale
     * format version, checksum mismatch, truncation and configuration
     * fingerprint mismatch each produce a descriptive Status; on any
     * failure discard this host and rebuild.
     */
    [[nodiscard]] base::Status loadSnapshot(const std::string &path);

    /**
     * Build a restore-mode VM shell attached to this host: no boot
     * allocations, no clock charge, no churn. Follow with the VM's
     * loadState(); @p vm_id must match the id stored in the snapshot.
     */
    std::unique_ptr<vm::VirtualMachine>
    restoreVm(const vm::VmConfig &vm_cfg, uint16_t vm_id);
    /// @}

  private:
    // hh-lint: allow(snapshot-field-coverage) -- config travels via the restore fingerprint, not the payload
    SystemConfig cfg;
    base::SimClock simClock;
    std::unique_ptr<fault::FaultInjector> injector;
    std::unique_ptr<dram::DramSystem> dramSys;
    std::unique_ptr<mm::BuddyAllocator> allocator;
    base::Rng rng;
    uint16_t nextVmId = 1;
    // hh-lint: allow(snapshot-field-coverage) -- fork-lineage flag; a restored host is never a trial template
    bool pristineTemplate = false;

    /** Resident kernel/service pages; churn cycles through these. */
    std::vector<Pfn> residentKernelPages;
    std::vector<Pfn> pageCachePages;

    void bootHost();
};

} // namespace hh::sys

#endif // HYPERHAMMER_SYS_HOST_SYSTEM_H
