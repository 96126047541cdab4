#include "host_system.h"

#include <algorithm>

#include "base/log.h"
#include "snapshot/snapshot_format.h"

namespace hh::sys {

SystemConfig
SystemConfig::s1(uint64_t seed)
{
    SystemConfig cfg;
    cfg.name = "S1";
    cfg.seed = seed;
    cfg.dram.totalBytes = 16_GiB;
    cfg.dram.mapping = dram::AddressMapping::i3_10100();
    cfg.dram.seed = base::mix64(seed, 0x51);
    // Calibrated against Table 1: ~395 flips over 12 GB profiled,
    // 246/395 stable, roughly even 1->0 / 0->1 split.
    cfg.dram.fault.weakCellsPerRow = 0.00086;
    cfg.dram.fault.stableFraction = 0.36;
    cfg.dram.fault.oneToZeroFraction = 0.54;
    cfg.noise.kernelResidentPages = 40'000;
    cfg.noise.unmovableFreePages = 21'000;
    cfg.noise.pageCachePages = 120'000;
    cfg.noise.churnPagesPerTick = 0;
    return cfg;
}

SystemConfig
SystemConfig::s2(uint64_t seed)
{
    SystemConfig cfg = s1(seed);
    cfg.name = "S2";
    cfg.dram.mapping = dram::AddressMapping::xeonE3_2124();
    cfg.dram.seed = base::mix64(seed, 0x52);
    // Table 1: S2's DIMM slot shows more flips but far fewer stable
    // ones (650 total, only 40 stable).
    cfg.dram.fault.weakCellsPerRow = 0.00227;
    cfg.dram.fault.stableFraction = 0.008;
    cfg.dram.fault.oneToZeroFraction = 0.51;
    // The Xeon machine profiles the same region in 48 h rather than
    // 72 h (Table 1): a faster scan path on that host.
    cfg.dram.timing.pageScanCost = 62;
    cfg.noise.kernelResidentPages = 36'000;
    cfg.noise.unmovableFreePages = 17'000;
    return cfg;
}

SystemConfig
SystemConfig::s3(uint64_t seed)
{
    SystemConfig cfg = s1(seed);
    cfg.name = "S3";
    cfg.dram.seed = base::mix64(seed, 0x53);
    // A DevStack single-node deployment runs nova/neutron/etc. on the
    // host: far more unmovable pages, a bigger page cache, and
    // continuous background churn (Figure 3(b)).
    cfg.noise.kernelResidentPages = 150'000;
    cfg.noise.unmovableFreePages = 52'000;
    cfg.noise.pageCachePages = 400'000;
    cfg.noise.churnPagesPerTick = 40;
    return cfg;
}

SystemConfig &
SystemConfig::withMemory(uint64_t bytes)
{
    HH_ASSERT(bytes >= 64_MiB);
    const double factor = static_cast<double>(bytes)
        / static_cast<double>(dram.totalBytes);
    dram.totalBytes = bytes;
    auto scale = [factor](uint64_t &v) {
        v = static_cast<uint64_t>(static_cast<double>(v) * factor);
    };
    scale(noise.kernelResidentPages);
    scale(noise.unmovableFreePages);
    scale(noise.pageCachePages);
    return *this;
}

SystemConfig &
SystemConfig::withSeed(uint64_t new_seed)
{
    seed = new_seed;
    dram.seed = base::mix64(new_seed, 0xd5);
    return *this;
}

SystemConfig &
SystemConfig::withFaults(fault::FaultPlan plan)
{
    faults = std::move(plan);
    return *this;
}

HostSystem::HostSystem(SystemConfig config)
    : cfg(std::move(config)), rng(base::mix64(cfg.seed, 0x4057))
{
    // The injector's root seed mixes the host seed into the plan seed
    // so per-trial host clones (same plan, different host seed) draw
    // independent deterministic fault streams.
    if (!cfg.faults.empty())
        injector = std::make_unique<fault::FaultInjector>(
            cfg.faults, base::mix64(cfg.seed, cfg.faults.seed));
    dramSys = std::make_unique<dram::DramSystem>(cfg.dram, simClock);
    dramSys->setFaultInjector(injector.get());
    mm::BuddyConfig buddy_cfg;
    buddy_cfg.totalPages = cfg.dram.totalBytes / kPageSize;
    buddy_cfg.layout = cfg.domains;
    allocator = std::make_unique<mm::BuddyAllocator>(buddy_cfg);
    allocator->setFaultInjector(injector.get());
    bootHost();
}

HostSystem::~HostSystem() = default;

HostSystem::HostSystem(TemplateTag, SystemConfig config)
    : cfg(std::move(config)), rng(base::mix64(cfg.seed, 0x4057))
{
    // No injector and no boot: the template holds only the state that
    // is invariant across trial seeds. (The host rng member is seeded
    // but never drawn from; forks replace it anyway.)
    dramSys = std::make_unique<dram::DramSystem>(cfg.dram, simClock);
    mm::BuddyConfig buddy_cfg;
    buddy_cfg.totalPages = cfg.dram.totalBytes / kPageSize;
    buddy_cfg.layout = cfg.domains;
    allocator = std::make_unique<mm::BuddyAllocator>(buddy_cfg);
    dramSys->backend().freeze();
    pristineTemplate = true;
}

HostSystem::HostSystem(CloneTag, const HostSystem &src)
    : cfg(src.cfg),
      rng(src.rng),
      nextVmId(src.nextVmId),
      pristineTemplate(src.pristineTemplate),
      residentKernelPages(src.residentKernelPages),
      pageCachePages(src.pageCachePages)
{
    simClock.advance(src.simClock.now());
    if (src.injector) {
        // Rebuild from the plan, then adopt the source's cursors so
        // the clone's fault stream continues where the original's is.
        injector = std::make_unique<fault::FaultInjector>(
            cfg.faults, base::mix64(cfg.seed, cfg.faults.seed));
        base::ArchiveWriter w;
        src.injector->saveState(w);
        base::ArchiveReader r(w.buffer());
        const base::Status st = injector->loadState(r);
        HH_ASSERT(st.ok());
    }
    dramSys = dram::DramSystem::forkFrom(*src.dramSys, simClock);
    dramSys->setFaultInjector(injector.get());
    allocator = mm::BuddyAllocator::forkFrom(*src.allocator);
    allocator->setFaultInjector(injector.get());
}

HostSystem::HostSystem(TrialTag, const HostSystem &tmpl,
                       const SystemConfig &trial_cfg)
    : cfg(trial_cfg), rng(base::mix64(cfg.seed, 0x4057))
{
    HH_ASSERT(tmpl.pristineTemplate);
    // Cheap proxies for "same config up to the seed": the trial must
    // share the template's memory geometry and dram seed, or the
    // forked fault oracle would be the wrong one.
    HH_ASSERT(tmpl.cfg.dram.totalBytes == cfg.dram.totalBytes);
    HH_ASSERT(tmpl.cfg.dram.seed == cfg.dram.seed);
    HH_ASSERT(tmpl.cfg.domains.domains.size()
              == cfg.domains.domains.size());
    if (!cfg.faults.empty())
        injector = std::make_unique<fault::FaultInjector>(
            cfg.faults, base::mix64(cfg.seed, cfg.faults.seed));
    dramSys = dram::DramSystem::forkFrom(*tmpl.dramSys, simClock);
    dramSys->setFaultInjector(injector.get());
    allocator = mm::BuddyAllocator::forkFrom(*tmpl.allocator);
    allocator->setFaultInjector(injector.get());
    bootHost();
}

std::unique_ptr<const HostSystem>
HostSystem::makeForkTemplate(SystemConfig config)
{
    return std::make_unique<HostSystem>(TemplateTag{},
                                        std::move(config));
}

std::unique_ptr<HostSystem>
HostSystem::forkTrial(const HostSystem &tmpl,
                      const SystemConfig &trial_cfg)
{
    return std::make_unique<HostSystem>(TrialTag{}, tmpl, trial_cfg);
}

void
HostSystem::discardTrial(std::unique_ptr<HostSystem> world,
                         std::unique_ptr<vm::VirtualMachine> machine)
{
    world->allocator->discardingWorld = true;
    machine.reset();
}

std::unique_ptr<HostSystem>
HostSystem::fork() const
{
    return std::make_unique<HostSystem>(CloneTag{}, *this);
}

void
HostSystem::bootHost()
{
    // Kernel text/data/slabs: unmovable allocations that stay resident.
    // Interleave the allocations destined to stay with those destined
    // to be freed, so the frees cannot coalesce into big blocks -- this
    // is what leaves the small-order unmovable "noise" population a
    // freshly booted host exhibits (Figure 3).
    const uint64_t keep = cfg.noise.kernelResidentPages;
    const uint64_t transient = cfg.noise.unmovableFreePages;
    std::vector<Pfn> to_free;
    to_free.reserve(transient);
    residentKernelPages.reserve(keep);

    const uint64_t total = keep + transient;
    for (uint64_t i = 0; i < total; ++i) {
        auto page = allocator->allocPages(0, mm::MigrateType::Unmovable,
                                          mm::PageUse::KernelData);
        if (!page) {
            // An injected failure hits one allocation, not the boot:
            // skip the page and keep the footprint approximate.
            if (injector)
                continue;
            base::fatal("host boot: out of memory for kernel pages");
        }
        // Statistically interleave: transient/total of the stream.
        if (rng.below(total) < transient && to_free.size() < transient)
            to_free.push_back(*page);
        else if (residentKernelPages.size() < keep)
            residentKernelPages.push_back(*page);
        else
            to_free.push_back(*page);
    }
    rng.shuffle(to_free);
    for (Pfn pfn : to_free)
        allocator->freePages(pfn, 0);

    // Page cache: movable, stays resident (file-backed data).
    pageCachePages.reserve(cfg.noise.pageCachePages);
    for (uint64_t i = 0; i < cfg.noise.pageCachePages; ++i) {
        auto page = allocator->allocPages(0, mm::MigrateType::Movable,
                                          mm::PageUse::PageCache);
        if (!page) {
            if (injector)
                continue;
            base::fatal("host boot: out of memory for page cache");
        }
        pageCachePages.push_back(*page);
    }

    simClock.advance(10 * base::kSecond); // boot time
}

void
HostSystem::pageCacheChurn(uint64_t pages)
{
    // Evict random resident file pages...
    uint64_t evicted = 0;
    for (uint64_t i = 0; i < pages && !pageCachePages.empty(); ++i) {
        const size_t idx = rng.below(pageCachePages.size());
        std::swap(pageCachePages[idx], pageCachePages.back());
        allocator->freePages(pageCachePages.back(), 0);
        pageCachePages.pop_back();
        ++evicted;
    }
    // ...and fault in fresh ones.
    for (uint64_t i = 0; i < evicted; ++i) {
        auto page = allocator->allocPages(0, mm::MigrateType::Movable,
                                          mm::PageUse::PageCache);
        if (page)
            pageCachePages.push_back(*page);
    }
}

std::unique_ptr<vm::VirtualMachine>
HostSystem::createVm(const vm::VmConfig &vm_cfg)
{
    // Host I/O keeps running between guest lifetimes; the resulting
    // free-list shuffling is what makes each attack attempt an
    // independent trial rather than a deterministic replay. The
    // periodic vmstat worker also drains per-CPU pagesets, letting
    // parked pages coalesce back into high-order blocks.
    allocator->drainPcp();
    pageCacheChurn(cfg.noise.pageCachePages / 16 + 64);

    // Readahead and other large transient buffers briefly occupy some
    // high-order blocks, so the blocks a guest receives vary between
    // spawns even when little else changed.
    std::vector<Pfn> transient_blocks;
    const uint64_t holdback = rng.below(48);
    for (uint64_t i = 0; i < holdback; ++i) {
        auto block = allocator->allocPages(9, mm::MigrateType::Movable,
                                           mm::PageUse::PageCache);
        if (!block)
            break;
        transient_blocks.push_back(*block);
    }

    auto machine = std::make_unique<vm::VirtualMachine>(
        *dramSys, *allocator, vm_cfg, nextVmId++, injector.get());

    for (Pfn block : transient_blocks)
        allocator->freePages(block, 9);
    // Spawning a pinned, THP-backed VM costs a fixed boot plus the
    // pre-allocation, pinning and zeroing of all guest memory; with a
    // 13 GB guest this dominates an attack attempt (Table 3's ~4 min
    // per attempt, which respawns the VM every time).
    const uint64_t guest_bytes =
        vm_cfg.bootMemBytes + vm_cfg.virtioMemPlugged;
    constexpr uint64_t kPrepNsPerByte = 15; // prealloc+pin+zero
    simClock.advance(20 * base::kSecond + guest_bytes * kPrepNsPerByte);
    return machine;
}

uint64_t
HostSystem::noisePages() const
{
    const mm::PageTypeInfo info = allocator->pageTypeInfo();
    return info.pagesBelowOrder(mm::MigrateType::Unmovable, 9)
        + allocator->pcpCount();
}

void
HostSystem::noiseTick()
{
    const uint64_t churn = cfg.noise.churnPagesPerTick;
    if (churn == 0)
        return;
    // Host services allocate fresh unmovable pages...
    for (uint64_t i = 0; i < churn; ++i) {
        auto page = allocator->allocPages(0, mm::MigrateType::Unmovable,
                                          mm::PageUse::KernelData);
        if (page)
            residentKernelPages.push_back(*page);
    }
    // ...and release roughly as many old ones, at random positions so
    // the frees stay fragmented.
    for (uint64_t i = 0; i < churn && !residentKernelPages.empty();
         ++i) {
        const size_t idx = rng.below(residentKernelPages.size());
        std::swap(residentKernelPages[idx], residentKernelPages.back());
        allocator->freePages(residentKernelPages.back(), 0);
        residentKernelPages.pop_back();
    }
    simClock.advance(base::kMillisecond);
}

uint64_t
HostSystem::configFingerprint() const
{
    // Canonical encoding of everything that shapes serialized state.
    // Field order is part of the format: changing it (or adding a
    // field) invalidates old snapshots, which is the intended
    // behaviour -- see snapshot/snapshot_format.h.
    base::ArchiveWriter w;
    w.str(cfg.name);
    w.u64(cfg.seed);
    w.u64(cfg.dram.totalBytes);
    w.u64(cfg.dram.seed);
    w.u64vec(cfg.dram.mapping.bankMasks());
    w.u32(cfg.dram.mapping.rowLoBit());
    w.u32(cfg.dram.mapping.rowHiBit());
    w.f64(cfg.dram.fault.weakCellsPerRow);
    w.f64(cfg.dram.fault.oneToZeroFraction);
    w.f64(cfg.dram.fault.stableFraction);
    w.f64(cfg.dram.fault.unstableFlipProbability);
    w.u32(cfg.dram.fault.minThreshold);
    w.u32(cfg.dram.fault.maxThreshold);
    w.f64(cfg.dram.fault.distanceTwoFactor);
    w.u64(cfg.dram.timing.rowHitLatency);
    w.u64(cfg.dram.timing.rowMissLatency);
    w.u64(cfg.dram.timing.rowConflictLatency);
    w.u64(cfg.dram.timing.rowCycle);
    w.u64(cfg.dram.timing.refreshWindow);
    w.u64(cfg.dram.timing.rowPressHalfLife);
    w.u64(cfg.dram.timing.pageFillCost);
    w.u64(cfg.dram.timing.pageScanCost);
    w.boolean(cfg.dram.trr.enabled);
    w.u32(cfg.dram.trr.trackerCapacity);
    w.boolean(cfg.dram.trr.probabilisticOverflow);
    w.boolean(cfg.dram.ecc.enabled);
    w.u32(cfg.dram.ecc.correctBits);
    w.u64(cfg.noise.kernelResidentPages);
    w.u64(cfg.noise.unmovableFreePages);
    w.u64(cfg.noise.pageCachePages);
    w.u64(cfg.noise.churnPagesPerTick);
    w.u64(cfg.faults.seed);
    w.u64(cfg.faults.entries.size());
    for (const fault::FaultEntry &entry : cfg.faults.entries) {
        w.u32(static_cast<uint32_t>(entry.site));
        w.u8(static_cast<uint8_t>(entry.kind));
        w.u64(entry.firstHit);
        w.u64(entry.count);
        w.u64(entry.every);
        w.f64(entry.probability);
        w.u64(entry.param);
    }
    w.boolean(cfg.domains.crossDomainFallback);
    w.u64(cfg.domains.domains.size());
    for (const mm::DomainSpec &spec : cfg.domains.domains) {
        w.u64(spec.pages);
        w.u8(static_cast<uint8_t>(spec.cls));
        w.u64(spec.guardPages);
    }
    return w.fingerprint();
}

void
HostSystem::saveState(base::ArchiveWriter &w) const
{
    w.u64(simClock.now());
    w.boolean(injector != nullptr);
    if (injector)
        injector->saveState(w);
    dramSys->saveState(w);
    allocator->saveState(w);
    w.rngState(rng.saveState());
    w.u16(nextVmId);
    w.u64vec(residentKernelPages);
    w.u64vec(pageCachePages);
}

base::Status
HostSystem::loadState(base::ArchiveReader &r)
{
    const base::SimTime saved_now = r.u64();
    const bool has_injector = r.boolean();
    if (!r.ok())
        return r.status();
    if (has_injector != (injector != nullptr)) {
        base::warn("host snapshot: fault-injector presence mismatch");
        return base::ErrorCode::InvalidArgument;
    }
    if (injector) {
        const base::Status st = injector->loadState(r);
        if (!st.ok())
            return st;
    }
    if (const base::Status st = dramSys->loadState(r); !st.ok())
        return st;
    if (const base::Status st = allocator->loadState(r); !st.ok())
        return st;
    const std::array<uint64_t, 4> rng_state = r.rngState();
    const uint16_t next_id = r.u16();
    std::vector<Pfn> kernel_pages = r.u64vec();
    std::vector<Pfn> cache_pages = r.u64vec();
    if (!r.ok())
        return r.status();
    if (next_id == 0) {
        base::warn("host snapshot: VM id counter must be >= 1");
        return base::ErrorCode::InvalidArgument;
    }
    for (Pfn pfn : kernel_pages)
        if (pfn >= allocator->totalPages()) {
            base::warn("host snapshot: kernel page %llu out of range",
                       static_cast<unsigned long long>(pfn));
            return base::ErrorCode::InvalidArgument;
        }
    for (Pfn pfn : cache_pages)
        if (pfn >= allocator->totalPages()) {
            base::warn("host snapshot: cache page %llu out of range",
                       static_cast<unsigned long long>(pfn));
            return base::ErrorCode::InvalidArgument;
        }
    simClock.reset();
    simClock.advance(saved_now);
    rng.loadState(rng_state);
    nextVmId = next_id;
    residentKernelPages = std::move(kernel_pages);
    pageCachePages = std::move(cache_pages);
    return base::Status::success();
}

base::Status
HostSystem::saveSnapshot(const std::string &path) const
{
    base::ArchiveWriter w;
    w.u64(configFingerprint());
    saveState(w);
    return base::saveArchiveFile(path, snapshot::kHostSnapshotMagic,
                                 snapshot::kSnapshotFormatVersion,
                                 w.buffer());
}

base::Status
HostSystem::loadSnapshot(const std::string &path)
{
    auto loaded = base::loadArchiveFile(
        path, snapshot::kHostSnapshotMagic,
        snapshot::kSnapshotFormatVersion,
        snapshot::kSnapshotFormatVersion);
    if (!loaded)
        return base::Status(loaded.error());
    base::ArchiveReader r(loaded->payload);
    const uint64_t fingerprint = r.u64();
    if (!r.ok())
        return r.status();
    if (fingerprint != configFingerprint()) {
        base::warn("host snapshot '%s': config fingerprint mismatch "
                   "(file %016llx, host %016llx)",
                   path.c_str(),
                   static_cast<unsigned long long>(fingerprint),
                   static_cast<unsigned long long>(configFingerprint()));
        return base::ErrorCode::InvalidArgument;
    }
    if (const base::Status st = loadState(r); !st.ok())
        return st;
    if (!r.atEnd()) {
        base::warn("host snapshot '%s': %zu trailing bytes",
                   path.c_str(), r.remaining());
        return base::ErrorCode::InvalidArgument;
    }
    return base::Status::success();
}

std::unique_ptr<vm::VirtualMachine>
HostSystem::restoreVm(const vm::VmConfig &vm_cfg, uint16_t vm_id)
{
    return std::make_unique<vm::VirtualMachine>(
        *dramSys, *allocator, vm_cfg, vm_id, injector.get(),
        base::RestoreTag{});
}

uint64_t
HostSystem::countFramesByUse(mm::PageUse use, uint16_t owner) const
{
    uint64_t count = 0;
    for (Pfn pfn = 0; pfn < allocator->totalPages(); ++pfn) {
        const mm::PageFrame &frame = allocator->frame(pfn);
        if (frame.free || frame.use != use)
            continue;
        if (owner != 0 && frame.owner != owner)
            continue;
        ++count;
    }
    return count;
}

} // namespace hh::sys
