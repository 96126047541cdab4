#include "virtual_machine.h"

#include "base/log.h"

namespace hh::vm {

VirtualMachine::VirtualMachine(dram::DramSystem &dram,
                               mm::BuddyAllocator &buddy, VmConfig config,
                               uint16_t vm_id,
                               fault::FaultInjector *fault_injector)
    : dram(dram), buddy(buddy), cfg(config), vmId(vm_id)
{
    HH_ASSERT(cfg.bootMemBytes % kHugePageSize == 0);
    HH_ASSERT(cfg.bootMemBytes <= kVirtioMemRegionStart.value());

    eptMmu = std::make_unique<kvm::Mmu>(dram, buddy, cfg.mmu, vmId);

    if (cfg.passthroughDevices > 0) {
        vfioContainer = std::make_unique<iommu::VfioContainer>(
            dram, buddy, cfg.iommu, vmId);
        for (unsigned i = 0; i < cfg.passthroughDevices; ++i)
            groups.push_back(vfioContainer->addGroup());
    }

    // Boot RAM: THP-backed order-9 blocks mapped as 2 MB leaves and,
    // with a passthrough device present, pinned up front (KVM/VFIO
    // pre-allocates and pins the whole VM address space).
    for (uint64_t off = 0; off < cfg.bootMemBytes; off += kHugePageSize) {
        auto block = buddy.allocPages(9, mm::MigrateType::Movable,
                                      mm::PageUse::GuestMemory, vmId);
        if (!block) {
            // Under fault injection a boot allocation may fail
            // transiently; boot with a truncated RAM map instead of
            // taking the host down (accesses past it simply fault).
            if (fault_injector != nullptr) {
                base::warn("VM %u: boot RAM truncated at %llu MiB",
                           vmId,
                           static_cast<unsigned long long>(
                               off / 1_MiB));
                break;
            }
            base::fatal("VM %u: cannot allocate boot RAM", vmId);
        }
        base::Status mapped = eptMmu->map2m(
            GuestPhysAddr(off), HostPhysAddr(*block * kPageSize));
        // Same story for the EPT tables backing the mapping: an
        // injected AllocFail there is transient, so retry, then fall
        // back to the truncated boot map.
        for (unsigned r = 0;
             !mapped.ok() && fault_injector != nullptr && r < 16; ++r)
            mapped = eptMmu->map2m(
                GuestPhysAddr(off), HostPhysAddr(*block * kPageSize));
        if (!mapped.ok() && fault_injector != nullptr) {
            buddy.freePages(*block, 9);
            base::warn("VM %u: boot RAM truncated at %llu MiB "
                       "(EPT tables)",
                       vmId,
                       static_cast<unsigned long long>(off / 1_MiB));
            break;
        }
        HH_ASSERT(mapped.ok());
        if (vfioContainer)
            vfioContainer->pinRange(*block, kPagesPerHugePage);
        bootBlocks.push_back(*block);
    }

    virtio::VirtioMemConfig mem_cfg;
    mem_cfg.regionStart = kVirtioMemRegionStart;
    mem_cfg.regionSize = cfg.virtioMemRegionSize;
    mem_cfg.initialPlugged = cfg.virtioMemPlugged;
    mem_cfg.quarantine = cfg.quarantine;
    memDevice = std::make_unique<virtio::VirtioMemDevice>(
        dram, buddy, *eptMmu, vfioContainer.get(), mem_cfg, vmId,
        fault_injector);
    memDrv = std::make_unique<virtio::VirtioMemDriver>(*memDevice);

    if (cfg.balloon) {
        // Restrict ballooning to boot RAM so balloon holes never
        // overlap virtio-mem sub-blocks (the two overcommit devices
        // manage disjoint regions in this model).
        balloonDev = std::make_unique<virtio::VirtioBalloonDevice>(
            dram, buddy, *eptMmu, vmId, GuestPhysAddr(0),
            cfg.bootMemBytes, fault_injector);
    }
}

VirtualMachine::VirtualMachine(dram::DramSystem &dram,
                               mm::BuddyAllocator &buddy, VmConfig config,
                               uint16_t vm_id,
                               fault::FaultInjector *fault_injector,
                               base::RestoreTag)
    : dram(dram), buddy(buddy), cfg(config), vmId(vm_id)
{
    HH_ASSERT(cfg.bootMemBytes % kHugePageSize == 0);
    HH_ASSERT(cfg.bootMemBytes <= kVirtioMemRegionStart.value());

    // Shells only: every allocation the boot path would perform is
    // already accounted for in the snapshot's buddy/DRAM state.
    eptMmu = std::make_unique<kvm::Mmu>(dram, buddy, cfg.mmu, vmId,
                                        base::RestoreTag{});
    if (cfg.passthroughDevices > 0) {
        vfioContainer = std::make_unique<iommu::VfioContainer>(
            dram, buddy, cfg.iommu, vmId);
    }

    virtio::VirtioMemConfig mem_cfg;
    mem_cfg.regionStart = kVirtioMemRegionStart;
    mem_cfg.regionSize = cfg.virtioMemRegionSize;
    mem_cfg.initialPlugged = cfg.virtioMemPlugged;
    mem_cfg.quarantine = cfg.quarantine;
    memDevice = std::make_unique<virtio::VirtioMemDevice>(
        dram, buddy, *eptMmu, vfioContainer.get(), mem_cfg, vmId,
        fault_injector, base::RestoreTag{});
    memDrv = std::make_unique<virtio::VirtioMemDriver>(*memDevice);

    if (cfg.balloon) {
        balloonDev = std::make_unique<virtio::VirtioBalloonDevice>(
            dram, buddy, *eptMmu, vmId, GuestPhysAddr(0),
            cfg.bootMemBytes, fault_injector);
    }
}

VirtualMachine::~VirtualMachine()
{
    // A discarded world takes every frame with it, so the teardown
    // below -- and each device's own -- is skipped
    // (sys::HostSystem::discardTrial).
    if (buddy.discarding())
        return;
    // Order matters: the virtio-mem device unplugs its blocks through
    // the MMU and VFIO container, so tear it down first.
    balloonDev.reset();
    memDrv.reset();
    memDevice.reset();

    for (Pfn block : bootBlocks) {
        if (vfioContainer)
            vfioContainer->unpinRange(block, kPagesPerHugePage);
        if (buddy.blockUniformlyOwned(block, 9,
                                      mm::PageUse::GuestMemory,
                                      vmId)) {
            for (uint64_t i = 0; i < kPagesPerHugePage; ++i)
                dram.backend().clearPage(block + i);
            buddy.freePages(block, 9);
            continue;
        }
        // Ballooned-out pages punched holes into the block: free the
        // frames this VM still owns, one by one.
        for (uint64_t i = 0; i < kPagesPerHugePage; ++i) {
            const mm::PageFrame &frame = buddy.frame(block + i);
            if (frame.free || frame.owner != vmId
                || frame.use != mm::PageUse::GuestMemory) {
                continue;
            }
            dram.backend().clearPage(block + i);
            buddy.freePages(block + i, 0);
        }
    }
    bootBlocks.clear();

    vfioContainer.reset();
    eptMmu.reset();
}

base::Expected<uint64_t>
VirtualMachine::read64(GuestPhysAddr gpa)
{
    auto hpa = eptMmu->translate(gpa);
    if (!hpa)
        return hpa.error();
    // A corrupted EPTE can point beyond physical memory; the access
    // then machine-faults instead of returning data.
    if (!dram.backend().contains(*hpa))
        return base::ErrorCode::Fault;
    return dram.read64(*hpa);
}

base::Status
VirtualMachine::write64(GuestPhysAddr gpa, uint64_t value)
{
    kvm::AccessResult result = eptMmu->access(gpa, kvm::Access::Write);
    if (result.status.error() == base::ErrorCode::Denied
        && writeFaultHandler) {
        // VM exit: the host breaks the copy-on-write sharing, then
        // the guest's store retries.
        const base::Status handled = writeFaultHandler(*this, gpa);
        if (!handled.ok())
            return handled;
        result = eptMmu->access(gpa, kvm::Access::Write);
    }
    if (!result.status.ok())
        return result.status;
    if (!dram.backend().contains(result.hpa))
        return base::ErrorCode::Fault;
    dram.write64(result.hpa, value);
    return base::Status::success();
}

base::Status
VirtualMachine::fillHugePage(GuestPhysAddr gpa, uint64_t pattern)
{
    if (!gpa.hugePageAligned())
        return base::ErrorCode::InvalidArgument;
    const std::vector<Pfn> frames = eptMmu->leafFrames(gpa);
    bool any = false;
    for (Pfn pfn : frames) {
        if (pfn == kInvalidPfn || pfn >= dram.pageCount())
            continue;
        dram.fillPage(pfn, pattern);
        any = true;
    }
    return any ? base::Status::success()
               : base::Status(base::ErrorCode::NotFound);
}

base::Status
VirtualMachine::fillPage(GuestPhysAddr gpa, uint64_t pattern)
{
    if (!gpa.pageAligned())
        return base::ErrorCode::InvalidArgument;
    auto hpa = eptMmu->translate(gpa);
    if (!hpa)
        return base::Status(hpa.error());
    if (!dram.backend().contains(*hpa))
        return base::ErrorCode::Fault;
    dram.fillPage(hpa->pfn(), pattern);
    return base::Status::success();
}

base::Expected<std::vector<GuestPhysAddr>>
VirtualMachine::scanHugePage(GuestPhysAddr gpa, uint64_t expected)
{
    if (!gpa.hugePageAligned())
        return base::ErrorCode::InvalidArgument;
    // Resolve every 4 KB page separately: after an EPTE flip the pages
    // of a demoted hugepage are no longer physically contiguous, and
    // the scan must follow the *current* (possibly corrupted) mapping
    // exactly like real guest loads would.
    const std::vector<Pfn> frames = eptMmu->leafFrames(gpa);
    std::vector<GuestPhysAddr> mismatches;
    for (uint64_t i = 0; i < kPagesPerHugePage; ++i) {
        if (frames[i] == kInvalidPfn || frames[i] >= dram.pageCount())
            continue;
        for (uint16_t word : dram.scanPage(frames[i], expected)) {
            mismatches.push_back(gpa + i * kPageSize
                                 + static_cast<uint64_t>(word) * 8);
        }
    }
    return mismatches;
}

kvm::AccessResult
VirtualMachine::execute(GuestPhysAddr gpa)
{
    return eptMmu->access(gpa, kvm::Access::Exec);
}

unsigned
VirtualMachine::hammer(const std::vector<GuestPhysAddr> &aggressors,
                       uint64_t rounds)
{
    std::vector<HostPhysAddr> hpas;
    hpas.reserve(aggressors.size());
    for (GuestPhysAddr gpa : aggressors) {
        auto hpa = eptMmu->translate(gpa);
        if (hpa)
            hpas.push_back(*hpa);
    }
    if (!hpas.empty())
        dram.hammer(hpas, rounds);
    return static_cast<unsigned>(hpas.size());
}

std::vector<dram::FlipEvent>
VirtualMachine::hammerCollect(
    const std::vector<GuestPhysAddr> &aggressors, uint64_t rounds)
{
    std::vector<HostPhysAddr> hpas;
    hpas.reserve(aggressors.size());
    for (GuestPhysAddr gpa : aggressors) {
        auto hpa = eptMmu->translate(gpa);
        if (hpa && dram.backend().contains(*hpa))
            hpas.push_back(*hpa);
    }
    if (hpas.empty())
        return {};
    return dram.hammer(hpas, rounds);
}

base::Status
VirtualMachine::iommuMap(iommu::GroupId group, IoVirtAddr iova,
                         GuestPhysAddr gpa)
{
    if (!vfioContainer)
        return base::ErrorCode::InvalidArgument;
    auto hpa = eptMmu->translate(gpa.pageBase());
    if (!hpa)
        return base::Status(hpa.error());
    return vfioContainer->mapDma(group, iova, *hpa);
}

base::Status
VirtualMachine::iommuUnmap(iommu::GroupId group, IoVirtAddr iova)
{
    if (!vfioContainer)
        return base::ErrorCode::InvalidArgument;
    return vfioContainer->unmapDma(group, iova);
}

uint32_t
VirtualMachine::iommuGroupCount() const
{
    return vfioContainer ? vfioContainer->groupCount() : 0;
}

base::Expected<HostPhysAddr>
VirtualMachine::debugTranslate(GuestPhysAddr gpa) const
{
    return eptMmu->translate(gpa);
}

std::vector<GuestPhysAddr>
VirtualMachine::hugePageGpas() const
{
    std::vector<GuestPhysAddr> gpas;
    for (uint64_t off = 0; off < cfg.bootMemBytes; off += kHugePageSize)
        gpas.push_back(GuestPhysAddr(off));
    for (virtio::SubBlockId sb = 0; sb < memDevice->subBlockCount();
         ++sb) {
        if (memDevice->isPlugged(sb))
            gpas.push_back(memDevice->subBlockGpa(sb));
    }
    return gpas;
}

void
VirtualMachine::saveState(base::ArchiveWriter &w) const
{
    w.u16(vmId);
    eptMmu->saveState(w);
    w.boolean(vfioContainer != nullptr);
    if (vfioContainer) {
        vfioContainer->saveState(w);
        std::vector<uint64_t> group_ids(groups.begin(), groups.end());
        w.u64vec(group_ids);
    }
    memDevice->saveState(w);
    memDrv->saveState(w);
    w.boolean(balloonDev != nullptr);
    if (balloonDev)
        balloonDev->saveState(w);
    w.u64vec(bootBlocks);
}

base::Status
VirtualMachine::loadState(base::ArchiveReader &r)
{
    const uint16_t saved_id = r.u16();
    if (r.ok() && saved_id != vmId)
        r.fail();
    if (!r.ok())
        return r.status();
    if (base::Status s = eptMmu->loadState(r); !s.ok())
        return s;
    const bool has_vfio = r.boolean();
    if (!r.ok() || has_vfio != (vfioContainer != nullptr))
        return base::Status(base::ErrorCode::InvalidArgument);
    if (vfioContainer) {
        if (base::Status s = vfioContainer->loadState(r); !s.ok())
            return s;
        const std::vector<uint64_t> group_ids = r.u64vec();
        if (!r.ok() || group_ids.size() != vfioContainer->groupCount())
            return base::Status(base::ErrorCode::InvalidArgument);
        groups.assign(group_ids.begin(), group_ids.end());
    }
    if (base::Status s = memDevice->loadState(r); !s.ok())
        return s;
    if (base::Status s = memDrv->loadState(r); !s.ok())
        return s;
    const bool has_balloon = r.boolean();
    if (!r.ok() || has_balloon != (balloonDev != nullptr))
        return base::Status(base::ErrorCode::InvalidArgument);
    if (balloonDev) {
        if (base::Status s = balloonDev->loadState(r); !s.ok())
            return s;
    }
    std::vector<Pfn> blocks = r.u64vec();
    for (Pfn block : blocks) {
        if (block + kPagesPerHugePage > buddy.totalPages())
            return base::Status(base::ErrorCode::InvalidArgument);
    }
    if (!r.ok())
        return r.status();
    bootBlocks = std::move(blocks);
    return base::Status::success();
}

} // namespace hh::vm
