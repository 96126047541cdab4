#include "virtio_mem.h"

#include "base/log.h"

namespace hh::virtio {

VirtioMemDevice::VirtioMemDevice(dram::DramSystem &dram,
                                 mm::BuddyAllocator &buddy, kvm::Mmu &mmu,
                                 iommu::VfioContainer *vfio,
                                 VirtioMemConfig config, uint16_t owner_id,
                                 fault::FaultInjector *fault_injector)
    : dram(dram),
      buddy(buddy),
      mmu(mmu),
      vfio(vfio),
      cfg(config),
      owner(owner_id),
      faultInjector(fault_injector)
{
    HH_ASSERT(cfg.regionStart.hugePageAligned());
    HH_ASSERT(cfg.regionSize % kHugePageSize == 0);
    HH_ASSERT(cfg.initialPlugged <= cfg.regionSize);
    HH_ASSERT(cfg.initialPlugged % kHugePageSize == 0);

    plugged.assign(cfg.regionSize / kHugePageSize, false);
    backing.assign(plugged.size(), kInvalidPfn);
    requestedBytes = cfg.initialPlugged;
    for (SubBlockId sb = 0; sb < cfg.initialPlugged / kHugePageSize;
         ++sb) {
        const base::Status status = plugBacking(sb);
        if (!status.ok()) {
            // Graceful degradation: requestedBytes keeps the full
            // initial target, so the driver's next converge() retries
            // the remaining sub-blocks once memory frees up.
            base::warn("virtio-mem: deferring initial sub-block "
                       "%llu: %s",
                       static_cast<unsigned long long>(sb),
                       base::errorName(status.error()));
            break;
        }
    }
}

VirtioMemDevice::VirtioMemDevice(dram::DramSystem &dram,
                                 mm::BuddyAllocator &buddy, kvm::Mmu &mmu,
                                 iommu::VfioContainer *vfio,
                                 VirtioMemConfig config, uint16_t owner_id,
                                 fault::FaultInjector *fault_injector,
                                 base::RestoreTag)
    : dram(dram),
      buddy(buddy),
      mmu(mmu),
      vfio(vfio),
      cfg(config),
      owner(owner_id),
      faultInjector(fault_injector)
{
    // No initial plugging: the snapshot's plugged/backing state (and
    // the matching buddy/EPT/pin state) arrives via loadState().
    plugged.assign(cfg.regionSize / kHugePageSize, false);
    backing.assign(plugged.size(), kInvalidPfn);
}

VirtioMemDevice::~VirtioMemDevice()
{
    if (buddy.discarding())
        return;
    // Release remaining plugged blocks back to the host (VM teardown).
    for (SubBlockId sb = 0; sb < plugged.size(); ++sb) {
        if (plugged[sb])
            unplugBacking(sb);
    }
}

bool
VirtioMemDevice::isPlugged(SubBlockId sb) const
{
    HH_ASSERT(sb < plugged.size());
    return plugged[sb];
}

base::Status
VirtioMemDevice::plugBacking(SubBlockId sb)
{
    HH_ASSERT(!plugged[sb]);
    // THP on the host: the backing is one physically contiguous
    // order-9 block, mapped as a single 2 MB EPT leaf.
    auto block = buddy.allocPages(9, mm::MigrateType::Movable,
                                  mm::PageUse::GuestMemory, owner);
    if (!block)
        return block.error();
    const base::Status mapped =
        mmu.map2m(subBlockGpa(sb), HostPhysAddr(*block * kPageSize));
    if (!mapped.ok()) {
        buddy.freePages(*block, 9);
        return mapped;
    }
    if (vfio)
        vfio->pinRange(*block, kPagesPerHugePage);
    plugged[sb] = true;
    backing[sb] = *block;
    pluggedBytes += kHugePageSize;
    return base::Status::success();
}

void
VirtioMemDevice::unplugBacking(SubBlockId sb)
{
    HH_ASSERT(plugged[sb]);
    const Pfn block = backing[sb];
    HH_ASSERT(block != kInvalidPfn);

    // The leaf EPT mapping may be a 2 MB leaf or (after a demotion or
    // even guest-induced corruption) 4 KB entries; either way the
    // device tears down everything covering the sub-block's GPAs.
    // hh-lint: allow(status-discard) -- a corrupted range can be partially unmapped already; teardown proceeds regardless
    (void)mmu.unmapHugeRange(subBlockGpa(sb));
    if (vfio)
        vfio->unpinRange(block, kPagesPerHugePage);
    // madvise(MADV_DONTNEED) on a pinned-then-unpinned THP range: the
    // backing returns to the buddy system as one order-9 block that
    // keeps its unmovable character (Section 4.2.2).
    const mm::MigrateType release_type = vfio
        ? mm::MigrateType::Unmovable : mm::MigrateType::Movable;
    if (buddy.blockUniformlyOwned(block, 9, mm::PageUse::GuestMemory,
                                  owner)) {
        for (uint64_t i = 0; i < kPagesPerHugePage; ++i)
            dram.backend().clearPage(block + i);
        buddy.freePagesAs(block, 9, release_type);
    } else {
        // Defensive: something (e.g. a balloon hole) took frames out
        // of the block; release only what this VM still owns.
        for (uint64_t i = 0; i < kPagesPerHugePage; ++i) {
            const mm::PageFrame &frame = buddy.frame(block + i);
            if (frame.free || frame.owner != owner
                || frame.use != mm::PageUse::GuestMemory) {
                continue;
            }
            dram.backend().clearPage(block + i);
            buddy.freePagesAs(block + i, 0, release_type);
        }
    }
    plugged[sb] = false;
    backing[sb] = kInvalidPfn;
    pluggedBytes -= kHugePageSize;
    devStats.releasedBlockPfns.push_back(block);
}

bool
VirtioMemDevice::quarantineRejects(int64_t delta)
{
    if (!cfg.quarantine.enabled)
        return false;
    if (cfg.quarantine.windowRequests > 0) {
        if (windowRequestCount >= cfg.quarantine.windowRequests) {
            windowRequestCount = 0;
            graceUsed = 0;
        }
        ++windowRequestCount;
    }
    if (!cfg.quarantine.suspicious(delta, requestedBytes,
                                   pluggedBytes)) {
        return false;
    }
    if (graceUsed < cfg.quarantine.graceRequests) {
        ++graceUsed;
        return false;
    }
    return true;
}

base::Status
VirtioMemDevice::requestPlug(SubBlockId sb)
{
    ++devStats.plugRequests;
    if (sb >= plugged.size())
        return base::ErrorCode::InvalidArgument;
    if (plugged[sb])
        return base::ErrorCode::Exists;
    if (quarantineRejects(static_cast<int64_t>(kHugePageSize))) {
        ++devStats.nackedRequests;
        return base::ErrorCode::Denied;
    }
    return plugBacking(sb);
}

base::Status
VirtioMemDevice::requestUnplug(SubBlockId sb)
{
    ++devStats.unplugRequests;
    if (sb >= plugged.size())
        return base::ErrorCode::InvalidArgument;
    if (!plugged[sb])
        return base::ErrorCode::NotFound;
    if (quarantineRejects(-static_cast<int64_t>(kHugePageSize))) {
        ++devStats.nackedRequests;
        return base::ErrorCode::Denied;
    }
    // Delayed reclaim: the host defers the madvise this round (e.g.
    // the block is still under writeback); the guest may retry.
    if (const fault::FaultEntry *f = HH_FAULT_POINT(
            faultInjector, fault::FaultSite::VirtioUnplug)) {
        if (f->kind == fault::FaultKind::DelayedReclaim) {
            ++devStats.deferredUnplugs;
            return base::ErrorCode::Busy;
        }
    }
    unplugBacking(sb);
    return base::Status::success();
}

uint64_t
VirtioMemDriver::converge()
{
    uint64_t changed = 0;
    // Plug path: lowest unplugged sub-blocks first (the stock driver's
    // "big block manager" walks the region in order).
    while (device.pluggedSize() < device.requestedSize()
           && !suppressPlug) {
        bool progressed = false;
        for (SubBlockId sb = 0; sb < device.subBlockCount(); ++sb) {
            if (device.isPlugged(sb))
                continue;
            if (device.requestPlug(sb).ok()) {
                ++changed;
                progressed = true;
            }
            break;
        }
        if (!progressed)
            break;
    }
    // Unplug path: highest plugged sub-blocks first.
    while (device.pluggedSize() > device.requestedSize()) {
        bool progressed = false;
        for (SubBlockId sb = device.subBlockCount(); sb-- > 0;) {
            if (!device.isPlugged(sb))
                continue;
            if (device.requestUnplug(sb).ok()) {
                ++changed;
                progressed = true;
            }
            break;
        }
        if (!progressed)
            break;
    }
    return changed;
}

base::Status
VirtioMemDriver::unplugSpecific(GuestPhysAddr gpa)
{
    if (!device.contains(gpa))
        return base::ErrorCode::InvalidArgument;
    return device.requestUnplug(device.subBlockOf(gpa));
}

base::Status
VirtioMemDriver::plugWithRetry(SubBlockId sb)
{
    base::Status status = device.requestPlug(sb);
    if (status.ok())
        return status;
    // Stock Linux behaviour on plug failure: unplug the (partially
    // prepared) block, then retry once. From the device's viewpoint
    // the unplug arrives while plugged < requested -- exactly the
    // pattern a naive quarantine flags as malicious (Section 6).
    if (device.isPlugged(sb))
        (void)device.requestUnplug(sb);
    return device.requestPlug(sb);
}

void
VirtioMemDevice::saveState(base::ArchiveWriter &w) const
{
    w.u64(plugged.size());
    for (size_t sb = 0; sb < plugged.size(); ++sb)
        w.boolean(plugged[sb]);
    w.u64vec(backing);
    w.u64(pluggedBytes);
    w.u64(requestedBytes);
    w.u64(devStats.plugRequests);
    w.u64(devStats.unplugRequests);
    w.u64(devStats.nackedRequests);
    w.u64(devStats.deferredUnplugs);
    w.u64vec(devStats.releasedBlockPfns);
    w.u64(graceUsed);
    w.u64(windowRequestCount);
}

base::Status
VirtioMemDevice::loadState(base::ArchiveReader &r)
{
    const uint64_t sub_blocks = r.u64();
    if (r.ok() && sub_blocks != plugged.size())
        r.fail();
    std::vector<bool> new_plugged(r.ok() ? sub_blocks : 0);
    for (size_t sb = 0; sb < new_plugged.size() && r.ok(); ++sb)
        new_plugged[sb] = r.boolean();
    std::vector<Pfn> new_backing = r.u64vec();
    if (r.ok() && new_backing.size() != backing.size())
        r.fail();
    const uint64_t new_plugged_bytes = r.u64();
    const uint64_t new_requested_bytes = r.u64();
    VirtioMemStats stats;
    stats.plugRequests = r.u64();
    stats.unplugRequests = r.u64();
    stats.nackedRequests = r.u64();
    stats.deferredUnplugs = r.u64();
    stats.releasedBlockPfns = r.u64vec();
    const uint64_t new_grace_used = r.u64();
    const uint64_t new_window_count = r.u64();
    for (size_t sb = 0; sb < new_backing.size() && r.ok(); ++sb) {
        // A plugged sub-block must have in-range backing; an unplugged
        // one must not claim any (the teardown path trusts this).
        const bool has_backing = new_backing[sb] != kInvalidPfn;
        if (new_plugged[sb] != has_backing
            || (has_backing
                && new_backing[sb] + kPagesPerHugePage
                       > buddy.totalPages())) {
            r.fail();
        }
    }
    if (!r.ok())
        return r.status();
    plugged = std::move(new_plugged);
    backing = std::move(new_backing);
    pluggedBytes = new_plugged_bytes;
    requestedBytes = new_requested_bytes;
    devStats = std::move(stats);
    graceUsed = new_grace_used;
    windowRequestCount = new_window_count;
    return base::Status::success();
}

} // namespace hh::virtio
