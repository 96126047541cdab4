#include "virtio_balloon.h"

#include "base/container_util.h"
#include "base/log.h"

namespace hh::virtio {

VirtioBalloonDevice::~VirtioBalloonDevice()
{
    if (buddy.discarding())
        return;
    // Replacement frames are not part of any original backing block;
    // return them before the block-wise teardown runs. GPA-sorted so
    // the allocator's free lists end up in a reproducible state.
    for (const auto &[gpa, frame] : base::sortedItems(replacements)) {
        if (inflated.count(gpa))
            continue; // re-inflated after a deflate: frame is gone
        if (const base::Status s = mmu.unmap(GuestPhysAddr(gpa)); !s.ok())
            base::warn("balloon teardown: unmap(%#llx) failed: %s",
                       static_cast<unsigned long long>(gpa),
                       base::errorName(s.error()));
        dram.backend().clearPage(frame);
        buddy.freePages(frame, 0);
    }
}

base::Status
VirtioBalloonDevice::inflatePage(GuestPhysAddr gpa)
{
    if (!gpa.pageAligned())
        return base::ErrorCode::InvalidArgument;
    if (regionBytes
        && (gpa < regionStart || gpa >= regionStart + regionBytes))
        return base::ErrorCode::InvalidArgument;
    if (inflated.count(gpa.value()))
        return base::ErrorCode::Exists;
    // Delayed reclaim: the host queues the inflate but cannot free the
    // page this round; the guest may retry.
    if (const fault::FaultEntry *f = HH_FAULT_POINT(
            faultInjector, fault::FaultSite::BalloonInflate)) {
        if (f->kind == fault::FaultKind::DelayedReclaim)
            return base::ErrorCode::Busy;
    }
    auto leaf = mmu.leafEntry(gpa);
    if (!leaf)
        return base::Status(leaf.error());
    if (leaf->largePage()) {
        // The guest must split hugepage-backed ranges before
        // ballooning them; the device rejects 2 MB leaves.
        return base::ErrorCode::InvalidArgument;
    }
    auto hpa = mmu.translate(gpa);
    if (!hpa)
        return base::Status(hpa.error());
    const base::Status unmapped = mmu.unmap(gpa);
    if (!unmapped.ok())
        return unmapped;
    dram.backend().clearPage(hpa->pfn());
    // Balloon pages free back with their existing (movable) type:
    // without VFIO nothing made them unmovable (Section 6).
    buddy.freePages(hpa->pfn(), 0);
    inflated.insert(gpa.value());
    return base::Status::success();
}

base::Status
VirtioBalloonDevice::deflatePage(GuestPhysAddr gpa)
{
    if (!inflated.count(gpa.value()))
        return base::ErrorCode::NotFound;
    auto page = buddy.allocPages(0, mm::MigrateType::Movable,
                                 mm::PageUse::GuestMemory, owner);
    if (!page)
        return page.error();
    const base::Status mapped =
        mmu.map4k(gpa, HostPhysAddr(*page * kPageSize), false);
    if (!mapped.ok()) {
        buddy.freePages(*page, 0);
        return mapped;
    }
    inflated.erase(gpa.value());
    replacements[gpa.value()] = *page;
    return base::Status::success();
}

void
VirtioBalloonDevice::saveState(base::ArchiveWriter &w) const
{
    w.u64vec(base::sortedKeys(inflated));
    w.u64(replacements.size());
    for (const auto &[gpa, pfn] : base::sortedItems(replacements)) {
        w.u64(gpa);
        w.u64(pfn);
    }
}

base::Status
VirtioBalloonDevice::loadState(base::ArchiveReader &r)
{
    const std::vector<uint64_t> inflated_gpas = r.u64vec();
    const uint64_t replacement_count = r.count(16);
    std::unordered_map<uint64_t, Pfn> new_replacements;
    new_replacements.reserve(replacement_count);
    for (uint64_t i = 0; i < replacement_count && r.ok(); ++i) {
        const uint64_t gpa = r.u64();
        const Pfn pfn = r.u64();
        if (pfn >= buddy.totalPages()) {
            r.fail();
            break;
        }
        new_replacements[gpa] = pfn;
    }
    if (!r.ok())
        return r.status();
    inflated.clear();
    inflated.insert(inflated_gpas.begin(), inflated_gpas.end());
    replacements = std::move(new_replacements);
    return base::Status::success();
}

} // namespace hh::virtio
