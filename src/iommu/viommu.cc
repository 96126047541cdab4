#include "viommu.h"

#include "base/bitops.h"
#include "base/log.h"

namespace hh::iommu {

namespace {

constexpr uint64_t kFrameLoBit = 12;
constexpr uint64_t kFrameHiBit = 47;

constexpr bool
present(uint64_t entry)
{
    return (entry & (kIoptRead | kIoptWrite)) != 0;
}

constexpr Pfn
frameOf(uint64_t entry)
{
    return base::bits(entry, kFrameHiBit, kFrameLoBit);
}

constexpr uint64_t
makeEntry(Pfn frame)
{
    return (frame << kFrameLoBit) | kIoptRead | kIoptWrite;
}

} // namespace

IoPageTable::IoPageTable(dram::DramSystem &dram, mm::BuddyAllocator &buddy,
                         uint16_t owner_id)
    : dram(dram), buddy(buddy), owner(owner_id)
{
    auto page = allocTablePage();
    // An injected AllocFail can land on the root allocation; retry a
    // few occurrences. A genuine OOM fails every retry identically and
    // still reaches the fatal, so the fault-free path is unchanged.
    for (unsigned r = 0; !page && r < 16; ++r)
        page = allocTablePage();
    if (!page)
        base::fatal("cannot allocate IOPT root: host out of memory");
    root = *page;
}

IoPageTable::IoPageTable(dram::DramSystem &dram,
                         mm::BuddyAllocator &buddy, uint16_t owner_id,
                         base::RestoreTag)
    : dram(dram), buddy(buddy), owner(owner_id)
{
    // No root allocation: loadState() installs the snapshot's frames.
}

IoPageTable::~IoPageTable()
{
    if (buddy.discarding())
        return;
    for (Pfn pfn : tablePages) {
        dram.backend().clearPage(pfn);
        buddy.freePages(pfn, 0);
    }
}

base::Expected<Pfn>
IoPageTable::allocTablePage()
{
    auto page = buddy.allocPages(0, mm::MigrateType::Unmovable,
                                 mm::PageUse::IoptPage, owner);
    if (!page)
        return page;
    dram.fillPage(*page, 0);
    tablePages.push_back(*page);
    return page;
}

base::Status
IoPageTable::map(IoVirtAddr iova, HostPhysAddr hpa)
{
    if (!hpa.pageAligned() || iova.pageOffset() != 0)
        return base::ErrorCode::InvalidArgument;
    Pfn table = root;
    for (unsigned level = kIoptLevels; level > 1; --level) {
        const unsigned idx = index(iova, level);
        uint64_t entry = dram.read64(entryAddr(table, idx));
        if (!present(entry)) {
            auto next = allocTablePage();
            if (!next)
                return next.error();
            entry = makeEntry(*next);
            dram.write64(entryAddr(table, idx), entry);
        }
        table = frameOf(entry);
    }
    const unsigned idx = index(iova, 1);
    if (present(dram.read64(entryAddr(table, idx))))
        return base::ErrorCode::Exists;
    dram.write64(entryAddr(table, idx), makeEntry(hpa.pfn()));
    return base::Status::success();
}

base::Status
IoPageTable::unmap(IoVirtAddr iova)
{
    Pfn table = root;
    for (unsigned level = kIoptLevels; level > 1; --level) {
        const uint64_t entry =
            dram.read64(entryAddr(table, index(iova, level)));
        if (!present(entry))
            return base::ErrorCode::NotFound;
        table = frameOf(entry);
    }
    const unsigned idx = index(iova, 1);
    if (!present(dram.read64(entryAddr(table, idx))))
        return base::ErrorCode::NotFound;
    dram.write64(entryAddr(table, idx), 0);
    return base::Status::success();
}

base::Expected<HostPhysAddr>
IoPageTable::translate(IoVirtAddr iova) const
{
    Pfn table = root;
    for (unsigned level = kIoptLevels; level >= 1; --level) {
        const uint64_t entry =
            dram.read64(entryAddr(table, index(iova, level)));
        if (!present(entry))
            return base::ErrorCode::NotFound;
        if (level == 1) {
            return HostPhysAddr((frameOf(entry) << kPageShift)
                                + iova.pageOffset());
        }
        table = frameOf(entry);
    }
    return base::ErrorCode::NotFound;
}

VfioContainer::VfioContainer(dram::DramSystem &dram,
                             mm::BuddyAllocator &buddy, IommuConfig config,
                             uint16_t owner_id)
    : dram(dram), buddy(buddy), cfg(config), owner(owner_id)
{}

GroupId
VfioContainer::addGroup()
{
    Group group;
    group.table = std::make_unique<IoPageTable>(dram, buddy, owner);
    groups.push_back(std::move(group));
    return static_cast<GroupId>(groups.size() - 1);
}

base::Status
VfioContainer::mapDma(GroupId group, IoVirtAddr iova, HostPhysAddr hpa)
{
    if (group >= groups.size())
        return base::ErrorCode::InvalidArgument;
    Group &g = groups[group];
    if (g.mappings >= cfg.maxMappingsPerGroup)
        return base::ErrorCode::LimitExceeded;
    const base::Status status = g.table->map(iova, hpa);
    if (status.ok())
        ++g.mappings;
    return status;
}

base::Status
VfioContainer::unmapDma(GroupId group, IoVirtAddr iova)
{
    if (group >= groups.size())
        return base::ErrorCode::InvalidArgument;
    Group &g = groups[group];
    const base::Status status = g.table->unmap(iova);
    if (status.ok())
        --g.mappings;
    return status;
}

base::Expected<uint64_t>
VfioContainer::dmaRead64(GroupId group, IoVirtAddr iova)
{
    if (group >= groups.size())
        return base::ErrorCode::InvalidArgument;
    auto hpa = groups[group].table->translate(iova);
    if (!hpa)
        return hpa.error();
    return dram.read64(*hpa);
}

base::Status
VfioContainer::dmaWrite64(GroupId group, IoVirtAddr iova, uint64_t value)
{
    if (group >= groups.size())
        return base::ErrorCode::InvalidArgument;
    auto hpa = groups[group].table->translate(iova);
    if (!hpa)
        return base::Status(hpa.error());
    dram.write64(*hpa, value);
    return base::Status::success();
}

uint32_t
VfioContainer::mappingCount(GroupId group) const
{
    HH_ASSERT(group < groups.size());
    return groups[group].mappings;
}

uint64_t
VfioContainer::ioptPageCount() const
{
    uint64_t count = 0;
    for (const Group &g : groups)
        count += g.table->tablePageCount();
    return count;
}

void
VfioContainer::pinRange(Pfn first, uint64_t count)
{
    for (uint64_t i = 0; i < count; ++i) {
        buddy.setPinned(first + i, true);
        // Pinned pages cannot be migrated: Linux marks them unmovable
        // so compaction and NUMA balancing skip them (Section 2.6).
        buddy.setMigrateType(first + i, mm::MigrateType::Unmovable);
        buddy.setUse(first + i, mm::PageUse::GuestMemory, owner);
    }
}

void
VfioContainer::unpinRange(Pfn first, uint64_t count)
{
    for (uint64_t i = 0; i < count; ++i)
        buddy.setPinned(first + i, false);
}

void
IoPageTable::saveState(base::ArchiveWriter &w) const
{
    w.u64(root);
    w.u64vec(tablePages);
}

base::Status
IoPageTable::loadState(base::ArchiveReader &r)
{
    const Pfn new_root = r.u64();
    std::vector<Pfn> tables = r.u64vec();
    if (r.ok() && new_root >= dram.pageCount())
        r.fail();
    for (Pfn pfn : tables) {
        if (pfn >= dram.pageCount()) {
            r.fail();
            break;
        }
    }
    if (!r.ok())
        return r.status();
    root = new_root;
    tablePages = std::move(tables);
    return base::Status::success();
}

void
VfioContainer::saveState(base::ArchiveWriter &w) const
{
    w.u64(groups.size());
    for (const Group &g : groups) {
        w.u32(g.mappings);
        g.table->saveState(w);
    }
}

base::Status
VfioContainer::loadState(base::ArchiveReader &r)
{
    const uint64_t group_count = r.count(12);
    std::vector<Group> loaded;
    loaded.reserve(group_count);
    for (uint64_t i = 0; i < group_count && r.ok(); ++i) {
        Group g;
        g.mappings = r.u32();
        g.table = std::make_unique<IoPageTable>(dram, buddy, owner,
                                                base::RestoreTag{});
        if (base::Status s = g.table->loadState(r); !s.ok())
            return s;
        loaded.push_back(std::move(g));
    }
    if (!r.ok())
        return r.status();
    groups = std::move(loaded);
    return base::Status::success();
}

} // namespace hh::iommu
