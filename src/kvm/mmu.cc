#include "mmu.h"

#include "base/log.h"

namespace hh::kvm {

Mmu::Mmu(dram::DramSystem &dram, mm::BuddyAllocator &buddy,
         MmuConfig config, uint16_t owner_id)
    : dram(dram),
      buddy(buddy),
      cfg(config),
      owner(owner_id),
      rng(base::mix64(dram.config().seed, owner_id))
{
    auto page = allocTablePage();
    if (!page)
        base::fatal("cannot allocate EPT root: host out of memory");
    root = *page;
}

Mmu::Mmu(dram::DramSystem &dram, mm::BuddyAllocator &buddy,
         MmuConfig config, uint16_t owner_id, base::RestoreTag)
    : dram(dram),
      buddy(buddy),
      cfg(config),
      owner(owner_id),
      rng(base::mix64(dram.config().seed, owner_id))
{
    // No root allocation: the snapshot's buddy state already carries
    // the table frames, and loadState() installs their PFNs.
}

Mmu::~Mmu()
{
    if (buddy.discarding())
        return;
    for (Pfn pfn : tablePages) {
        dram.backend().clearPage(pfn);
        buddy.freePages(pfn, 0);
    }
    for (Pfn pfn : metadataPages)
        buddy.freePages(pfn, 0);
}

base::Expected<Pfn>
Mmu::allocTablePage()
{
    auto page = cfg.tableAlloc == TableAllocPolicy::AnyList
        ? buddy.allocPagesAnyType(0, mm::PageUse::EptPage, owner)
        : buddy.allocPages(0, mm::MigrateType::Unmovable,
                           mm::PageUse::EptPage, owner);
    if (!page)
        return page;
    dram.fillPage(*page, 0);
    tablePages.push_back(*page);
    return page;
}

EptEntry
Mmu::readEntry(Pfn table, unsigned index) const
{
    // A corrupted table pointer (rowhammer flip or injected read
    // corruption during the walk) can point beyond physical memory;
    // real hardware raises an EPT misconfiguration there, which we
    // model as a non-present entry rather than a wild read.
    if (table >= dram.pageCount())
        return EptEntry();
    return EptEntry(dram.read64(entryAddr(table, index)));
}

void
Mmu::writeEntry(Pfn table, unsigned index, EptEntry entry)
{
    if (table >= dram.pageCount())
        return;
    dram.write64(entryAddr(table, index), entry.raw());
}

base::Expected<Pfn>
Mmu::walkToLevel(GuestPhysAddr gpa, unsigned target_level, bool create)
{
    Pfn table = root;
    for (unsigned level = kEptLevels; level > target_level; --level) {
        const unsigned index = eptIndex(gpa, level);
        EptEntry entry = readEntry(table, index);
        if (!entry.present()) {
            if (!create)
                return base::ErrorCode::NotFound;
            auto next = allocTablePage();
            if (!next)
                return base::ErrorCode::NoMemory;
            entry = EptEntry::table(*next);
            writeEntry(table, index, entry);
        } else if (level == 2 && entry.largePage()) {
            // A 2 MB leaf sits where we wanted a table.
            return base::ErrorCode::Exists;
        }
        table = entry.frame();
    }
    return table;
}

base::Status
Mmu::map2m(GuestPhysAddr gpa, HostPhysAddr hpa)
{
    if (!gpa.hugePageAligned() || !hpa.hugePageAligned())
        return base::ErrorCode::InvalidArgument;
    auto pd = walkToLevel(gpa, 2, true);
    if (!pd)
        return pd.error();
    const unsigned index = eptIndex(gpa, 2);
    if (readEntry(*pd, index).present())
        return base::ErrorCode::Exists;
    // Under the iTLB-Multihit countermeasure every hugepage mapping is
    // created non-executable (Section 4.2.3, "Countermeasure").
    writeEntry(*pd, index, EptEntry::leaf2m(hpa.pfn(), !cfg.nxHugePages));
    return base::Status::success();
}

base::Status
Mmu::map4k(GuestPhysAddr gpa, HostPhysAddr hpa, bool exec)
{
    if (!gpa.pageAligned() || !hpa.pageAligned())
        return base::ErrorCode::InvalidArgument;
    auto pd = walkToLevel(gpa, 2, true);
    if (!pd)
        return pd.error();
    const unsigned pd_index = eptIndex(gpa, 2);
    EptEntry pde = readEntry(*pd, pd_index);
    if (pde.present() && pde.largePage())
        return base::ErrorCode::Exists;
    if (!pde.present()) {
        auto pt = allocTablePage();
        if (!pt)
            return pt.error();
        pde = EptEntry::table(*pt);
        writeEntry(*pd, pd_index, pde);
    }
    const unsigned pt_index = eptIndex(gpa, 1);
    if (readEntry(pde.frame(), pt_index).present())
        return base::ErrorCode::Exists;
    writeEntry(pde.frame(), pt_index, EptEntry::leaf4k(hpa.pfn(), exec));
    return base::Status::success();
}

base::Status
Mmu::unmap(GuestPhysAddr gpa)
{
    auto pd = walkToLevel(gpa, 2, false);
    if (!pd)
        return base::Status(pd.error());

    const unsigned pd_index = eptIndex(gpa, 2);
    EptEntry pde = readEntry(*pd, pd_index);
    if (!pde.present())
        return base::ErrorCode::NotFound;
    if (pde.largePage()) {
        writeEntry(*pd, pd_index, EptEntry());
        return base::Status::success();
    }
    const unsigned pt_index = eptIndex(gpa, 1);
    if (!readEntry(pde.frame(), pt_index).present())
        return base::ErrorCode::NotFound;
    writeEntry(pde.frame(), pt_index, EptEntry());
    return base::Status::success();
}

base::Status
Mmu::unmapHugeRange(GuestPhysAddr gpa)
{
    if (!gpa.hugePageAligned())
        return base::ErrorCode::InvalidArgument;
    auto pd = walkToLevel(gpa, 2, false);
    if (!pd)
        return base::Status(pd.error());
    const unsigned pd_index = eptIndex(gpa, 2);
    const EptEntry pde = readEntry(*pd, pd_index);
    if (!pde.present())
        return base::ErrorCode::NotFound;
    if (pde.largePage()) {
        writeEntry(*pd, pd_index, EptEntry());
        return base::Status::success();
    }
    for (unsigned i = 0; i < kEntriesPerTable; ++i)
        writeEntry(pde.frame(), i, EptEntry());
    return base::Status::success();
}

base::Expected<HostPhysAddr>
Mmu::translate(GuestPhysAddr gpa) const
{
    Pfn table = root;
    for (unsigned level = kEptLevels; level >= 1; --level) {
        const EptEntry entry = readEntry(table, eptIndex(gpa, level));
        if (!entry.present())
            return base::ErrorCode::NotFound;
        if (level == 2 && entry.largePage()) {
            return HostPhysAddr((entry.frame() << kPageShift)
                                + gpa.hugePageOffset());
        }
        if (level == 1) {
            return HostPhysAddr((entry.frame() << kPageShift)
                                + gpa.pageOffset());
        }
        table = entry.frame();
    }
    return base::ErrorCode::NotFound;
}

base::Expected<EptEntry>
Mmu::leafEntry(GuestPhysAddr gpa) const
{
    Pfn table = root;
    for (unsigned level = kEptLevels; level >= 1; --level) {
        const EptEntry entry = readEntry(table, eptIndex(gpa, level));
        if (!entry.present())
            return base::ErrorCode::NotFound;
        if ((level == 2 && entry.largePage()) || level == 1)
            return entry;
        table = entry.frame();
    }
    return base::ErrorCode::NotFound;
}

std::vector<Pfn>
Mmu::leafFrames(GuestPhysAddr base) const
{
    std::vector<Pfn> frames(kEntriesPerTable, kInvalidPfn);
    HH_ASSERT(base.hugePageAligned());
    // Walk the upper levels once.
    Pfn table = root;
    for (unsigned level = kEptLevels; level > 2; --level) {
        const EptEntry entry = readEntry(table, eptIndex(base, level));
        if (!entry.present())
            return frames;
        table = entry.frame();
    }
    const EptEntry pde = readEntry(table, eptIndex(base, 2));
    if (!pde.present())
        return frames;
    if (pde.largePage()) {
        for (unsigned i = 0; i < kEntriesPerTable; ++i)
            frames[i] = pde.frame() + i;
        return frames;
    }
    for (unsigned i = 0; i < kEntriesPerTable; ++i) {
        const EptEntry pte = readEntry(pde.frame(), i);
        if (pte.present())
            frames[i] = pte.frame();
    }
    return frames;
}

base::Status
Mmu::demote(GuestPhysAddr gpa, Pfn pd_table, unsigned pd_index,
            EptEntry pd_entry)
{
    // The countermeasure splits the hugepage: a fresh EPT page is
    // allocated (this is the primitive Page Steering harvests) and
    // filled with 512 executable 4 KB entries covering the same range.
    auto pt = allocTablePage();
    if (!pt)
        return pt.error();
    const Pfn base_frame = pd_entry.frame();
    for (unsigned i = 0; i < kEntriesPerTable; ++i)
        writeEntry(*pt, i, EptEntry::leaf4k(base_frame + i, true));
    writeEntry(pd_table, pd_index, EptEntry::table(*pt));
    ++demotionCount;

    // Split bookkeeping: rmap array, kvm_mmu_page, page tracking --
    // ordinary unmovable kernel allocations that interleave with the
    // table pages and dilute the attacker's placement (Table 2). The
    // count varies around the configured mean: slab pages are shared
    // between splits, so the per-split demand is batchy, not fixed.
    unsigned metadata = cfg.splitMetadataPages;
    if (metadata > 0)
        metadata = static_cast<unsigned>(
            rng.between(metadata > 1 ? metadata - 1 : 0, metadata + 1));
    for (unsigned i = 0; i < metadata; ++i) {
        auto meta = cfg.tableAlloc == TableAllocPolicy::AnyList
            ? buddy.allocPagesAnyType(0, mm::PageUse::KernelData, owner)
            : buddy.allocPages(0, mm::MigrateType::Unmovable,
                               mm::PageUse::KernelData, owner);
        if (meta)
            metadataPages.push_back(*meta);
    }
    (void)gpa;
    return base::Status::success();
}

base::Status
Mmu::execDuringPageSizeChange(GuestPhysAddr gpa)
{
    auto entry = leafEntry(gpa);
    if (!entry)
        return base::Status(entry.error());
    if (entry->largePage() && entry->executable()
        && cfg.itlbMultihitErratum) {
        // Executable hugepage + concurrent resize + erratum: the CPU
        // can hit both iTLB entries and raises a machine check. This
        // is the DoS the NX-hugepage countermeasure exists to prevent.
        ++machineCheckCount;
        return base::ErrorCode::Fault;
    }
    return access(gpa, Access::Exec).status;
}

base::Status
Mmu::splitHugePage(GuestPhysAddr gpa)
{
    auto pd = walkToLevel(gpa, 2, false);
    if (!pd)
        return base::Status(pd.error());
    const unsigned pd_index = eptIndex(gpa, 2);
    const EptEntry pde = readEntry(*pd, pd_index);
    if (!pde.present())
        return base::ErrorCode::NotFound;
    if (!pde.largePage())
        return base::Status::success(); // already 4 KB granular
    return demote(gpa, *pd, pd_index, pde);
}

/** Walk to the PT entry covering a 4 KB-mapped gpa. */
base::Status
Mmu::setLeafWritable(GuestPhysAddr gpa, bool writable)
{
    auto pd = walkToLevel(gpa, 2, false);
    if (!pd)
        return base::Status(pd.error());
    const EptEntry pde = readEntry(*pd, eptIndex(gpa, 2));
    if (!pde.present() || pde.largePage())
        return base::ErrorCode::NotFound;
    const unsigned pt_index = eptIndex(gpa, 1);
    const EptEntry pte = readEntry(pde.frame(), pt_index);
    if (!pte.present())
        return base::ErrorCode::NotFound;
    const uint64_t raw = writable
        ? pte.raw() | kEptWrite : pte.raw() & ~uint64_t{kEptWrite};
    writeEntry(pde.frame(), pt_index, EptEntry(raw));
    return base::Status::success();
}

base::Status
Mmu::remapLeaf4k(GuestPhysAddr gpa, Pfn frame, bool writable)
{
    auto pd = walkToLevel(gpa, 2, false);
    if (!pd)
        return base::Status(pd.error());
    const EptEntry pde = readEntry(*pd, eptIndex(gpa, 2));
    if (!pde.present() || pde.largePage())
        return base::ErrorCode::NotFound;
    const unsigned pt_index = eptIndex(gpa, 1);
    const EptEntry pte = readEntry(pde.frame(), pt_index);
    if (!pte.present())
        return base::ErrorCode::NotFound;
    EptEntry fresh = EptEntry::leaf4k(frame, pte.executable());
    if (!writable)
        fresh = EptEntry(fresh.raw() & ~uint64_t{kEptWrite});
    writeEntry(pde.frame(), pt_index, fresh);
    return base::Status::success();
}

AccessResult
Mmu::access(GuestPhysAddr gpa, Access type)
{
    AccessResult result;
    Pfn table = root;
    for (unsigned level = kEptLevels; level >= 1; --level) {
        const unsigned index = eptIndex(gpa, level);
        const EptEntry entry = readEntry(table, index);
        if (!entry.present()) {
            result.status = base::ErrorCode::NotFound;
            return result;
        }
        const bool leaf = (level == 2 && entry.largePage()) || level == 1;
        if (!leaf) {
            table = entry.frame();
            continue;
        }
        if (type == Access::Write && !entry.writable()) {
            result.status = base::ErrorCode::Denied;
            return result;
        }
        if (type == Access::Exec && !entry.executable()) {
            if (level == 2 && cfg.nxHugePages) {
                // iTLB-Multihit countermeasure: demote and retry.
                const base::Status st = demote(gpa, table, index, entry);
                if (!st.ok()) {
                    result.status = st;
                    return result;
                }
                result.demotedHugePage = true;
                auto hpa = translate(gpa);
                if (!hpa) {
                    result.status = hpa.error();
                    return result;
                }
                result.status = base::Status::success();
                result.hpa = *hpa;
                return result;
            }
            result.status = base::ErrorCode::Denied;
            return result;
        }
        result.status = base::Status::success();
        result.hpa = HostPhysAddr(
            (entry.frame() << kPageShift)
            + (level == 2 ? gpa.hugePageOffset() : gpa.pageOffset()));
        return result;
    }
    result.status = base::ErrorCode::NotFound;
    return result;
}

void
Mmu::saveState(base::ArchiveWriter &w) const
{
    w.u64(root);
    w.u64vec(tablePages);
    w.u64vec(metadataPages);
    w.u64(demotionCount);
    w.u64(machineCheckCount);
    w.rngState(rng.saveState());
}

base::Status
Mmu::loadState(base::ArchiveReader &r)
{
    const Pfn new_root = r.u64();
    std::vector<Pfn> tables = r.u64vec();
    std::vector<Pfn> metadata = r.u64vec();
    const uint64_t demoted = r.u64();
    const uint64_t mces = r.u64();
    const std::array<uint64_t, 4> rng_state = r.rngState();
    if (r.ok() && new_root >= dram.pageCount())
        r.fail();
    for (Pfn pfn : tables) {
        if (pfn >= dram.pageCount()) {
            r.fail();
            break;
        }
    }
    for (Pfn pfn : metadata) {
        if (pfn >= buddy.totalPages()) {
            r.fail();
            break;
        }
    }
    if (!r.ok())
        return r.status();
    root = new_root;
    tablePages = std::move(tables);
    metadataPages = std::move(metadata);
    demotionCount = demoted;
    machineCheckCount = mces;
    rng.loadState(rng_state);
    return base::Status::success();
}

} // namespace hh::kvm
