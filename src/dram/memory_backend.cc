#include "memory_backend.h"

#include <algorithm>

#include "base/log.h"

namespace hh::dram {

namespace {

constexpr uint16_t
wordIndex(HostPhysAddr addr)
{
    return static_cast<uint16_t>((addr.value() & (kPageSize - 1)) / 8);
}

/** First override whose word index is not below @p idx. */
template <typename Overrides>
auto
lowerBound(Overrides &overrides, uint16_t idx)
{
    return std::lower_bound(
        overrides.begin(), overrides.end(), idx,
        [](const std::pair<uint16_t, uint64_t> &entry, uint16_t key) {
            return entry.first < key;
        });
}

} // namespace

std::vector<std::pair<uint16_t, uint64_t>>::const_iterator
MemoryBackend::PageData::find(uint16_t idx) const
{
    const auto it = lowerBound(overrides, idx);
    if (it != overrides.end() && it->first == idx)
        return it;
    return overrides.end();
}

MemoryBackend::PageData &
MemoryBackend::mutablePage(Pfn pfn)
{
    PageData &page = pages.mut(pfn);
    if (page.epoch != epoch) {
        // First change since the last freeze(): the page's current
        // state is what that freeze() saw.
        page.frozen = page.present;
        page.epoch = epoch;
        ++touchedCount;
    }
    if (!page.present) {
        page.present = true;
        ++presentCount;
    }
    return page;
}

uint64_t
MemoryBackend::read64(HostPhysAddr addr) const
{
    HH_ASSERT(contains(addr));
    const PageData *page = lookup(addr.pfn());
    if (page == nullptr)
        return 0;
    const auto ov = page->find(wordIndex(addr));
    return ov != page->overrides.end() ? ov->second : page->fill;
}

void
MemoryBackend::write64(HostPhysAddr addr, uint64_t value)
{
    HH_ASSERT(contains(addr));
    PageData &page = mutablePage(addr.pfn());
    const uint16_t idx = wordIndex(addr);
    const auto it = lowerBound(page.overrides, idx);
    const bool present =
        it != page.overrides.end() && it->first == idx;
    if (value == page.fill) {
        if (present)
            page.overrides.erase(it);
    } else if (present) {
        it->second = value;
    } else {
        page.overrides.insert(it, {idx, value});
    }
}

void
MemoryBackend::clearPage(Pfn pfn)
{
    const PageData &current = pages[pfn];
    if (!current.present)
        return; // already reads as zero
    const bool touched = current.epoch == epoch;
    const bool frozen = !touched || current.frozen;
    PageData &page = pages.mut(pfn);
    page.present = false;
    --presentCount;
    page.fill = 0;
    page.overrides = {};
    if (frozen) {
        // The last freeze() saw data here: clearing it is a change
        // since then, so the page counts as touched.
        page.frozen = true;
        if (!touched) {
            page.epoch = epoch;
            ++touchedCount;
        }
    } else {
        // Data written since the last freeze() is gone again: the page
        // is back to untouched memory.
        page.epoch = 0;
        --touchedCount;
    }
}

void
MemoryBackend::fillPage(Pfn pfn, uint64_t pattern)
{
    HH_ASSERT(pfn * kPageSize < totalBytes);
    if (pattern == 0) {
        // Identical to untouched memory; reclaim the metadata.
        clearPage(pfn);
        return;
    }
    PageData &page = mutablePage(pfn);
    page.fill = pattern;
    page.overrides = {};
}

uint64_t
MemoryBackend::flipBit(HostPhysAddr addr, unsigned bit_in_word)
{
    HH_ASSERT(bit_in_word < 64);
    const uint64_t value = read64(addr) ^ (1ull << bit_in_word);
    write64(addr, value);
    return value;
}

std::vector<uint16_t>
MemoryBackend::mismatchedWords(Pfn pfn, uint64_t expected_fill) const
{
    std::vector<uint16_t> mismatches;
    const PageData *it = lookup(pfn);
    if (it == nullptr) {
        // Untouched memory reads as zero everywhere.
        if (expected_fill != 0) {
            mismatches.resize(kPageSize / 8);
            for (uint16_t i = 0; i < kPageSize / 8; ++i)
                mismatches[i] = i;
        }
        return mismatches;
    }
    const PageData &page = *it;
    if (page.fill == expected_fill) {
        // Only overridden words can mismatch.
        for (const auto &[idx, value] : page.overrides) {
            if (value != expected_fill)
                mismatches.push_back(idx);
        }
    } else {
        // Every word mismatches unless overridden back to expected.
        auto ov = page.overrides.begin();
        for (uint16_t i = 0; i < kPageSize / 8; ++i) {
            while (ov != page.overrides.end() && ov->first < i)
                ++ov;
            const uint64_t value =
                (ov != page.overrides.end() && ov->first == i)
                    ? ov->second : page.fill;
            if (value != expected_fill)
                mismatches.push_back(i);
        }
    }
    return mismatches;
}

MemoryBackend
MemoryBackend::fork() const
{
    MemoryBackend forked(0);
    forked.totalBytes = totalBytes;
    forked.pages = pages.fork();
    forked.epoch = epoch;
    forked.touchedCount = touchedCount;
    forked.templateCount = templateCount;
    forked.presentCount = presentCount;
    return forked;
}

std::vector<Pfn>
MemoryBackend::mergedPfns() const
{
    std::vector<Pfn> pfns;
    pfns.reserve(presentCount);
    pages.forEachAllocated([&pfns](uint64_t pfn, const PageData &page) {
        if (page.present)
            pfns.push_back(pfn);
    });
    return pfns;
}

void
MemoryBackend::saveState(base::ArchiveWriter &w) const
{
    const std::vector<Pfn> pfns = mergedPfns();
    w.u64(pfns.size());
    for (Pfn pfn : pfns) {
        const PageData *page = lookup(pfn);
        HH_ASSERT(page != nullptr);
        w.u64(pfn);
        w.u64(page->fill);
        w.u64(page->overrides.size());
        for (const auto &[idx, value] : page->overrides) {
            w.u16(idx);
            w.u64(value);
        }
    }
}

base::Status
MemoryBackend::loadState(base::ArchiveReader &r)
{
    PageArray loaded(pages.size());
    size_t loaded_count = 0;
    const uint64_t page_count = r.count(16);
    Pfn prev_pfn = 0;
    for (uint64_t i = 0; i < page_count && r.ok(); ++i) {
        const Pfn pfn = r.u64();
        // PFNs must be in range and strictly increasing, as saveState()
        // writes them: a repeated PFN would append a second, unsorted
        // override list to the same page.
        if (pfn >= loaded.size() || (i > 0 && pfn <= prev_pfn)) {
            r.fail();
            break;
        }
        prev_pfn = pfn;
        PageData &page = loaded.mut(pfn);
        page.present = true;
        page.epoch = epoch;
        ++loaded_count;
        page.fill = r.u64();
        const uint64_t override_count = r.count(10);
        page.overrides.reserve(override_count);
        uint32_t prev_idx = 0;
        for (uint64_t j = 0; j < override_count && r.ok(); ++j) {
            const uint16_t idx = r.u16();
            const uint64_t value = r.u64();
            // Overrides must be sorted, unique, in-page: find() relies
            // on it, so reject rather than rebuild.
            if (idx >= kPageSize / 8 || (j > 0 && idx <= prev_idx)) {
                r.fail();
                break;
            }
            prev_idx = idx;
            page.overrides.emplace_back(idx, value);
        }
    }
    if (!r.ok())
        return r.status();
    // The loaded stream is the complete logical state: every page it
    // carries counts as touched, and nothing is frozen any more.
    pages = std::move(loaded);
    touchedCount = presentCount = loaded_count;
    templateCount = 0;
    return base::Status::success();
}

} // namespace hh::dram
