/**
 * @file
 * Sparse physical-memory data store with copy-on-write forking.
 *
 * Simulating multi-gigabyte hosts must not cost multi-gigabyte buffers.
 * The attack only cares about a few content classes: whole pages filled
 * with a hammer pattern, pages carrying an 8-byte magic marker, and EPT /
 * IOPT pages with real 64-bit entries. The backend therefore stores each
 * touched page as a uniform 64-bit fill value plus a sparse word-override
 * map, which makes "fill 12 GB with 0xff" an O(pages) metadata operation
 * and keeps page-table pages exact.
 *
 * Pages live in one base::CowChunks array indexed by PFN, 512 pages
 * (one 2 MB hugepage) per chunk: a read or write is an index plus a
 * chunk pointer, and never-touched chunks are never allocated. Forking
 * (the Monte-Carlo trial engine's clone path) copies the chunk pointer
 * table; the first write to a chunk still shared with another backend
 * copies that one chunk, so no fork can ever mutate what another sees.
 */

#ifndef HYPERHAMMER_DRAM_MEMORY_BACKEND_H
#define HYPERHAMMER_DRAM_MEMORY_BACKEND_H

#include <cstdint>
#include <utility>
#include <vector>

#include "base/archive.h"
#include "base/cow_chunks.h"
#include "base/types.h"

namespace hh::dram {

/**
 * Word-granular sparse store over the host physical address space.
 * Untouched memory reads as zero.
 */
class MemoryBackend
{
  public:
    explicit MemoryBackend(uint64_t total_bytes)
        : totalBytes(total_bytes),
          pages((total_bytes + kPageSize - 1) / kPageSize)
    {}

    /** Deep copies are banned: clone worlds via fork(). */
    MemoryBackend(const MemoryBackend &) = delete;
    MemoryBackend &operator=(const MemoryBackend &) = delete;
    MemoryBackend(MemoryBackend &&) = default;
    MemoryBackend &operator=(MemoryBackend &&) = default;

    /** Size of the backed physical address space. */
    uint64_t size() const { return totalBytes; }

    /** True when @p addr lies inside the address space. */
    bool
    contains(HostPhysAddr addr) const
    {
        return addr.value() < totalBytes;
    }

    /** Read the aligned 64-bit word containing @p addr. */
    uint64_t read64(HostPhysAddr addr) const;

    /** Write the aligned 64-bit word containing @p addr. */
    void write64(HostPhysAddr addr, uint64_t value);

    /** Fill an entire 4 KB frame with a repeated 64-bit pattern. */
    void fillPage(Pfn pfn, uint64_t pattern);

    /** Flip one bit of the word containing @p addr; returns new value. */
    uint64_t flipBit(HostPhysAddr addr, unsigned bit_in_word);

    /**
     * Word indices (0..511) of a frame whose content differs from an
     * expected uniform fill. Costs O(overrides) rather than O(page):
     * the common case -- an untouched filled page -- is a constant-time
     * "no mismatch".
     */
    std::vector<uint16_t> mismatchedWords(Pfn pfn,
                                          uint64_t expected_fill) const;

    /**
     * Number of frames this backend privately touched since its last
     * freeze() (inherited by fork()): frames it wrote, filled, or
     * cleared while the frozen contents still carried them. Frames
     * served unmodified from the frozen contents are not counted, and
     * a frame cleared back to untouched memory stops counting. The
     * value measures what a trial world wrote on top of its template.
     */
    size_t touchedPages() const { return touchedCount; }

    /** Frames carrying data at the last freeze() (0 when never frozen). */
    size_t templatePages() const { return templateCount; }

    /** Drop the contents of one frame (reads revert to zero). */
    void clearPage(Pfn pfn);

    /**
     * Mark the current contents as the template: touchedPages() drops
     * to zero and counts again from here. O(1); idempotent.
     */
    void
    freeze()
    {
        ++epoch;
        templateCount = presentCount;
        touchedCount = 0;
    }

    /**
     * A copy-on-write clone: shares every chunk of pages and inherits
     * touchedPages(). O(chunks), whatever the contents.
     */
    MemoryBackend fork() const;

    /**
     * Serialize all pages carrying data (in sorted-Pfn order). Shared
     * chunks are read in place, so the byte stream depends only on the
     * logical contents, never on how a backend was forked.
     */
    void saveState(base::ArchiveWriter &w) const;

    /** Replace contents with a stream written by saveState(). */
    [[nodiscard]] base::Status loadState(base::ArchiveReader &r);

  private:
    struct PageData
    {
        /** Value of every word not present in overrides. */
        uint64_t fill = 0;
        /**
         * Word-index (0..511) -> value exceptions, kept sorted. A
         * vector beats a hash map here: pages typically carry zero or
         * a handful of overrides, and multi-gigabyte fills must stay
         * at ~tens of bytes per page.
         */
        std::vector<std::pair<uint16_t, uint64_t>> overrides;
        /**
         * freeze() generation of this backend's last change to the
         * page; equal to the backend's current epoch iff the page
         * counts in touchedPages().
         */
        uint32_t epoch = 0;
        /** The page carries data (saveState() writes it). */
        bool present = false;
        /** The page carried data at the freeze() before its epoch. */
        bool frozen = false;

        /** Iterator to the override for @p idx, or end(). */
        std::vector<std::pair<uint16_t, uint64_t>>::const_iterator
        find(uint16_t idx) const;
    };

    /** Pages per chunk: one 2 MB hugepage. */
    using PageArray = base::CowChunks<PageData, 9>;

    /** The page at @p pfn when it carries data, else nullptr (zero). */
    const PageData *
    lookup(Pfn pfn) const
    {
        const PageData &page = pages[pfn];
        return page.present ? &page : nullptr;
    }

    /**
     * Writable page (unsharing its chunk), counted as touched; a page
     * without data comes back present and all-zero.
     */
    PageData &mutablePage(Pfn pfn);

    /** Sorted PFNs of the pages carrying data. */
    std::vector<Pfn> mergedPfns() const;

    // hh-lint: allow(snapshot-field-coverage) -- construction-time geometry; loadState() only validates PFNs against it
    uint64_t totalBytes;
    PageArray pages;
    /** Current freeze() generation; 0 marks pages never touched. */
    // hh-lint: allow(snapshot-field-coverage) -- fork accounting, not contents: loaded pages are stamped with the current epoch
    uint32_t epoch = 1;
    // hh-lint: allow(snapshot-field-coverage) -- fork accounting, not contents: a loaded stream counts as all touched, nothing frozen
    size_t touchedCount = 0;
    // hh-lint: allow(snapshot-field-coverage) -- fork accounting, not contents: a loaded stream counts as all touched, nothing frozen
    size_t templateCount = 0;
    /** Pages carrying data (the next freeze()'s templatePages()). */
    size_t presentCount = 0;
};

} // namespace hh::dram

#endif // HYPERHAMMER_DRAM_MEMORY_BACKEND_H
