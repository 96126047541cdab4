/**
 * @file
 * Unit tests for the sparse memory backend: fill/override semantics,
 * bit flips, the mismatch scanner the profiler relies on, and a
 * differential test against a deliberately naive flat reference.
 */

#include <gtest/gtest.h>

#include <array>
#include <iterator>
#include <map>
#include <set>
#include <thread>

#include "base/rng.h"
#include "dram/memory_backend.h"

namespace hh::dram {
namespace {

TEST(MemoryBackend, UntouchedReadsZero)
{
    MemoryBackend mem(1_MiB);
    EXPECT_EQ(mem.read64(HostPhysAddr(0)), 0u);
    EXPECT_EQ(mem.read64(HostPhysAddr(1_MiB - 8)), 0u);
    EXPECT_EQ(mem.touchedPages(), 0u);
}

TEST(MemoryBackend, WriteReadRoundTrip)
{
    MemoryBackend mem(1_MiB);
    mem.write64(HostPhysAddr(0x1008), 0xdeadbeef);
    EXPECT_EQ(mem.read64(HostPhysAddr(0x1008)), 0xdeadbeefu);
    EXPECT_EQ(mem.read64(HostPhysAddr(0x1000)), 0u);
    EXPECT_EQ(mem.touchedPages(), 1u);
}

TEST(MemoryBackend, UnalignedAddressHitsContainingWord)
{
    MemoryBackend mem(1_MiB);
    mem.write64(HostPhysAddr(0x1008), 42);
    EXPECT_EQ(mem.read64(HostPhysAddr(0x100b)), 42u);
}

TEST(MemoryBackend, FillPageSetsAllWords)
{
    MemoryBackend mem(1_MiB);
    mem.fillPage(3, 0x5555);
    EXPECT_EQ(mem.read64(HostPhysAddr(3 * kPageSize)), 0x5555u);
    EXPECT_EQ(mem.read64(HostPhysAddr(3 * kPageSize + 4088)), 0x5555u);
    EXPECT_EQ(mem.read64(HostPhysAddr(2 * kPageSize)), 0u);
}

TEST(MemoryBackend, FillZeroReclaimsMetadata)
{
    MemoryBackend mem(1_MiB);
    mem.fillPage(1, 0xff);
    EXPECT_EQ(mem.touchedPages(), 1u);
    mem.fillPage(1, 0);
    EXPECT_EQ(mem.touchedPages(), 0u);
    EXPECT_EQ(mem.read64(HostPhysAddr(kPageSize)), 0u);
}

TEST(MemoryBackend, WritingFillValueRemovesOverride)
{
    MemoryBackend mem(1_MiB);
    mem.fillPage(0, 0xaa);
    mem.write64(HostPhysAddr(8), 0xbb);
    EXPECT_EQ(mem.read64(HostPhysAddr(8)), 0xbbu);
    mem.write64(HostPhysAddr(8), 0xaa);
    EXPECT_EQ(mem.read64(HostPhysAddr(8)), 0xaau);
    // The scanner must see a perfectly uniform page again.
    EXPECT_TRUE(mem.mismatchedWords(0, 0xaa).empty());
}

TEST(MemoryBackend, FlipBit)
{
    MemoryBackend mem(1_MiB);
    mem.fillPage(0, 0);
    EXPECT_EQ(mem.flipBit(HostPhysAddr(16), 5), 32u);
    EXPECT_EQ(mem.read64(HostPhysAddr(16)), 32u);
    EXPECT_EQ(mem.flipBit(HostPhysAddr(16), 5), 0u);
}

TEST(MemoryBackend, ClearPage)
{
    MemoryBackend mem(1_MiB);
    mem.fillPage(2, 0x77);
    mem.clearPage(2);
    EXPECT_EQ(mem.read64(HostPhysAddr(2 * kPageSize)), 0u);
    EXPECT_EQ(mem.touchedPages(), 0u);
}

TEST(MemoryBackend, MismatchAbsentPageExpectedZero)
{
    MemoryBackend mem(1_MiB);
    EXPECT_TRUE(mem.mismatchedWords(0, 0).empty());
}

TEST(MemoryBackend, MismatchAbsentPageExpectedNonZero)
{
    MemoryBackend mem(1_MiB);
    const auto words = mem.mismatchedWords(0, 0xff);
    EXPECT_EQ(words.size(), kPageSize / 8);
}

TEST(MemoryBackend, MismatchFillMatchesWithOverrides)
{
    MemoryBackend mem(1_MiB);
    mem.fillPage(0, 0xff);
    mem.write64(HostPhysAddr(24), 1);     // word 3
    mem.write64(HostPhysAddr(4000), 2);   // word 500
    const auto words = mem.mismatchedWords(0, 0xff);
    ASSERT_EQ(words.size(), 2u);
    EXPECT_EQ(words[0], 3u);
    EXPECT_EQ(words[1], 500u);
}

TEST(MemoryBackend, MismatchFillDiffers)
{
    MemoryBackend mem(1_MiB);
    mem.fillPage(0, 0xff);
    // Override one word back to the expected value.
    mem.write64(HostPhysAddr(64), 0xee);
    const auto words = mem.mismatchedWords(0, 0xee);
    // Everything mismatches except word 8.
    EXPECT_EQ(words.size(), kPageSize / 8 - 1);
    for (uint16_t w : words)
        EXPECT_NE(w, 8u);
}

TEST(MemoryBackend, ContainsBounds)
{
    MemoryBackend mem(1_MiB);
    EXPECT_TRUE(mem.contains(HostPhysAddr(0)));
    EXPECT_TRUE(mem.contains(HostPhysAddr(1_MiB - 1)));
    EXPECT_FALSE(mem.contains(HostPhysAddr(1_MiB)));
}

TEST(MemoryBackendDeath, OutOfRangeReadPanics)
{
    MemoryBackend mem(1_MiB);
    EXPECT_DEATH((void)mem.read64(HostPhysAddr(2_MiB)), "assertion");
}

TEST(MemoryBackend, ManyOverridesStaySorted)
{
    MemoryBackend mem(1_MiB);
    mem.fillPage(0, 0);
    // Write in reverse order; reads must still resolve correctly.
    for (int w = 511; w >= 0; --w)
        mem.write64(HostPhysAddr(static_cast<uint64_t>(w) * 8),
                    static_cast<uint64_t>(w) + 1);
    for (int w = 0; w < 512; ++w)
        EXPECT_EQ(mem.read64(HostPhysAddr(static_cast<uint64_t>(w) * 8)),
                  static_cast<uint64_t>(w) + 1);
    EXPECT_EQ(mem.mismatchedWords(0, 0).size(), 512u);
}

std::vector<uint8_t>
stateBytes(const MemoryBackend &mem)
{
    base::ArchiveWriter w;
    mem.saveState(w);
    return w.buffer();
}

TEST(MemoryBackendCow, FreezePublishesTemplate)
{
    MemoryBackend mem(1_MiB);
    mem.fillPage(0, 0x11);
    mem.fillPage(5, 0x55);
    mem.write64(HostPhysAddr(5 * kPageSize + 8), 0x99);
    EXPECT_EQ(mem.touchedPages(), 2u);
    mem.freeze();
    // Contents unchanged, but now served from the shared template.
    EXPECT_EQ(mem.touchedPages(), 0u);
    EXPECT_EQ(mem.templatePages(), 2u);
    EXPECT_EQ(mem.read64(HostPhysAddr(0)), 0x11u);
    EXPECT_EQ(mem.read64(HostPhysAddr(5 * kPageSize + 8)), 0x99u);
    mem.freeze(); // idempotent
    EXPECT_EQ(mem.templatePages(), 2u);
}

TEST(MemoryBackendCow, ForkIsCheapAndEqual)
{
    MemoryBackend mem(1_MiB);
    mem.fillPage(1, 0xab);
    mem.write64(HostPhysAddr(kPageSize + 64), 7);
    mem.freeze();
    const MemoryBackend forked = mem.fork();
    EXPECT_EQ(forked.touchedPages(), 0u); // O(1): overlay empty
    EXPECT_EQ(forked.templatePages(), 1u);
    EXPECT_EQ(stateBytes(forked), stateBytes(mem));
}

TEST(MemoryBackendCow, WriteUnsharesOnePage)
{
    MemoryBackend mem(1_MiB);
    mem.fillPage(0, 0x11);
    mem.fillPage(1, 0x22);
    mem.freeze();
    MemoryBackend forked = mem.fork();
    forked.write64(HostPhysAddr(8), 0xff);
    // The fork copied up exactly the written page...
    EXPECT_EQ(forked.touchedPages(), 1u);
    EXPECT_EQ(forked.read64(HostPhysAddr(8)), 0xffu);
    EXPECT_EQ(forked.read64(HostPhysAddr(0)), 0x11u);
    // ...and the template (and its other reader) never saw the write.
    EXPECT_EQ(mem.read64(HostPhysAddr(8)), 0x11u);
    EXPECT_EQ(mem.touchedPages(), 0u);
}

TEST(MemoryBackendCow, ClearPageTombstonesTemplatePage)
{
    MemoryBackend mem(1_MiB);
    mem.fillPage(3, 0x77);
    mem.freeze();
    MemoryBackend forked = mem.fork();
    forked.clearPage(3);
    // Reads revert to zero; the tombstone is private overlay state.
    EXPECT_EQ(forked.read64(HostPhysAddr(3 * kPageSize)), 0u);
    EXPECT_EQ(forked.touchedPages(), 1u);
    EXPECT_EQ(mem.read64(HostPhysAddr(3 * kPageSize)), 0x77u);
    // saveState() skips the tombstoned page, exactly like a flat
    // backend that erased it.
    const MemoryBackend empty(1_MiB);
    EXPECT_EQ(stateBytes(forked), stateBytes(empty));
    // Re-filling revives the page without disturbing the template.
    forked.fillPage(3, 0x88);
    EXPECT_EQ(forked.read64(HostPhysAddr(3 * kPageSize)), 0x88u);
    EXPECT_EQ(mem.read64(HostPhysAddr(3 * kPageSize)), 0x77u);
}

TEST(MemoryBackendCow, ClearPageOnOverlayReclaimsMetadata)
{
    MemoryBackend mem(1_MiB);
    mem.freeze(); // empty template: clears must not tombstone
    MemoryBackend forked = mem.fork();
    forked.fillPage(2, 0x42);
    EXPECT_EQ(forked.touchedPages(), 1u);
    forked.clearPage(2);
    EXPECT_EQ(forked.touchedPages(), 0u);
}

TEST(MemoryBackendCow, SaveStateMatchesFlatBackend)
{
    // The same logical writes through a fork chain and through a flat
    // backend must serialize to identical bytes.
    MemoryBackend flat(1_MiB);
    MemoryBackend chain(1_MiB);
    chain.fillPage(0, 0x11);
    chain.freeze();
    MemoryBackend forked = chain.fork();
    for (MemoryBackend *mem : {&flat, &forked}) {
        if (mem == &flat)
            mem->fillPage(0, 0x11);
        mem->write64(HostPhysAddr(16), 0xaa);
        mem->fillPage(9, 0x99);
        mem->clearPage(9);
        mem->fillPage(4, 0x44);
    }
    EXPECT_EQ(stateBytes(forked), stateBytes(flat));
}

TEST(MemoryBackend, LoadStateRejectsRepeatedOrUnsortedPfns)
{
    // Two pages, each with one override, in the given PFN order.
    const auto stream = [](Pfn first, Pfn second) {
        base::ArchiveWriter w;
        w.u64(2);
        for (const auto &[pfn, idx] :
             {std::pair<Pfn, uint16_t>{first, 7}, {second, 3}}) {
            w.u64(pfn);
            w.u64(0);
            w.u64(1);
            w.u16(idx);
            w.u64(0xaa);
        }
        return w.buffer();
    };
    MemoryBackend mem(1_MiB);
    mem.fillPage(1, 0x11);
    const std::vector<uint8_t> before = stateBytes(mem);
    // Repeated, decreasing, and past the end (2^52 * 4 KiB wraps to 0).
    for (const auto &[first, second] :
         {std::pair<Pfn, Pfn>{4, 4}, {5, 4}, {4, Pfn{1} << 52}}) {
        const std::vector<uint8_t> bytes = stream(first, second);
        base::ArchiveReader r(bytes);
        EXPECT_FALSE(mem.loadState(r).ok());
        EXPECT_EQ(stateBytes(mem), before);
    }
    const std::vector<uint8_t> sorted = stream(4, 5);
    base::ArchiveReader r(sorted);
    ASSERT_TRUE(mem.loadState(r).ok());
    EXPECT_EQ(stateBytes(mem), sorted);
}

TEST(MemoryBackendCow, ConcurrentForksAreIndependent)
{
    MemoryBackend mem(1_MiB);
    mem.fillPage(0, 0x5a);
    mem.freeze();
    // Many forks mutate the SAME template page concurrently; each must
    // see only its own write (write-time unsharing is per fork).
    constexpr int kForks = 8;
    std::vector<MemoryBackend> forks;
    forks.reserve(kForks);
    for (int i = 0; i < kForks; ++i)
        forks.push_back(mem.fork());
    std::vector<std::thread> threads;
    threads.reserve(kForks);
    for (int i = 0; i < kForks; ++i) {
        threads.emplace_back([&forks, i] {
            forks[static_cast<size_t>(i)].write64(
                HostPhysAddr(8), static_cast<uint64_t>(i) + 1);
        });
    }
    for (std::thread &t : threads)
        t.join();
    for (int i = 0; i < kForks; ++i) {
        EXPECT_EQ(forks[static_cast<size_t>(i)].read64(HostPhysAddr(8)),
                  static_cast<uint64_t>(i) + 1);
        EXPECT_EQ(forks[static_cast<size_t>(i)].read64(HostPhysAddr(0)),
                  0x5au);
    }
    EXPECT_EQ(mem.read64(HostPhysAddr(8)), 0x5au);
}

/**
 * The differential test's reference model, naive on purpose: every
 * page with data is a flat 512-word array plus the pattern it was
 * last filled with, fork() is a real deep copy, and the touched /
 * template accounting is spelled out as explicit sets. Nothing is
 * shared, so it cannot have the optimized backend's aliasing bugs.
 */
struct FlatReference
{
    static constexpr uint64_t kWords = kPageSize / 8;

    struct Page
    {
        uint64_t fill = 0;
        std::array<uint64_t, kWords> words{};
    };

    std::map<Pfn, Page> pages;
    /** Pages carrying data at the last freeze(). */
    std::set<Pfn> frozen;
    /** Pages changed since the last freeze(). */
    std::set<Pfn> touched;

    static uint64_t word(HostPhysAddr addr)
    {
        return (addr.value() % kPageSize) / 8;
    }

    uint64_t
    read64(HostPhysAddr addr) const
    {
        const auto it = pages.find(addr.pfn());
        return it == pages.end() ? 0 : it->second.words[word(addr)];
    }

    void
    write64(HostPhysAddr addr, uint64_t value)
    {
        pages[addr.pfn()].words[word(addr)] = value;
        touched.insert(addr.pfn());
    }

    void
    clearPage(Pfn pfn)
    {
        if (pages.erase(pfn) == 0)
            return;
        if (frozen.count(pfn) != 0)
            touched.insert(pfn);
        else
            touched.erase(pfn);
    }

    void
    fillPage(Pfn pfn, uint64_t pattern)
    {
        if (pattern == 0) {
            clearPage(pfn);
            return;
        }
        Page page;
        page.fill = pattern;
        page.words.fill(pattern);
        pages[pfn] = page;
        touched.insert(pfn);
    }

    uint64_t
    flipBit(HostPhysAddr addr, unsigned bit)
    {
        const uint64_t value = read64(addr) ^ (1ull << bit);
        write64(addr, value);
        return value;
    }

    std::vector<uint16_t>
    mismatchedWords(Pfn pfn, uint64_t expected) const
    {
        std::vector<uint16_t> out;
        for (uint16_t i = 0; i < kWords; ++i) {
            if (read64(HostPhysAddr(pfn * kPageSize + i * 8ull))
                != expected)
                out.push_back(i);
        }
        return out;
    }

    void
    freeze()
    {
        frozen.clear();
        for (const auto &entry : pages)
            frozen.insert(entry.first);
        touched.clear();
    }

    /** loadState() of @p source's saveState() stream. */
    void
    loadFrom(const FlatReference &source)
    {
        pages = source.pages;
        frozen.clear();
        touched.clear();
        for (const auto &entry : pages)
            touched.insert(entry.first);
    }

    /** The documented stream: fill, then every word differing from it. */
    std::vector<uint8_t>
    stateBytes() const
    {
        base::ArchiveWriter w;
        w.u64(pages.size());
        for (const auto &[pfn, page] : pages) {
            w.u64(pfn);
            w.u64(page.fill);
            uint64_t differing = 0;
            for (uint64_t value : page.words)
                differing += value != page.fill ? 1 : 0;
            w.u64(differing);
            for (uint16_t i = 0; i < kWords; ++i) {
                if (page.words[i] != page.fill) {
                    w.u16(i);
                    w.u64(page.words[i]);
                }
            }
        }
        return w.buffer();
    }
};

/** Full-page and accounting comparison of one backend pair. */
void
expectSame(const MemoryBackend &mem, const FlatReference &ref, Pfn pfn)
{
    ASSERT_EQ(stateBytes(mem), ref.stateBytes());
    ASSERT_EQ(mem.touchedPages(), ref.touched.size());
    ASSERT_EQ(mem.templatePages(), ref.frozen.size());
    for (uint64_t i = 0; i < FlatReference::kWords; ++i) {
        const HostPhysAddr addr(pfn * kPageSize + i * 8);
        ASSERT_EQ(mem.read64(addr), ref.read64(addr)) << "word " << i;
    }
    const std::array<uint64_t, 3> expected_fills = {
        0, 0x11, ref.read64(HostPhysAddr(pfn * kPageSize))};
    for (uint64_t expected : expected_fills)
        ASSERT_EQ(mem.mismatchedWords(pfn, expected),
                  ref.mismatchedWords(pfn, expected));
}

TEST(MemoryBackendDifferential, MatchesFlatReferenceUnderRandomOps)
{
    // Three chunks of 512 pages; the PFNs straddle chunk borders.
    constexpr uint64_t kBytes = 6_MiB;
    constexpr Pfn kPfns[] = {0, 1, 2, 511, 512, 513, 1023, 1024, 1300, 1535};
    constexpr uint64_t kValues[] = {0, 0x11, 0x22, ~0ull};
    constexpr size_t kMaxWorlds = 5;
    for (uint64_t seed = 1; seed <= 12; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        base::Rng rng(seed);
        const auto value = [&rng, &kValues] {
            return rng.chance(0.8) ? kValues[rng.below(std::size(kValues))]
                                   : rng();
        };
        std::vector<MemoryBackend> mems;
        std::vector<FlatReference> refs;
        mems.emplace_back(kBytes);
        refs.emplace_back();
        for (int step = 0; step < 400; ++step) {
            const size_t target = rng.below(mems.size());
            const Pfn pfn = kPfns[rng.below(std::size(kPfns))];
            const uint64_t idx = rng.chance(0.5) ? rng.below(4)
                                                 : rng.below(512);
            const HostPhysAddr addr(pfn * kPageSize + idx * 8);
            std::vector<std::vector<uint8_t>> before;
            for (const MemoryBackend &mem : mems)
                before.push_back(stateBytes(mem));
            MemoryBackend &mem = mems[target];
            FlatReference &ref = refs[target];
            // The one world this op may change.
            size_t changed = target;

            const uint64_t op = rng.below(100);
            if (op < 30) {
                const uint64_t v = value();
                mem.write64(addr, v);
                ref.write64(addr, v);
            } else if (op < 42) {
                const uint64_t v = value();
                mem.fillPage(pfn, v);
                ref.fillPage(pfn, v);
            } else if (op < 50) {
                mem.clearPage(pfn);
                ref.clearPage(pfn);
            } else if (op < 58) {
                const unsigned bit = static_cast<unsigned>(rng.below(64));
                ASSERT_EQ(mem.flipBit(addr, bit), ref.flipBit(addr, bit));
            } else if (op < 64) {
                // A dense page-table-like page: every word written in
                // a random order, some back to the fill (holes).
                std::vector<uint64_t> order(FlatReference::kWords);
                for (uint64_t i = 0; i < order.size(); ++i)
                    order[i] = i;
                rng.shuffle(order);
                const auto page = ref.pages.find(pfn);
                const uint64_t fill =
                    page == ref.pages.end() ? 0 : page->second.fill;
                for (uint64_t i : order) {
                    const HostPhysAddr word(pfn * kPageSize + i * 8);
                    const uint64_t v = rng.chance(0.1) ? fill : rng() | 1;
                    mem.write64(word, v);
                    ref.write64(word, v);
                }
            } else if (op < 74) {
                mem.freeze();
                ref.freeze();
            } else if (op < 88) {
                // Fork, replacing another world once the pool is full;
                // later ops write parent and child alike.
                changed = mems.size() < kMaxWorlds
                    ? mems.size()
                    : (target + 1 + rng.below(mems.size() - 1))
                        % mems.size();
                MemoryBackend child = mem.fork();
                FlatReference child_ref = ref;
                if (changed == mems.size()) {
                    mems.push_back(std::move(child));
                    refs.push_back(std::move(child_ref));
                    before.push_back({});
                } else {
                    mems[changed] = std::move(child);
                    refs[changed] = std::move(child_ref);
                }
            } else {
                const size_t source = rng.below(mems.size());
                const std::vector<uint8_t> bytes = stateBytes(mems[source]);
                base::ArchiveReader r(bytes);
                ASSERT_TRUE(mem.loadState(r).ok());
                ref.loadFrom(refs[source]);
            }

            for (size_t i = 0; i < mems.size(); ++i) {
                SCOPED_TRACE("step " + std::to_string(step) + " world "
                             + std::to_string(i) + " op "
                             + std::to_string(op));
                expectSame(mems[i], refs[i], pfn);
                // Isolation: an op changes at most the world it ran on,
                // a fork only the world it created or replaced.
                if (i != changed) {
                    ASSERT_EQ(stateBytes(mems[i]), before[i]);
                }
            }
            // Spot reads everywhere, untouched pages included.
            for (int k = 0; k < 8; ++k) {
                const size_t i = rng.below(mems.size());
                const HostPhysAddr any(rng.below(kBytes / 8) * 8);
                ASSERT_EQ(mems[i].read64(any), refs[i].read64(any));
            }
        }
    }
}

} // namespace
} // namespace hh::dram
