/**
 * @file
 * Unit and property tests for the DRAM address mapping: the published
 * bank functions of both evaluation CPUs, the offset/row class
 * decomposition the fault model relies on, and the THP bit-preservation
 * property the attack depends on (Section 5.1), and the constant-time
 * bank-row address query against a stripe-scan reference model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <string>
#include <utility>

#include "base/rng.h"
#include "dram/address_mapping.h"

namespace hh::dram {
namespace {

TEST(AddressMapping, I3Preset)
{
    const AddressMapping map = AddressMapping::i3_10100();
    EXPECT_EQ(map.bankBits(), 5u);
    EXPECT_EQ(map.bankCount(), 32u);
    EXPECT_EQ(map.rowLoBit(), 18u);
    EXPECT_EQ(map.rowHiBit(), 33u);
    EXPECT_EQ(map.rowStripeBytes(), 256u * 1024);
    EXPECT_EQ(map.rowBytesPerBank(), 8192u);
}

TEST(AddressMapping, XeonPreset)
{
    const AddressMapping map = AddressMapping::xeonE3_2124();
    EXPECT_EQ(map.bankCount(), 32u);
    EXPECT_EQ(map.rowLoBit(), 18u);
    // The 6-bit mask (8,9,12,13,18,19) must be present.
    bool has_wide_mask = false;
    for (uint64_t mask : map.bankMasks())
        has_wide_mask |= std::popcount(mask) == 6;
    EXPECT_TRUE(has_wide_mask);
}

TEST(AddressMapping, RowOfExtractsBits18To33)
{
    const AddressMapping map = AddressMapping::i3_10100();
    EXPECT_EQ(map.rowOf(HostPhysAddr(0)), 0u);
    EXPECT_EQ(map.rowOf(HostPhysAddr(1ull << 18)), 1u);
    EXPECT_EQ(map.rowOf(HostPhysAddr((1ull << 18) - 1)), 0u);
    EXPECT_EQ(map.rowOf(HostPhysAddr(7ull << 18)), 7u);
    // Bits above 33 do not contribute.
    EXPECT_EQ(map.rowOf(HostPhysAddr(1ull << 34)), 0u);
}

TEST(AddressMapping, BankOfMatchesPaperExample)
{
    const AddressMapping map = AddressMapping::i3_10100();
    // Bank bit 0 is parity of bits (6, 13).
    EXPECT_EQ(map.bankOf(HostPhysAddr(1ull << 6)) & 1u, 1u);
    EXPECT_EQ(map.bankOf(HostPhysAddr((1ull << 6) | (1ull << 13))) & 1u,
              0u);
    // Bank bit 4 is parity of bits (17, 21).
    EXPECT_EQ((map.bankOf(HostPhysAddr(1ull << 17)) >> 4) & 1u, 1u);
    EXPECT_EQ((map.bankOf(HostPhysAddr(1ull << 21)) >> 4) & 1u, 1u);
}

/** Property: bankOf(addr) == offsetClass(low bits) ^ rowClass(row). */
class MappingDecomposition
    : public ::testing::TestWithParam<const char *>
{
  protected:
    AddressMapping
    mapping() const
    {
        const std::string name = GetParam();
        if (name == "i3")
            return AddressMapping::i3_10100();
        if (name == "xeon")
            return AddressMapping::xeonE3_2124();
        return AddressMapping::linear(4);
    }
};

TEST_P(MappingDecomposition, ClassDecompositionHolds)
{
    const AddressMapping map = mapping();
    base::Rng rng(99);
    for (int i = 0; i < 5'000; ++i) {
        const HostPhysAddr addr(rng.below(16_GiB));
        const uint64_t low =
            addr.value() & (map.rowStripeBytes() - 1);
        const BankId expected =
            map.offsetClass(low) ^ map.rowClass(map.rowOf(addr));
        // rowClass only covers bits >= rowLo, but bits above rowHi
        // are not part of the row; mask them off for the check.
        const uint64_t masked = addr.value()
            & ((1ull << (map.rowHiBit() + 1)) - 1);
        EXPECT_EQ(map.bankOf(HostPhysAddr(masked)), expected);
    }
}

TEST_P(MappingDecomposition, ClassOffsetsPartitionTheStripe)
{
    const AddressMapping map = mapping();
    const uint64_t granules = map.rowStripeBytes()
        >> map.interleaveShift();
    std::set<uint32_t> all;
    for (BankId cls = 0; cls < map.bankCount(); ++cls) {
        for (uint32_t g : map.classOffsets(cls)) {
            EXPECT_TRUE(all.insert(g).second) << "duplicate granule";
            // The granule really belongs to this class.
            EXPECT_EQ(map.offsetClass(static_cast<uint64_t>(g)
                                      << map.interleaveShift()),
                      cls);
        }
    }
    EXPECT_EQ(all.size(), granules);
}

TEST_P(MappingDecomposition, ClassesBalanced)
{
    const AddressMapping map = mapping();
    const uint64_t granules = map.rowStripeBytes()
        >> map.interleaveShift();
    for (BankId cls = 0; cls < map.bankCount(); ++cls)
        EXPECT_EQ(map.classOffsets(cls).size(),
                  granules / map.bankCount());
}

INSTANTIATE_TEST_SUITE_P(Presets, MappingDecomposition,
                         ::testing::Values("i3", "xeon", "linear"));

TEST(AddressMapping, BankBitsPreservedByThp)
{
    // Both paper CPUs: every bank-function bit is either below 21 or a
    // row bit, so the attacker can reason about banks from hugepage
    // offsets (Section 5.1).
    EXPECT_TRUE(AddressMapping::i3_10100().bankBitsPreservedBy(21));
    EXPECT_TRUE(AddressMapping::xeonE3_2124().bankBitsPreservedBy(21));
}

TEST(AddressMapping, BankBitsNotPreservedForHighMask)
{
    // A function using bit 35 (neither low nor row bit) breaks the
    // THP trick.
    AddressMapping map({(1ull << 6) | (1ull << 35)}, 18, 33);
    EXPECT_FALSE(map.bankBitsPreservedBy(21));
}

TEST(AddressMapping, LinearMapping)
{
    const AddressMapping map = AddressMapping::linear(3);
    EXPECT_EQ(map.bankCount(), 8u);
    EXPECT_EQ(map.bankOf(HostPhysAddr(0)), 0u);
    EXPECT_EQ(map.bankOf(HostPhysAddr(0b111ull << 6)), 7u);
}

TEST(AddressMapping, EqualityIsMaskSetBased)
{
    EXPECT_TRUE(AddressMapping::i3_10100()
                == AddressMapping::i3_10100());
    EXPECT_FALSE(AddressMapping::i3_10100()
                 == AddressMapping::xeonE3_2124());
}

TEST(AddressMapping, DescribeMentionsGeometry)
{
    const std::string desc = AddressMapping::i3_10100().describe();
    EXPECT_NE(desc.find("32 banks"), std::string::npos);
    EXPECT_NE(desc.find("18..33"), std::string::npos);
}

TEST(AddressMapping, SameBankPairsExistAcrossAdjacentRows)
{
    // The profiler's core assumption: for any two adjacent rows there
    // is, within each bank, at least one address in each row.
    const AddressMapping map = AddressMapping::i3_10100();
    for (RowId row = 0; row < 16; ++row) {
        for (BankId bank = 0; bank < map.bankCount(); ++bank) {
            const BankId cls0 = bank ^ map.rowClass(row);
            const BankId cls1 = bank ^ map.rowClass(row + 1);
            EXPECT_FALSE(map.classOffsets(cls0).empty());
            EXPECT_FALSE(map.classOffsets(cls1).empty());
        }
    }
}

/** Rank over GF(2) of a set of bit-vectors. */
unsigned
gf2Rank(std::vector<uint64_t> rows)
{
    unsigned rank = 0;
    for (unsigned bit = 0; bit < 64 && rank < rows.size(); ++bit) {
        const auto pivot = std::find_if(
            rows.begin() + rank, rows.end(),
            [bit](uint64_t row) { return (row >> bit) & 1; });
        if (pivot == rows.end())
            continue;
        std::iter_swap(rows.begin() + rank, pivot);
        for (size_t i = 0; i < rows.size(); ++i) {
            if (i != rank && ((rows[i] >> bit) & 1))
                rows[i] ^= rows[rank];
        }
        ++rank;
    }
    return rank;
}

/**
 * A random bank function of 3..5 masks with row bits 18..33. Each mask
 * XORs 1-3 intra-stripe bits in [6, 18) with 1-3 row bits, and the
 * intra-stripe parts are linearly independent (full rank), so every
 * offset class is balanced. Sparse low parts vary the interleave.
 */
AddressMapping
randomFullRankMapping(base::Rng &rng)
{
    constexpr unsigned kRowLo = 18;
    constexpr unsigned kRowHi = 33;
    const unsigned bits = 3 + static_cast<unsigned>(rng.below(3));
    for (;;) {
        std::vector<uint64_t> masks;
        std::vector<uint64_t> low_parts;
        for (unsigned i = 0; i < bits; ++i) {
            uint64_t low = 0;
            uint64_t high = 0;
            for (uint64_t n = 1 + rng.below(3); n > 0; --n) {
                low |= 1ull << (6 + rng.below(kRowLo - 6));
                high |= 1ull << (kRowLo + rng.below(kRowHi - kRowLo + 1));
            }
            masks.push_back(low | high);
            low_parts.push_back(low);
        }
        if (gf2Rank(low_parts) == bits)
            return AddressMapping(std::move(masks), kRowLo, kRowHi);
    }
}

/** Both presets, linear(1..5) and 16 seeded random full-rank sets. */
std::vector<std::pair<std::string, AddressMapping>>
differentialMappings()
{
    std::vector<std::pair<std::string, AddressMapping>> out;
    out.emplace_back("i3_10100", AddressMapping::i3_10100());
    out.emplace_back("xeonE3_2124", AddressMapping::xeonE3_2124());
    for (unsigned bits = 1; bits <= 5; ++bits)
        out.emplace_back("linear" + std::to_string(bits),
                         AddressMapping::linear(bits));
    base::Rng rng(2025);
    for (int i = 0; i < 16; ++i)
        out.emplace_back("random" + std::to_string(i),
                         randomFullRankMapping(rng));
    return out;
}

/**
 * Reference model: the linear stripe scan the profiler used before
 * bankRowAddress(). Returns the @p granule-th interleave granule (in
 * address order) of row @p row whose bankOf() is @p bank.
 */
std::optional<uint64_t>
scanBankRowAddress(const AddressMapping &map, BankId bank, RowId row,
                   uint64_t granule)
{
    const uint64_t stripe = map.rowStripeBytes();
    const uint64_t step = 1ull << map.interleaveShift();
    const uint64_t row_base = row * stripe;
    for (uint64_t off = 0; off < stripe; off += step) {
        if (map.bankOf(HostPhysAddr(row_base + off)) == bank
            && granule-- == 0) {
            return row_base + off;
        }
    }
    return std::nullopt;
}

TEST(BankRowAddress, MatchesStripeScanOnEveryLocalRow)
{
    // The profiler's use: granule 0 of every bank label in every
    // local row of a 2 MB hugepage.
    for (const auto &[name, map] : differentialMappings()) {
        const RowId local_rows = kHugePageSize / map.rowStripeBytes();
        for (RowId row = 0; row < local_rows; ++row) {
            for (BankId bank = 0; bank < map.bankCount(); ++bank) {
                const auto expected =
                    scanBankRowAddress(map, bank, row, 0);
                ASSERT_TRUE(expected.has_value()) << name;
                EXPECT_EQ(map.bankRowAddress(bank, row).value(),
                          *expected)
                    << name << " bank " << bank << " row " << row;
            }
        }
    }
}

TEST(BankRowAddress, MatchesStripeScanForSampledGranules)
{
    // Any row of the 16-bit row range, any granule of the bank.
    base::Rng rng(7);
    for (const auto &[name, map] : differentialMappings()) {
        const uint64_t per_bank = map.rowBytesPerBank()
            >> map.interleaveShift();
        const uint64_t rows = 1ull << (map.rowHiBit() - map.rowLoBit() + 1);
        for (int i = 0; i < 64; ++i) {
            const auto bank =
                static_cast<BankId>(rng.below(map.bankCount()));
            const RowId row = rng.below(rows);
            const uint64_t granule = rng.below(per_bank);
            const auto expected =
                scanBankRowAddress(map, bank, row, granule);
            ASSERT_TRUE(expected.has_value()) << name;
            EXPECT_EQ(map.bankRowAddress(bank, row, granule).value(),
                      *expected)
                << name << " bank " << bank << " row " << row
                << " granule " << granule;
        }
    }
}

TEST(BankRowAddress, ReproducesFormerCallerFormulas)
{
    // The formulas Trrespass::addressIn and DramSystem::cellAddress
    // computed before they called bankRowAddress(), kept verbatim.
    const auto trrespass_address_in = [](const AddressMapping &map,
                                         BankId bank, RowId row) {
        const BankId cls = bank ^ map.rowClass(row);
        const auto &offsets = map.classOffsets(cls);
        return (static_cast<uint64_t>(row) << map.rowLoBit())
            | (static_cast<uint64_t>(offsets.front())
               << map.interleaveShift());
    };
    const auto dram_cell_address = [](const AddressMapping &map,
                                      BankId bank, RowId row,
                                      uint64_t byte_in_row) {
        const BankId cls = bank ^ map.rowClass(row);
        const auto &offsets = map.classOffsets(cls);
        const uint64_t granule = 1ull << map.interleaveShift();
        return (static_cast<uint64_t>(row) << map.rowLoBit())
            | (static_cast<uint64_t>(offsets[byte_in_row / granule])
               << map.interleaveShift())
            | (byte_in_row % granule);
    };

    base::Rng rng(13);
    for (const auto &[name, map] : differentialMappings()) {
        const uint64_t granule = 1ull << map.interleaveShift();
        const uint64_t rows = 1ull << (map.rowHiBit() - map.rowLoBit() + 1);
        for (int i = 0; i < 256; ++i) {
            const auto bank =
                static_cast<BankId>(rng.below(map.bankCount()));
            const RowId row = rng.below(rows);
            const uint64_t byte_in_row = rng.below(map.rowBytesPerBank());
            EXPECT_EQ(map.bankRowAddress(bank, row).value(),
                      trrespass_address_in(map, bank, row))
                << name;
            EXPECT_EQ(map.bankRowAddress(bank, row, byte_in_row / granule)
                          .value()
                          + byte_in_row % granule,
                      dram_cell_address(map, bank, row, byte_in_row))
                << name;
        }
    }
}

TEST(BankRowAddress, PanicsPastTheLastGranuleOfTheBank)
{
    const AddressMapping map = AddressMapping::i3_10100();
    const uint64_t per_bank = map.rowBytesPerBank()
        >> map.interleaveShift();
    EXPECT_NE(map.bankRowAddress(3, 9, per_bank - 1).value(), 0u);
    EXPECT_DEATH((void)map.bankRowAddress(3, 9, per_bank), "no granule");
}

} // namespace
} // namespace hh::dram
