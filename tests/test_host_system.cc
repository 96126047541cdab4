/**
 * @file
 * Tests of the host assembly: the S1/S2/S3 presets, boot-time noise
 * population, churn, scaling, and VM lifecycle accounting.
 */

#include <gtest/gtest.h>

#include <array>
#include <string>

#include "sys/host_system.h"

namespace hh::sys {
namespace {

TEST(SystemConfig, PresetsMatchPaperHardware)
{
    const SystemConfig s1 = SystemConfig::s1();
    EXPECT_EQ(s1.name, "S1");
    EXPECT_EQ(s1.dram.totalBytes, 16_GiB);
    EXPECT_TRUE(s1.dram.mapping == dram::AddressMapping::i3_10100());
    EXPECT_FALSE(s1.dram.trr.enabled);
    EXPECT_FALSE(s1.dram.ecc.enabled);

    const SystemConfig s2 = SystemConfig::s2();
    EXPECT_TRUE(s2.dram.mapping
                == dram::AddressMapping::xeonE3_2124());
    // Table 1: S2 flips more but far less stably.
    EXPECT_GT(s2.dram.fault.weakCellsPerRow,
              SystemConfig::s1().dram.fault.weakCellsPerRow);
    EXPECT_LT(s2.dram.fault.stableFraction,
              SystemConfig::s1().dram.fault.stableFraction);

    const SystemConfig s3 = SystemConfig::s3();
    // OpenStack host: more unmovable noise and ongoing churn.
    EXPECT_GT(s3.noise.unmovableFreePages,
              s1.noise.unmovableFreePages);
    EXPECT_GT(s3.noise.churnPagesPerTick, 0u);
}

TEST(SystemConfig, WithMemoryScalesNoise)
{
    SystemConfig cfg = SystemConfig::s1();
    const uint64_t noise_full = cfg.noise.unmovableFreePages;
    cfg.withMemory(2_GiB);
    EXPECT_EQ(cfg.dram.totalBytes, 2_GiB);
    EXPECT_NEAR(static_cast<double>(cfg.noise.unmovableFreePages),
                noise_full / 8.0, 2.0);
}

TEST(SystemConfig, WithSeedChangesDramSeed)
{
    SystemConfig a = SystemConfig::s1().withSeed(1);
    SystemConfig b = SystemConfig::s1().withSeed(2);
    EXPECT_NE(a.dram.seed, b.dram.seed);
}

TEST(HostSystem, BootLeavesConfiguredNoise)
{
    HostSystem host(SystemConfig::s1(7).withMemory(1_GiB));
    const uint64_t noise = host.noisePages();
    const uint64_t target = host.config().noise.unmovableFreePages;
    // The random interleave cannot be exact; 30 % tolerance.
    EXPECT_GT(noise, target * 7 / 10);
    EXPECT_LT(noise, target * 13 / 10);
    // Kernel pages are resident.
    EXPECT_NEAR(
        static_cast<double>(
            host.countFramesByUse(mm::PageUse::KernelData)),
        static_cast<double>(host.config().noise.kernelResidentPages),
        host.config().noise.kernelResidentPages * 0.02 + 8);
    EXPECT_EQ(host.countFramesByUse(mm::PageUse::PageCache),
              host.config().noise.pageCachePages);
}

TEST(HostSystem, BootChargesTime)
{
    HostSystem host(SystemConfig::s1(7).withMemory(1_GiB));
    EXPECT_GT(host.clock().now(), 0u);
}

TEST(HostSystem, NoiseTickKeepsPopulationSteady)
{
    HostSystem host(SystemConfig::s3(7).withMemory(1_GiB));
    const uint64_t kernel_before =
        host.countFramesByUse(mm::PageUse::KernelData);
    for (int i = 0; i < 50; ++i)
        host.noiseTick();
    const uint64_t kernel_after =
        host.countFramesByUse(mm::PageUse::KernelData);
    EXPECT_NEAR(static_cast<double>(kernel_after),
                static_cast<double>(kernel_before),
                kernel_before * 0.05);
    // Churn perturbs the free lists but keeps noise in the same band.
    EXPECT_GT(host.noisePages(), 0u);
}

TEST(HostSystem, NoiseTickNoOpWithoutChurn)
{
    HostSystem host(SystemConfig::s1(7).withMemory(1_GiB));
    const base::SimTime before = host.clock().now();
    host.noiseTick();
    EXPECT_EQ(host.clock().now(), before);
}

TEST(HostSystem, CreateVmChargesProvisioningTime)
{
    HostSystem host(SystemConfig::s1(7).withMemory(2_GiB));
    vm::VmConfig cfg;
    cfg.bootMemBytes = 64_MiB;
    cfg.virtioMemRegionSize = 1_GiB;
    cfg.virtioMemPlugged = 512_MiB;
    const base::SimTime before = host.clock().now();
    auto machine = host.createVm(cfg);
    // At least the fixed boot cost plus per-byte preparation.
    EXPECT_GT(host.clock().now() - before, 20 * base::kSecond);
    EXPECT_EQ(machine->memorySize(), 64_MiB + 512_MiB);
}

TEST(HostSystem, VmIdsIncrease)
{
    HostSystem host(SystemConfig::s1(7).withMemory(2_GiB));
    vm::VmConfig cfg;
    cfg.bootMemBytes = 16_MiB;
    cfg.virtioMemRegionSize = 64_MiB;
    cfg.virtioMemPlugged = 32_MiB;
    auto a = host.createVm(cfg);
    auto b = host.createVm(cfg);
    EXPECT_NE(a->id(), b->id());
}

TEST(HostSystem, RespawnVariesGuestLayout)
{
    HostSystem host(SystemConfig::s1(7).withMemory(2_GiB));
    vm::VmConfig cfg;
    cfg.bootMemBytes = 64_MiB;
    cfg.virtioMemRegionSize = 2_GiB;
    cfg.virtioMemPlugged = 1_GiB;

    auto first = host.createVm(cfg);
    std::vector<uint64_t> layout_a;
    for (GuestPhysAddr hp : first->hugePageGpas())
        layout_a.push_back(first->debugTranslate(hp)->value());
    first.reset();

    auto second = host.createVm(cfg);
    std::vector<uint64_t> layout_b;
    for (GuestPhysAddr hp : second->hugePageGpas())
        layout_b.push_back(second->debugTranslate(hp)->value());

    EXPECT_NE(layout_a, layout_b);
}

TEST(HostSystem, PageCacheChurnPreservesCount)
{
    HostSystem host(SystemConfig::s1(7).withMemory(1_GiB));
    const uint64_t before =
        host.countFramesByUse(mm::PageUse::PageCache);
    host.pageCacheChurn(500);
    EXPECT_EQ(host.countFramesByUse(mm::PageUse::PageCache), before);
}

TEST(HostSystem, S3StartsWithMoreNoiseThanS1)
{
    HostSystem s1(SystemConfig::s1(7).withMemory(2_GiB));
    HostSystem s3(SystemConfig::s3(7).withMemory(2_GiB));
    EXPECT_GT(s3.noisePages(), s1.noisePages() * 2);
}

/**
 * Everything a VM's teardown must hand back: free pages per migrate
 * type (PCP drained first, so every free page sits on a buddy list)
 * and the backend's touched-page count.
 */
struct HostCensus
{
    std::array<uint64_t, mm::kMigrateTypes> freeByType{};
    uint64_t freePages = 0;
    size_t touchedPages = 0;

    bool operator==(const HostCensus &) const = default;
};

HostCensus
censusOf(HostSystem &host)
{
    host.buddy().drainPcp();
    HostCensus census;
    const mm::PageTypeInfo info = host.pageTypeInfo();
    for (unsigned mt = 0; mt < mm::kMigrateTypes; ++mt)
        census.freeByType[mt] =
            info.totalPages(static_cast<mm::MigrateType>(mt));
    census.freePages = host.buddy().freePages();
    census.touchedPages = host.dram().backend().touchedPages();
    return census;
}

TEST(HostSystem, PublicVmTeardownReturnsEveryFrame)
{
    // The trial-discard rule (HostSystem::discardTrial) must never
    // reach a VM destroyed through its public destructor on a live
    // host: that path -- in-host respawns -- keeps the full teardown.
    for (const unsigned passthrough : {0u, 1u}) {
        for (const bool balloon : {false, true}) {
            SCOPED_TRACE("passthrough=" + std::to_string(passthrough)
                         + " balloon=" + std::to_string(balloon));
            HostSystem host(SystemConfig::s1(11).withMemory(1_GiB));
            vm::VmConfig cfg;
            cfg.bootMemBytes = 64_MiB;
            cfg.virtioMemRegionSize = 256_MiB;
            cfg.virtioMemPlugged = 128_MiB;
            cfg.passthroughDevices = passthrough;
            cfg.balloon = balloon;
            const HostCensus before = censusOf(host);
            {
                vm::VirtualMachine machine(host.dram(), host.buddy(), cfg,
                                           42);
                // Give every teardown path work: demoted hugepages
                // (EPT pages), IOPT pages, guest data, and balloon
                // holes.
                for (unsigned i = 0; i < 8; ++i)
                    (void)machine.execute(vm::kVirtioMemRegionStart
                                          + i * kHugePageSize);
                for (unsigned i = 0; i < 64 && passthrough > 0; ++i) {
                    ASSERT_TRUE(machine
                                    .iommuMap(0, IoVirtAddr(i * kPageSize),
                                              GuestPhysAddr(i * kPageSize))
                                    .ok());
                }
                // VFIO pins all guest memory, which rules ballooning
                // out (QEMU inhibits it too); the device is attached
                // but idle then.
                if (balloon && passthrough == 0) {
                    // Split a boot hugepage, deflate one page onto a
                    // replacement frame and leave another ballooned out.
                    const GuestPhysAddr hp(3 * kHugePageSize);
                    (void)machine.execute(hp);
                    virtio::VirtioBalloonDevice &dev =
                        *machine.balloonDevice();
                    ASSERT_TRUE(dev.inflatePage(hp).ok());
                    ASSERT_TRUE(dev.deflatePage(hp).ok());
                    ASSERT_TRUE(dev.inflatePage(hp + kPageSize).ok());
                }
                ASSERT_TRUE(machine.write64(GuestPhysAddr(8), 0x5a).ok());
                EXPECT_NE(censusOf(host).touchedPages, before.touchedPages);
            }
            HostCensus expected = before;
            if (passthrough > 0) {
                // Pinned-then-unpinned guest memory keeps its
                // unmovable character (Section 4.2.2): the teardown
                // returns every page, but retyped.
                const uint64_t pinned =
                    (cfg.bootMemBytes + cfg.virtioMemPlugged) / kPageSize;
                expected.freeByType[static_cast<unsigned>(
                    mm::MigrateType::Movable)] -= pinned;
                expected.freeByType[static_cast<unsigned>(
                    mm::MigrateType::Unmovable)] += pinned;
            }
            EXPECT_EQ(censusOf(host), expected);
            EXPECT_EQ(host.countFramesByUse(mm::PageUse::GuestMemory, 42),
                      0u);
            EXPECT_EQ(host.countFramesByUse(mm::PageUse::EptPage, 42), 0u);
            EXPECT_EQ(host.countFramesByUse(mm::PageUse::IoptPage, 42),
                      0u);
            host.buddy().checkConsistency();
        }
    }
}

} // namespace
} // namespace hh::sys
