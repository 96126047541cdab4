#include "bench.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include <sys/resource.h>

using namespace hh;

namespace hhb {

World
paperWorld(uint64_t bytes)
{
    World world;
    world.host = sys::SystemConfig::s1(1);
    world.host.withMemory(bytes);
    const uint64_t total = world.host.dram.totalBytes;
    world.vm.bootMemBytes = total / 16;
    world.vm.virtioMemRegionSize = total;
    world.vm.virtioMemPlugged = total * 12 / 16;
    // The paper's 60,000 vIOMMU mappings at 16 GiB, scaled.
    world.attack.steering.exhaustMappings =
        static_cast<uint32_t>(60'000ull * total / (16_GiB));
    world.attack.profiler.stopAfterExploitable = 0; // full profile
    return world;
}

mitigate::MatrixSpec
quickMatrixSpec()
{
    // bench_mitigation_matrix --quick: one S1 host at 1 GiB with the
    // flip density boosted x8, the lean calibrated VM, 8 trials a cell.
    mitigate::MatrixSpec spec;
    sys::SystemConfig host = sys::SystemConfig::s1(1);
    host.withMemory(1_GiB);
    host.dram.fault.weakCellsPerRow *= 8;
    spec.hosts = {host};
    spec.vm.bootMemBytes = 64_MiB;
    spec.vm.virtioMemRegionSize = 1_GiB;
    spec.vm.virtioMemPlugged = 640_MiB;
    spec.attack.steering.exhaustMappings = 2'500;
    spec.attack.profiler.stopAfterExploitable = 0;
    spec.defenses = {"none", "quarantine", "siloz",
                     "catt", "catt-hole",  "trr-ecc"};
    spec.attacks = {"pairwise", "combined"};
    spec.trials = 8;
    spec.threads = 1;
    spec.shards = 1;
    return spec;
}

double
peakRssMb()
{
    struct rusage self{};
    struct rusage children{};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &children);
    // ru_maxrss is in KiB on Linux.
    return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss))
        / 1024.0;
}

std::vector<uint64_t>
seededOrder(uint64_t n, uint64_t seed, uint64_t salt)
{
    std::vector<uint64_t> order(n);
    for (uint64_t i = 0; i < n; ++i)
        order[i] = i;
    base::Rng rng(base::mix64(seed, salt));
    for (uint64_t i = n; i > 1; --i)
        std::swap(order[i - 1], order[rng.below(i)]);
    return order;
}

std::string
hex(uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::map<std::string, std::string>
readKeyValues(const std::string &path)
{
    std::map<std::string, std::string> values;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        const size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.resize(hash);
        std::istringstream fields(line);
        std::string key;
        std::string value;
        if (fields >> key >> value)
            values[key] = value;
    }
    return values;
}

} // namespace hhb
