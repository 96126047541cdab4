// Fixture for the no-deep-world-copy rule: world-state types clone
// through their CoW fork paths (HostSystem::forkTrial,
// DramSystem::forkFrom, BuddyAllocator::forkFrom, CowChunks::fork);
// a copy constructor that is not `= delete`d reintroduces the
// per-trial deep world clone the forking refactor removed.

namespace hh::base {

// The one copy-on-write container: a copying constructor would turn
// every fork of the memory and frame database into a deep copy.
template <typename T, unsigned ChunkShift>
class CowChunks
{
  public:
    CowChunks(const CowChunks &other); // expect: no-deep-world-copy
    CowChunks(CowChunks &&) = default;
};

} // namespace hh::base

namespace hh::sys {

class HostSystem
{
  public:
    HostSystem(const HostSystem &other); // expect: no-deep-world-copy
    HostSystem &operator=(const HostSystem &) = delete;
};

class DramSystem
{
  public:
    DramSystem(const hh::sys::DramSystem &src); // expect: no-deep-world-copy
};

class BuddyAllocator
{
  public:
    // Deleted copies are the sanctioned spelling: no finding.
    BuddyAllocator(const BuddyAllocator &) = delete;
    // Tag-dispatched fork ctors take the source second: no finding.
    struct ForkTag
    {};
    BuddyAllocator(ForkTag, const BuddyAllocator &src);
};

// Near-miss: non-world value types may copy freely.
class RowStats
{
  public:
    RowStats(const RowStats &other);
};

} // namespace hh::sys
