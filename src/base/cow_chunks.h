/**
 * @file
 * The simulator's one copy-on-write container: a directly indexed
 * array split into fixed-size chunks held by shared_ptr.
 *
 * World forking (the Monte-Carlo trial engine's clone path) must cost
 * O(chunks), not O(memory): fork() copies only the chunk pointer
 * table, and the first write to a chunk still shared with another
 * array copies that one chunk (write-time unsharing). Chunks are
 * allocated lazily: a never-written chunk is a null pointer and reads
 * as value-initialized elements, so an array covering a multi-gigabyte
 * address space costs one pointer per chunk until it is touched.
 *
 * Thread safety matches the trial engine's needs: a frozen template's
 * chunks are only ever read, each fork owns its pointer table
 * exclusively, and mut() copies before the first write whenever a chunk
 * is still shared -- concurrent forks never write the same chunk.
 */

#ifndef HYPERHAMMER_BASE_COW_CHUNKS_H
#define HYPERHAMMER_BASE_COW_CHUNKS_H

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "base/log.h"

namespace hh::base {

/** Copy-on-write array of @p T, 2^ChunkShift elements per chunk. */
template <typename T, unsigned ChunkShift>
class CowChunks
{
  public:
    static constexpr uint64_t kChunkSize = 1ull << ChunkShift;

    /** @p count elements, all reading as T{}; allocates no chunk. */
    explicit CowChunks(uint64_t count)
        : count(count), chunks((count + kChunkSize - 1) >> ChunkShift)
    {}

    /** Deep copies are banned: clone via fork(). */
    CowChunks(const CowChunks &) = delete;
    CowChunks &operator=(const CowChunks &) = delete;
    CowChunks(CowChunks &&) = default;
    CowChunks &operator=(CowChunks &&) = default;

    uint64_t size() const { return count; }

    /** Read-only access; never allocates or unshares. */
    const T &
    operator[](uint64_t i) const
    {
        HH_ASSERT(i < count);
        const Chunk *chunk = chunks[i >> ChunkShift].get();
        return chunk != nullptr ? (*chunk)[i & (kChunkSize - 1)]
                                : kUnwritten;
    }

    /**
     * Writable access: allocates the containing chunk on first touch
     * and copies it first when it is still shared with another array.
     */
    T &
    mut(uint64_t i)
    {
        HH_ASSERT(i < count);
        std::shared_ptr<Chunk> &chunk = chunks[i >> ChunkShift];
        if (chunk == nullptr || chunk.use_count() > 1) [[unlikely]]
            own(chunk);
        return (*chunk)[i & (kChunkSize - 1)];
    }

    /** A copy-on-write clone sharing every chunk; O(chunks). */
    CowChunks
    fork() const
    {
        CowChunks forked(0);
        forked.count = count;
        forked.chunks = chunks;
        return forked;
    }

    /**
     * Call @p visit(index, element) for every element of every
     * allocated chunk, in ascending index order. Unallocated chunks
     * (all T{}) are skipped.
     */
    template <typename Visit>
    void
    forEachAllocated(Visit &&visit) const
    {
        for (uint64_t c = 0; c < chunks.size(); ++c) {
            if (chunks[c] == nullptr)
                continue;
            const uint64_t first = c << ChunkShift;
            const uint64_t end = std::min(count, first + kChunkSize);
            for (uint64_t i = first; i < end; ++i)
                visit(i, (*chunks[c])[i - first]);
        }
    }

    /** Chunks privately owned by this array (diagnostics/tests). */
    uint64_t
    unsharedChunks() const
    {
        uint64_t owned = 0;
        for (const std::shared_ptr<Chunk> &chunk : chunks)
            owned += chunk != nullptr && chunk.use_count() == 1 ? 1 : 0;
        return owned;
    }

  private:
    using Chunk = std::array<T, kChunkSize>;

    /** What every element of a never-written chunk reads as. */
    static inline const T kUnwritten{};

    /** Give @p chunk a private copy: allocated, or unshared. */
    [[gnu::noinline]] static void
    own(std::shared_ptr<Chunk> &chunk)
    {
        chunk = chunk == nullptr ? std::make_shared<Chunk>()
                                 : std::make_shared<Chunk>(*chunk);
    }

    uint64_t count;
    std::vector<std::shared_ptr<Chunk>> chunks;
};

} // namespace hh::base

#endif // HYPERHAMMER_BASE_COW_CHUNKS_H
