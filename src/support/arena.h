// Arena: a region allocator that backs one simulated address space.
//
// Every osim::AddressSpace owns an Arena. Allocations from different arenas
// live in genuinely disjoint host memory, so "crossing a protection domain"
// in the simulation is a real memcpy between distinct regions — the memory
// traffic the paper measures is therefore real work on the host CPU.
//
// The arena supports two allocation styles:
//   * Bump allocation (Allocate) for long-lived objects; freed only by Reset.
//   * Sized blocks (AllocateBlock/FreeBlock) with per-size-class free lists,
//     used for RPC buffer traffic so that steady-state benchmarks do not grow
//     memory without bound and so that malloc/free cost is modeled faithfully.

#ifndef FLEXRPC_SRC_SUPPORT_ARENA_H_
#define FLEXRPC_SRC_SUPPORT_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace flexrpc {

class Arena {
 public:
  // `capacity` bounds total bump space; chunks are allocated lazily.
  explicit Arena(std::string name, size_t capacity = kDefaultCapacity);
  ~Arena();

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  // Bump-allocates `size` bytes aligned to `align`. Never returns null;
  // aborts if capacity is exhausted (simulation configuration error).
  void* Allocate(size_t size, size_t align = alignof(std::max_align_t));

  // Allocates a block that can later be returned with FreeBlock. Blocks are
  // rounded up to a size class and recycled through a free list, emulating a
  // kmem/malloc-style allocator inside the address space. Aborts, as
  // Allocate does, when the capacity cannot hold the block.
  void* AllocateBlock(size_t size);
  // AllocateBlock for sizes that come from untrusted input: null, with
  // nothing allocated, when the capacity cannot hold the block.
  void* TryAllocateBlock(size_t size);
  void FreeBlock(void* ptr);

  // Convenience: construct a T inside the arena (bump space, no destructor
  // will run — use only for trivially destructible payloads).
  template <typename T, typename... Args>
  T* New(Args&&... args) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena objects never run destructors");
    void* mem = Allocate(sizeof(T), alignof(T));
    return new (mem) T(std::forward<Args>(args)...);
  }

  // Returns true if [ptr, ptr + size) lies inside one chunk of this arena
  // (for size 0, if `ptr` itself does).
  bool Owns(const void* ptr, size_t size = 1) const;

  // Releases all bump allocations and block free lists.
  void Reset();

  const std::string& name() const { return name_; }
  size_t bytes_allocated() const { return bytes_allocated_; }
  size_t block_allocs() const { return block_allocs_; }
  size_t block_frees() const { return block_frees_; }
  // Blocks currently handed out (allocs minus frees); used by leak tests.
  size_t live_blocks() const { return block_allocs_ - block_frees_; }

  static constexpr size_t kDefaultCapacity = 64u << 20;  // 64 MiB

 private:
  struct Chunk {
    std::unique_ptr<uint8_t[]> data;
    size_t size = 0;
    size_t used = 0;
  };

  // Header stored immediately before each sized block.
  struct BlockHeader {
    uint32_t size_class;
    uint32_t magic;
  };
  static constexpr uint32_t kBlockMagic = 0xB10CB10Cu;

  // Power-of-two size classes from 32 bytes up, one free list each.
  static constexpr size_t kMinClassShift = 5;
  static constexpr size_t kClassCount = 64 - kMinClassShift;
  static size_t SizeClassFor(size_t size);
  static size_t ClassIndex(size_t size_class);

  // A chunk with room for `size` bytes at `align`, or null when the
  // capacity cannot hold them.
  Chunk* ChunkWithRoom(size_t size, size_t align);
  // Allocate and AllocateBlock; null instead of an abort unless
  // `abort_when_full`.
  void* Bump(size_t size, size_t align, bool abort_when_full);
  void* Block(size_t size, bool abort_when_full);

  std::string name_;
  size_t capacity_;
  size_t bytes_allocated_ = 0;
  size_t block_allocs_ = 0;
  size_t block_frees_ = 0;
  std::vector<Chunk> chunks_;
  // Recycled blocks of each size class, indexed by ClassIndex.
  std::vector<void*> free_lists_[kClassCount];
};

}  // namespace flexrpc

#endif  // FLEXRPC_SRC_SUPPORT_ARENA_H_
