#include "src/support/arena.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>

#include "src/support/trace.h"

namespace flexrpc {

namespace {
constexpr size_t kMinChunkSize = 256u << 10;  // 256 KiB

size_t AlignUp(size_t value, size_t align) {
  return (value + align - 1) & ~(align - 1);
}
}  // namespace

Arena::Arena(std::string name, size_t capacity)
    : name_(std::move(name)), capacity_(capacity) {}

Arena::~Arena() = default;

Arena::Chunk* Arena::ChunkWithRoom(size_t size, size_t align) {
  if (!chunks_.empty()) {
    Chunk& last = chunks_.back();
    uintptr_t base = reinterpret_cast<uintptr_t>(last.data.get());
    size_t aligned = AlignUp(base + last.used, align) - base;
    if (aligned + size <= last.size) {
      return &last;
    }
  }
  size_t chunk_size = kMinChunkSize;
  while (chunk_size < size + align) {
    chunk_size *= 2;
  }
  if (bytes_allocated_ + chunk_size > capacity_ &&
      bytes_allocated_ + size > capacity_) {
    return nullptr;
  }
  Chunk chunk;
  chunk.data = std::make_unique<uint8_t[]>(chunk_size);
  chunk.size = chunk_size;
  chunks_.push_back(std::move(chunk));
  return &chunks_.back();
}

void* Arena::Allocate(size_t size, size_t align) {
  return Bump(size, align, /*abort_when_full=*/true);
}

void* Arena::Bump(size_t size, size_t align, bool abort_when_full) {
  if (size == 0) {
    size = 1;
  }
  Chunk* chunk = ChunkWithRoom(size, align);
  if (chunk == nullptr) {
    if (!abort_when_full) {
      return nullptr;
    }
    std::fprintf(stderr, "flexrpc: arena '%s' exhausted (%zu + %zu > %zu)\n",
                 name_.c_str(), bytes_allocated_, size, capacity_);
    std::abort();
  }
  uintptr_t base = reinterpret_cast<uintptr_t>(chunk->data.get());
  size_t offset = AlignUp(base + chunk->used, align) - base;
  chunk->used = offset + size;
  bytes_allocated_ += size;
  TraceAdd(TraceCounter::kArenaBumpAllocs);
  TraceAdd(TraceCounter::kArenaBumpBytes, size);
  return chunk->data.get() + offset;
}

size_t Arena::SizeClassFor(size_t size) {
  return std::bit_ceil(std::max(size, size_t{1} << kMinClassShift));
}

size_t Arena::ClassIndex(size_t size_class) {
  return static_cast<size_t>(std::countr_zero(size_class)) - kMinClassShift;
}

void* Arena::AllocateBlock(size_t size) {
  return Block(size, /*abort_when_full=*/true);
}

void* Arena::TryAllocateBlock(size_t size) {
  return Block(size, /*abort_when_full=*/false);
}

void* Arena::Block(size_t size, bool abort_when_full) {
  size_t cls = SizeClassFor(size);
  void* ptr = nullptr;
  std::vector<void*>& free_list = free_lists_[ClassIndex(cls)];
  if (!free_list.empty()) {
    ptr = free_list.back();
    free_list.pop_back();
  } else {
    void* mem = Bump(sizeof(BlockHeader) + cls, alignof(std::max_align_t),
                     abort_when_full);
    if (mem == nullptr) {
      return nullptr;
    }
    auto* header = static_cast<BlockHeader*>(mem);
    header->size_class = static_cast<uint32_t>(cls);
    header->magic = kBlockMagic;
    ptr = header + 1;
  }
  ++block_allocs_;
  TraceAdd(TraceCounter::kArenaBlockAllocs);
  TraceAdd(TraceCounter::kArenaBlockBytes, cls);
  return ptr;
}

void Arena::FreeBlock(void* ptr) {
  if (ptr == nullptr) {
    return;
  }
  auto* header = static_cast<BlockHeader*>(ptr) - 1;
  if (header->magic != kBlockMagic) {
    std::fprintf(stderr,
                 "flexrpc: arena '%s': FreeBlock on non-block pointer\n",
                 name_.c_str());
    std::abort();
  }
  ++block_frees_;
  TraceAdd(TraceCounter::kArenaBlockFrees);
  free_lists_[ClassIndex(header->size_class)].push_back(ptr);
}

bool Arena::Owns(const void* ptr, size_t size) const {
  const auto* p = static_cast<const uint8_t*>(ptr);
  for (const Chunk& chunk : chunks_) {
    const uint8_t* begin = chunk.data.get();
    if (p >= begin && p < begin + chunk.size) {
      return size <= static_cast<size_t>(begin + chunk.size - p);
    }
  }
  return false;
}

void Arena::Reset() {
  chunks_.clear();
  for (std::vector<void*>& free_list : free_lists_) {
    free_list.clear();
  }
  bytes_allocated_ = 0;
  block_allocs_ = 0;
  block_frees_ = 0;
}

}  // namespace flexrpc
