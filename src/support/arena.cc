#include "src/support/arena.h"

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

Arena::Chunk& Arena::ChunkWithRoom(size_t size, size_t align) {
  if (!chunks_.empty()) {
    Chunk& last = chunks_.back();
    uintptr_t base = reinterpret_cast<uintptr_t>(last.data.get());
    size_t aligned = AlignUp(base + last.used, align) - base;
    if (aligned + size <= last.size) {
      return last;
    }
  }
  size_t chunk_size = kMinChunkSize;
  while (chunk_size < size + align) {
    chunk_size *= 2;
  }
  if (bytes_allocated_ + chunk_size > capacity_ &&
      bytes_allocated_ + size > capacity_) {
    std::fprintf(stderr, "flexrpc: arena '%s' exhausted (%zu + %zu > %zu)\n",
                 name_.c_str(), bytes_allocated_, size, capacity_);
    std::abort();
  }
  Chunk chunk;
  chunk.data = std::make_unique<uint8_t[]>(chunk_size);
  chunk.size = chunk_size;
  chunks_.push_back(std::move(chunk));
  return chunks_.back();
}

void* Arena::Allocate(size_t size, size_t align) {
  if (size == 0) {
    size = 1;
  }
  Chunk& chunk = ChunkWithRoom(size, align);
  uintptr_t base = reinterpret_cast<uintptr_t>(chunk.data.get());
  size_t offset = AlignUp(base + chunk.used, align) - base;
  chunk.used = offset + size;
  bytes_allocated_ += size;
  TraceAdd(TraceCounter::kArenaBumpAllocs);
  TraceAdd(TraceCounter::kArenaBumpBytes, size);
  return chunk.data.get() + offset;
}

size_t Arena::SizeClassFor(size_t size) {
  // Power-of-two classes from 32 bytes up.
  size_t cls = 32;
  while (cls < size) {
    cls *= 2;
  }
  return cls;
}

void* Arena::AllocateBlock(size_t size) {
  size_t cls = SizeClassFor(size);
  ++block_allocs_;
  TraceAdd(TraceCounter::kArenaBlockAllocs);
  TraceAdd(TraceCounter::kArenaBlockBytes, cls);
  auto it = free_lists_.find(cls);
  if (it != free_lists_.end() && !it->second.empty()) {
    void* ptr = it->second.back();
    it->second.pop_back();
    return ptr;
  }
  void* mem =
      Allocate(sizeof(BlockHeader) + cls, alignof(std::max_align_t));
  auto* header = static_cast<BlockHeader*>(mem);
  header->size_class = static_cast<uint32_t>(cls);
  header->magic = kBlockMagic;
  return header + 1;
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
  free_lists_[header->size_class].push_back(ptr);
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
  free_lists_.clear();
  bytes_allocated_ = 0;
  block_allocs_ = 0;
  block_frees_ = 0;
}

}  // namespace flexrpc
