#include "perfbench/src/alloc_counter.h"

#include <cstdlib>
#include <new>

namespace perfbench {
namespace {
bool g_counting = false;
uint64_t g_allocs = 0;

void* CountedAlloc(std::size_t size) {
  if (g_counting) {
    ++g_allocs;
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}
}  // namespace

void SetAllocCounting(bool on) { g_counting = on; }
bool AllocCounting() { return g_counting; }
uint64_t AllocCount() { return g_allocs; }

}  // namespace perfbench

// The replaceable global allocation functions ([new.delete.single] and
// [new.delete.array]). The nothrow and aligned forms of libstdc++ forward
// to these or are unused by the library.
void* operator new(std::size_t size) { return perfbench::CountedAlloc(size); }
void* operator new[](std::size_t size) {
  return perfbench::CountedAlloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
