// Global operator new/delete replacement linked only into the benchmark
// binary: every heap allocation bumps a per-thread counter, which the
// probes bracket to report allocations per request. Storage comes from
// malloc/free, so the replacement changes nothing but the count.

#include <algorithm>
#include <cstdlib>
#include <new>

#include "bench.h"

namespace {

thread_local int64_t t_heap_allocs = 0;

void* CountedAlloc(std::size_t size) {
  ++t_heap_allocs;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* CountedAlignedAlloc(std::size_t size, std::align_val_t align) {
  ++t_heap_allocs;
  void* p = nullptr;
  const std::size_t alignment =
      std::max(static_cast<std::size_t>(align), sizeof(void*));
  if (posix_memalign(&p, alignment, size == 0 ? 1 : size) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

namespace cadrl {
namespace perfbench {

int64_t ThreadHeapAllocs() { return t_heap_allocs; }

}  // namespace perfbench
}  // namespace cadrl

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
