// A std::allocator for large arrays that must give their memory back to
// the OS when they are freed.
//
// glibc serves a block from its brk heap once its dynamic mmap threshold
// has risen past the block's size (the threshold follows the largest
// mmapped block freed so far, up to 32 MiB), and free() returns heap pages
// only from the top of the heap. So when a collector's user index is
// freed while any live block sits above it, its pages stay resident, and
// the next collector -- the WAL replay after a run, say -- lays its arrays
// out over and past them: the process holds both footprints at once.
// Whether a block lands above depends on allocation timing, so a run's
// peak RSS flipped between two levels from one run to the next.
//
// PageAllocator gives each block of at least kPageAllocatorMinBytes its
// own anonymous mapping, unmapped on deallocate, so such a block is
// resident exactly while it is allocated and touched, whatever else the
// heap holds. Smaller blocks go through std::allocator as usual.
#ifndef CAPP_CORE_PAGE_ALLOCATOR_H_
#define CAPP_CORE_PAGE_ALLOCATOR_H_

#include <sys/mman.h>

#include <cstddef>
#include <limits>
#include <memory>
#include <new>
#include <vector>

namespace capp {

/// Blocks at least this large get their own mapping (glibc's initial
/// mmap threshold).
inline constexpr size_t kPageAllocatorMinBytes = size_t{128} << 10;

template <typename T>
struct PageAllocator {
  using value_type = T;

  PageAllocator() = default;
  template <typename U>
  PageAllocator(const PageAllocator<U>&) noexcept {}

  T* allocate(size_t n) {
    if (n > std::numeric_limits<size_t>::max() / sizeof(T)) {
      throw std::bad_array_new_length();
    }
    const size_t bytes = n * sizeof(T);
    if (bytes < kPageAllocatorMinBytes) return std::allocator<T>().allocate(n);
    void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    return static_cast<T*>(p);
  }

  void deallocate(T* p, size_t n) noexcept {
    if (n * sizeof(T) < kPageAllocatorMinBytes) {
      std::allocator<T>().deallocate(p, n);
    } else {
      ::munmap(p, n * sizeof(T));
    }
  }

  template <typename U>
  bool operator==(const PageAllocator<U>&) const noexcept {
    return true;
  }
};

/// A vector whose large buffers come from PageAllocator.
template <typename T>
using PageVector = std::vector<T, PageAllocator<T>>;

}  // namespace capp

#endif  // CAPP_CORE_PAGE_ALLOCATOR_H_
