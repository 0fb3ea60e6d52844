// Arena: a slab allocator for per-query scratch memory (DESIGN.md §13).
//
// The précis generators allocate many short-lived buffers per query —
// accepted-tid snapshots, projection buffers, chunk outputs — whose
// lifetimes all end together when the query finishes. An Arena serves
// them from large slabs with a bump pointer and frees everything
// wholesale, so the hot path never pays per-buffer malloc/free and the
// allocator never fragments. ExecutionContext owns one per query
// (freed at context teardown); generators running without a context
// create a local one per Generate call.
//
// Thread-safety: Allocate/Reset/stats are internally locked. Chunk
// materialization tasks allocate their output buffers from the query's
// arena concurrently with the planner thread, but only at chunk
// granularity (hundreds of tuples per allocation), so the mutex is not
// a contention point. Memory handed out is exclusively owned by the
// caller until Reset()/destruction.

#ifndef PRECIS_COMMON_ARENA_H_
#define PRECIS_COMMON_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <new>
#include <type_traits>
#include <vector>

namespace precis {

/// \brief Counters describing an arena's footprint. `peak_used_bytes`
/// survives Reset() so a per-query arena can report its high-water mark
/// at teardown (exported through PrecisService::metrics()).
struct ArenaStats {
  uint64_t slabs = 0;           // live slabs
  uint64_t reserved_bytes = 0;  // sum of live slab sizes
  uint64_t used_bytes = 0;      // bytes handed out since the last Reset
  uint64_t peak_used_bytes = 0; // max used_bytes ever observed
  uint64_t resets = 0;          // wholesale frees performed
};

/// \brief Slab allocator with wholesale reset.
class Arena {
 public:
  static constexpr size_t kDefaultSlabBytes = 64 * 1024;

  explicit Arena(size_t slab_bytes = kDefaultSlabBytes)
      : slab_bytes_(slab_bytes < 1024 ? 1024 : slab_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Returns `bytes` of uninitialized storage aligned to `align` (a power
  /// of two): the caller writes before it reads. Never returns nullptr
  /// (allocation failure throws std::bad_alloc, like the global allocator
  /// it replaces). Zero-byte requests return a unique non-null pointer,
  /// matching operator new semantics.
  void* Allocate(size_t bytes, size_t align = alignof(std::max_align_t)) {
    std::lock_guard<std::mutex> lock(mu_);
    return AllocateLocked(bytes == 0 ? 1 : bytes, align);
  }

  /// Typed array of `n` elements, aligned for T. The caller constructs
  /// the elements (placement new or assignment); the arena never runs
  /// destructors, so only trivially destructible element types may be
  /// stored across Reset boundaries.
  template <typename T>
  T* AllocateArray(size_t n) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena storage is freed without running destructors");
    return static_cast<T*>(Allocate(n * sizeof(T), alignof(T)));
  }

  /// Frees every slab at once. All memory previously handed out becomes
  /// invalid. Statistics keep the peak across resets.
  void Reset() {
    std::lock_guard<std::mutex> lock(mu_);
    slabs_.clear();
    current_ = nullptr;
    current_end_ = nullptr;
    used_ = 0;
    reserved_ = 0;
    ++resets_;
  }

  ArenaStats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    ArenaStats s;
    s.slabs = slabs_.size();
    s.reserved_bytes = reserved_;
    s.used_bytes = used_;
    s.peak_used_bytes = peak_used_;
    s.resets = resets_;
    return s;
  }

 private:
  void* AllocateLocked(size_t bytes, size_t align) {
    uintptr_t p = reinterpret_cast<uintptr_t>(current_);
    uintptr_t aligned = (p + (align - 1)) & ~uintptr_t(align - 1);
    if (current_ == nullptr || aligned + bytes > reinterpret_cast<uintptr_t>(current_end_)) {
      // New slab: doubled beyond the default for oversize requests so a
      // single big projection buffer does not strand a whole slab. Left
      // uninitialized — zero-filling 64 KiB per slab per query would cost
      // more than the bump allocation it serves.
      size_t want = bytes + align;
      size_t slab_size = want > slab_bytes_ ? want : slab_bytes_;
      slabs_.push_back(
          std::make_unique_for_overwrite<unsigned char[]>(slab_size));
      current_ = slabs_.back().get();
      current_end_ = current_ + slab_size;
      reserved_ += slab_size;
      p = reinterpret_cast<uintptr_t>(current_);
      aligned = (p + (align - 1)) & ~uintptr_t(align - 1);
    }
    current_ = reinterpret_cast<unsigned char*>(aligned + bytes);
    used_ += bytes + (aligned - p);
    if (used_ > peak_used_) peak_used_ = used_;
    return reinterpret_cast<void*>(aligned);
  }

  const size_t slab_bytes_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<unsigned char[]>> slabs_;
  unsigned char* current_ = nullptr;
  unsigned char* current_end_ = nullptr;
  uint64_t used_ = 0;
  uint64_t reserved_ = 0;
  uint64_t peak_used_ = 0;
  uint64_t resets_ = 0;
};

/// \brief Minimal STL allocator over an Arena, for scratch containers
/// whose lifetime ends with the query (`ArenaVector<Tid>` and friends).
/// Deallocate is a no-op — memory returns in the wholesale Reset.
template <typename T>
class ArenaAllocator {
 public:
  using value_type = T;

  explicit ArenaAllocator(Arena* arena) : arena_(arena) {}
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>& other) : arena_(other.arena()) {}

  T* allocate(size_t n) { return arena_->AllocateArray<T>(n); }
  void deallocate(T*, size_t) {}  // freed wholesale by Arena::Reset

  Arena* arena() const { return arena_; }

  bool operator==(const ArenaAllocator& o) const { return arena_ == o.arena_; }
  bool operator!=(const ArenaAllocator& o) const { return arena_ != o.arena_; }

 private:
  Arena* arena_;
};

template <typename T>
using ArenaVector = std::vector<T, ArenaAllocator<T>>;

}  // namespace precis

#endif  // PRECIS_COMMON_ARENA_H_
