// FlatKeySet: an open-addressing set of 64-bit keys (DESIGN.md §11, §13).
//
// The cold miss path asks one question of many keys — tids the planner
// already accepted, join values already on an IN-list, primary keys
// already stored, parent keys an FK must find — and never erases or
// iterates. A node-based std::unordered_set answers it with one heap node
// per key; this set answers it from one flat array that grows by doubling,
// so its allocations are logarithmic in the keys it holds, and a Reserve
// sized to them is the only one.
//
// Keys are canonical 64-bit bits: tids as they are, values as
// Column::KeyBits / Column::CanonicalBits make them, which reproduces
// Value equality (-0.0 equals +0.0; NaN has no bits and equals nothing).
// Layout: linear probing, power-of-two capacity, load at most 1/2. The
// all-ones key marks an empty slot; when it is itself inserted, a flag
// holds it instead.

#ifndef PRECIS_COMMON_FLAT_KEY_SET_H_
#define PRECIS_COMMON_FLAT_KEY_SET_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace precis {

/// splitmix64 finalizer: a full-avalanche mix of 64 key bits. The one hash
/// of every flat key table (FlatKeySet, ColumnIndex).
inline uint64_t MixKeyBits(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// \brief Membership set of 64-bit keys: Insert, Contains, Reserve, size.
class FlatKeySet {
 public:
  /// Adds `key`; true when it was not already present.
  bool Insert(uint64_t key) {
    if (key == kEmptySlot) {
      const bool fresh = !has_empty_slot_key_;
      has_empty_slot_key_ = true;
      return fresh;
    }
    if ((used_ + 1) * 2 > slots_.size()) {
      Rehash(slots_.empty() ? kMinCapacity : slots_.size() * 2);
    }
    uint64_t& slot = slots_[Find(key)];
    if (slot == key) return false;
    slot = key;
    ++used_;
    return true;
  }

  bool Contains(uint64_t key) const {
    if (key == kEmptySlot) return has_empty_slot_key_;
    return !slots_.empty() && slots_[Find(key)] == key;
  }

  /// Sizes the table so that `n` keys insert without a rehash.
  void Reserve(size_t n) {
    size_t capacity = kMinCapacity;
    while (capacity < 2 * n) capacity *= 2;
    if (capacity > slots_.size()) Rehash(capacity);
  }

  size_t size() const { return used_ + (has_empty_slot_key_ ? 1 : 0); }

 private:
  static constexpr uint64_t kEmptySlot = ~uint64_t{0};
  static constexpr size_t kMinCapacity = 16;

  /// The slot holding `key`, or the empty slot where it would go.
  size_t Find(uint64_t key) const {
    const size_t mask = slots_.size() - 1;
    size_t i = MixKeyBits(key) & mask;
    while (slots_[i] != kEmptySlot && slots_[i] != key) i = (i + 1) & mask;
    return i;
  }

  void Rehash(size_t capacity) {
    std::vector<uint64_t> old(capacity, kEmptySlot);
    old.swap(slots_);
    for (uint64_t key : old) {
      if (key != kEmptySlot) slots_[Find(key)] = key;
    }
  }

  std::vector<uint64_t> slots_;  // kEmptySlot or a key
  size_t used_ = 0;              // keys in slots_
  bool has_empty_slot_key_ = false;
};

}  // namespace precis

#endif  // PRECIS_COMMON_FLAT_KEY_SET_H_
