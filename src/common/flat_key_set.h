// FlatKeySet: a set of 64-bit keys in one flat array (DESIGN.md §11, §13).
//
// The cold miss path asks one question of many keys — tids the planner
// already accepted, join values already on an IN-list, primary keys
// already stored, parent keys an FK must find — and never erases or
// iterates. A node-based std::unordered_set answers it with one heap node
// per key; this set answers it from one flat array that grows
// geometrically, so its allocations are logarithmic in the keys it holds,
// and a Reserve sized to them is the only one.
//
// Keys are canonical 64-bit bits: tids as they are, values as
// Column::KeyBits / Column::CanonicalBits make them, which reproduces
// Value equality (-0.0 equals +0.0; NaN has no bits and equals nothing).
// The array has one of two layouts:
//   * hash: linear probing, power-of-two capacity of at least 16 slots,
//     load at most 1/2. The all-ones key marks an empty slot; when it is
//     itself inserted, a flag holds it instead.
//   * bitmap: one bit per key value over a window of 64-bit words; a key
//     inside the window inserts without growing it.
// A set starts hashed (one key says nothing of the range). Each time the
// array must grow — a hash table past its load, or a key outside the
// bitmap's window — the set lays its keys out again in whichever layout
// takes fewer words for them: a bitmap over [lo, hi] of the keys, read as
// signed 64-bit numbers so small negative ints sit next to zero, or a hash
// table for their count (ties go to the bitmap). Dense keys (surrogate
// ids, the tids of a relation a query mostly accepts) then cost about a
// bit each instead of 16-32 bytes.

#ifndef PRECIS_COMMON_FLAT_KEY_SET_H_
#define PRECIS_COMMON_FLAT_KEY_SET_H_

#include <algorithm>
#include <bit>
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
    if (bitmap_) {
      const uint64_t off = key - base_;
      if (off < WindowBits()) {
        uint64_t& word = table_[off >> 6];
        const uint64_t bit = uint64_t{1} << (off & 63);
        if ((word & bit) != 0) return false;
        word |= bit;
        ++size_;
        return true;
      }
    } else if (key == kEmptySlot) {
      if (has_empty_slot_key_) return false;
      has_empty_slot_key_ = true;
      ++size_;
      return true;
    } else if (!table_.empty()) {
      uint64_t& slot = table_[Find(key)];
      if (slot == key) return false;
      if ((HashedKeys() + 1) * 2 <= table_.size()) {
        slot = key;
        ++size_;
        return true;
      }
    }
    Grow(key);
    return true;
  }

  bool Contains(uint64_t key) const {
    if (bitmap_) {
      const uint64_t off = key - base_;
      return off < WindowBits() && ((table_[off >> 6] >> (off & 63)) & 1) != 0;
    }
    if (key == kEmptySlot) return has_empty_slot_key_;
    return !table_.empty() && table_[Find(key)] == key;
  }

  /// Sizes the hash table so that `n` keys in all insert without growing
  /// it. A bitmap stays as it is: keys inside its window never grow it,
  /// and a key outside chooses the layout again.
  void Reserve(size_t n) {
    if (bitmap_) return;
    const size_t slots = HashSlots(n);
    if (slots > table_.size()) Relay(false, slots, 0);
  }

  /// Drops every key and keeps the array, so refilling the set to its old
  /// size allocates nothing.
  void Clear() {
    std::fill(table_.begin(), table_.end(), bitmap_ ? 0 : kEmptySlot);
    size_ = 0;
    has_empty_slot_key_ = false;
  }

  size_t size() const { return size_; }

  /// True when the keys are laid out as a bitmap, false for the hash table.
  bool bitmap() const { return bitmap_; }

  /// Bytes held by the array, from its capacity.
  size_t bytes() const { return table_.capacity() * sizeof(uint64_t); }

  /// Slots of the hash table for `n` keys: a power of two, at least 16,
  /// at a load of at most 1/2.
  static size_t HashSlots(size_t n) {
    size_t slots = kMinCapacity;
    while (slots < 2 * n) slots *= 2;
    return slots;
  }

 private:
  static constexpr uint64_t kEmptySlot = ~uint64_t{0};
  static constexpr size_t kMinCapacity = 16;

  uint64_t WindowBits() const { return uint64_t{table_.size()} << 6; }
  size_t HashedKeys() const { return size_ - (has_empty_slot_key_ ? 1 : 0); }

  /// The slot holding `key`, or the empty slot where it would go.
  size_t Find(uint64_t key) const {
    const size_t mask = table_.size() - 1;
    size_t i = MixKeyBits(key) & mask;
    while (table_[i] != kEmptySlot && table_[i] != key) i = (i + 1) & mask;
    return i;
  }

  /// Calls fn(key) for every key held, in no particular order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    if (bitmap_) {
      for (size_t w = 0; w < table_.size(); ++w) {
        for (uint64_t bits = table_[w]; bits != 0; bits &= bits - 1) {
          fn(base_ + (uint64_t{w} << 6) +
             static_cast<uint64_t>(std::countr_zero(bits)));
        }
      }
      return;
    }
    for (uint64_t key : table_) {
      if (key != kEmptySlot) fn(key);
    }
    if (has_empty_slot_key_) fn(kEmptySlot);
  }

  /// Writes `key` into the current layout, which has room for it.
  void Place(uint64_t key) {
    if (bitmap_) {
      const uint64_t off = key - base_;
      table_[off >> 6] |= uint64_t{1} << (off & 63);
    } else if (key == kEmptySlot) {
      has_empty_slot_key_ = true;
    } else {
      table_[Find(key)] = key;
    }
  }

  /// Lays the keys held out again: a bitmap of `size` words whose bit 0
  /// is key `base` (a multiple of 64, the window covering every key), or a
  /// hash table of `size` slots.
  void Relay(bool bitmap, size_t size, uint64_t base) {
    FlatKeySet old = std::move(*this);  // leaves table_ empty
    bitmap_ = bitmap;
    base_ = base;
    has_empty_slot_key_ = false;
    table_.assign(size, bitmap ? 0 : kEmptySlot);
    old.ForEach([this](uint64_t key) { Place(key); });
  }

  /// Inserts `key`, which is not held and does not fit, choosing the
  /// layout again: the bitmap when its words for the keys' range are no
  /// more than the hash table's slots for their count.
  void Grow(uint64_t key) {
    const size_t slots = HashSlots(size_ + 1);
    bool bitmap = false;
    size_t size = slots;
    uint64_t base = 0;
    if (size_ > 0) {
      int64_t lo = static_cast<int64_t>(key);
      int64_t hi = lo;
      ForEach([&](uint64_t k) {
        lo = std::min(lo, static_cast<int64_t>(k));
        hi = std::max(hi, static_cast<int64_t>(k));
      });
      // The window starts at the 64-aligned word holding lo.
      const uint64_t first = static_cast<uint64_t>(lo) & ~uint64_t{63};
      const uint64_t needed = ((static_cast<uint64_t>(hi) - first) >> 6) + 1;
      if (needed <= slots) {
        // A bitmap doubles as it grows, but never past the hash table's
        // size; one that replaces a hash table covers just the range. The
        // spare words go on the side the new key extended.
        const uint64_t grown = bitmap_ ? 2 * table_.size() : 0;
        bitmap = true;
        size = std::max<uint64_t>(needed, std::min<uint64_t>(grown, slots));
        const bool downward = static_cast<int64_t>(key) == lo;
        base = downward ? first - 64 * (size - needed) : first;
      }
    }
    Relay(bitmap, size, base);
    Place(key);
    ++size_;
  }

  std::vector<uint64_t> table_;  // bitmap words, or slots: kEmptySlot or a key
  uint64_t base_ = 0;            // bitmap: the key of bit 0 of word 0
  size_t size_ = 0;              // keys held
  bool bitmap_ = false;
  bool has_empty_slot_key_ = false;  // hash layout: the all-ones key is held
};

}  // namespace precis

#endif  // PRECIS_COMMON_FLAT_KEY_SET_H_
