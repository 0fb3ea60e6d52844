// Columnar (SoA) attribute storage and value indexes (DESIGN.md §13).
//
// A Column stores one attribute of a relation as a contiguous vector of
// 64-bit payloads plus a null bitmap; a relation's columns are its only
// copy of its tuples. All three engine types fit one encoding: int64 and
// double are stored as their bit patterns, strings as their interned
// SymbolId. This gives scans, key extraction and result rendering
// contiguous per-attribute reads instead of pointer-chasing row vectors.
//
// A ColumnIndex maps canonical 64-bit key bits to ascending tid runs in one
// tid array that Build lays out in bulk (keys written after the build own
// their run), through a key table addressed by key offset when the keys
// are dense and an open-addressing table otherwise, whichever is smaller.
// Canonicalization preserves Value equality exactly:
//   * strings: equal bytes <=> equal SymbolId (global interner);
//   * doubles: -0.0 and +0.0 compare (and hash) equal, so -0.0 normalizes
//     to +0.0;
//   * NaN never compares equal to anything — including itself — so NaN
//     keys are unmatchable: never indexed, lookups return empty;
//   * NULL keys compare equal to each other (variant monostate ==), so
//     nulls get their own run;
//   * cross-type lookups (e.g. a string key against an int64 column) can
//     never match, exactly as variant equality across alternatives, and
//     return an empty run.

#ifndef PRECIS_STORAGE_COLUMNAR_H_
#define PRECIS_STORAGE_COLUMNAR_H_

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <vector>

#if defined(__AVX2__) || defined(__SSE4_2__) || defined(__SSE4_1__)
#include <immintrin.h>
#endif

#include "common/flat_key_set.h"
#include "common/result.h"
#include "common/status.h"
#include "storage/value.h"

namespace precis {

/// Tuple identifier: the row position of a tuple in its relation's columns.
/// Tids are stable — the engine is append-only (the précis workload never
/// deletes from the source database) — and 32-bit: every relation stops at
/// ColumnIndex::kMaxRows rows (Relation::Insert), so no tid wraps. Postings,
/// index runs and accepted lists store 4 bytes per tuple.
using Tid = uint32_t;

/// \brief One attribute of a relation, stored contiguously.
class Column {
 public:
  explicit Column(DataType type) : type_(type) {}

  DataType type() const { return type_; }
  size_t size() const { return bits_.size(); }

  /// Appends `v`, which must be NULL or match the column type (the
  /// relation validates before appending).
  void Append(const Value& v) {
    const size_t row = bits_.size();
    if ((row & 63) == 0) nulls_.push_back(0);
    if (v.is_null()) {
      nulls_.back() |= uint64_t{1} << (row & 63);
      bits_.push_back(0);
      return;
    }
    bits_.push_back(RawBits(v));
  }

  /// Room for `rows` rows in all, so appends up to that never reallocate.
  void Reserve(size_t rows) {
    bits_.reserve(rows);
    nulls_.reserve((rows + 63) / 64);
  }

  bool IsNull(size_t row) const {
    return (nulls_[row >> 6] >> (row & 63)) & 1;
  }

  /// Reconstructs the Value at `row` (bit-exact for doubles, including
  /// -0.0 and NaN payloads; symbol identity for strings).
  Value GetValue(size_t row) const {
    if (IsNull(row)) return Value();
    switch (type_) {
      case DataType::kInt64:
        return Value(static_cast<int64_t>(bits_[row]));
      case DataType::kDouble:
        return Value(std::bit_cast<double>(bits_[row]));
      case DataType::kString:
        return Value::FromSymbol(Symbol{static_cast<SymbolId>(bits_[row])});
    }
    return Value();
  }

  /// Raw stored payload (undefined for NULL rows).
  uint64_t raw_bits(size_t row) const { return bits_[row]; }

  /// Bytes held by the payloads and the null bitmap, from capacities.
  size_t bytes() const {
    return (bits_.capacity() + nulls_.capacity()) * sizeof(uint64_t);
  }

  /// Appends, in ascending order, every non-null row whose stored value
  /// canonically equals the key with canonical bits `key_bits` (as produced
  /// by KeyBits). Compile-time dispatch: AVX2 / SSE4.2 compare kernels when
  /// the build enables them, otherwise the scalar loop; every variant emits
  /// the exact tid sequence of ScanEqualsScalar (bench/kernels gates this
  /// cell-for-cell, DESIGN.md §16). A relation's column holds at most
  /// ColumnIndex::kMaxRows rows, so every row number fits a Tid.
  void ScanEquals(uint64_t key_bits, std::vector<Tid>* out) const;

  /// Scalar reference implementation of ScanEquals — always compiled, so
  /// the SIMD-vs-scalar equivalence gate has a fixed baseline.
  void ScanEqualsScalar(uint64_t key_bits, std::vector<Tid>* out) const {
    const uint64_t alt = AltKeyBits(key_bits);
    const size_t n = bits_.size();
    for (size_t row = 0; row < n; ++row) {
      if (IsNull(row)) continue;
      const uint64_t raw = bits_[row];
      if (raw == key_bits || raw == alt) out->push_back(static_cast<Tid>(row));
    }
  }

  /// Canonical equality-key bits of a non-null stored payload, or nullopt
  /// when the payload can never equal anything (double NaN).
  static std::optional<uint64_t> CanonicalBits(uint64_t raw, DataType type) {
    if (type != DataType::kDouble) return raw;
    const double d = std::bit_cast<double>(raw);
    if (std::isnan(d)) return std::nullopt;
    if (d == 0.0) return std::bit_cast<uint64_t>(0.0);  // -0.0 == +0.0
    return raw;
  }

  /// Canonical key bits of a lookup key against a column of this type:
  /// nullopt when the key can never match a non-null stored value (NULL
  /// key, cross-type key, NaN key).
  static std::optional<uint64_t> KeyBits(const Value& key, DataType type) {
    if (key.is_null() || !key.TypeMatches(type)) return std::nullopt;
    switch (type) {
      case DataType::kInt64:
        return std::bit_cast<uint64_t>(key.AsInt64());
      case DataType::kDouble:
        return CanonicalBits(std::bit_cast<uint64_t>(key.AsDouble()), type);
      case DataType::kString:
        return uint64_t{key.symbol().id};
    }
    return std::nullopt;
  }

 private:
  static uint64_t RawBits(const Value& v) {
    if (v.is_int64()) return std::bit_cast<uint64_t>(v.AsInt64());
    if (v.is_double()) return std::bit_cast<uint64_t>(v.AsDouble());
    return uint64_t{v.symbol().id};
  }

  /// Second accepted bit pattern for a canonical key: -0.0 when the key is
  /// double +0.0 (stored payloads keep their raw sign bit), otherwise the
  /// key itself. NaN rows can never bit-equal a canonical (non-NaN) key,
  /// so raw == key || raw == alt reproduces CanonicalBits equality without
  /// canonicalizing each row.
  uint64_t AltKeyBits(uint64_t key_bits) const {
    if (type_ == DataType::kDouble &&
        key_bits == std::bit_cast<uint64_t>(0.0)) {
      return std::bit_cast<uint64_t>(-0.0);
    }
    return key_bits;
  }

  DataType type_;
  std::vector<uint64_t> bits_;
  std::vector<uint64_t> nulls_;  // bitmap, one bit per row
};

// ScanEquals walks the payload array 64 rows (one null-bitmap word) at a
// time: an all-null word is skipped with a single compare, and within a
// word the per-lane equality masks are combined branchlessly with the
// inverted null bits before the match positions are extracted with ctz.
inline void Column::ScanEquals(uint64_t key_bits, std::vector<Tid>* out) const {
#if defined(__AVX2__) || defined(__SSE4_2__) || defined(__SSE4_1__)
  const uint64_t alt = AltKeyBits(key_bits);
  const size_t n = bits_.size();
#if defined(__AVX2__)
  constexpr size_t kLanes = 4;
  const __m256i vkey = _mm256_set1_epi64x(static_cast<long long>(key_bits));
  const __m256i valt = _mm256_set1_epi64x(static_cast<long long>(alt));
#else
  constexpr size_t kLanes = 2;
  const __m128i vkey = _mm_set1_epi64x(static_cast<long long>(key_bits));
  const __m128i valt = _mm_set1_epi64x(static_cast<long long>(alt));
#endif
  const unsigned lane_mask = (1u << kLanes) - 1;
  for (size_t word = 0; word < nulls_.size(); ++word) {
    const uint64_t null_word = nulls_[word];
    if (null_word == ~uint64_t{0}) continue;  // 64 null rows: nothing to emit
    const size_t base = word << 6;
    const size_t limit = std::min(n - base, size_t{64});
    size_t r = 0;
    for (; r + kLanes <= limit; r += kLanes) {
#if defined(__AVX2__)
      const __m256i v = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(bits_.data() + base + r));
      const __m256i eq = _mm256_or_si256(_mm256_cmpeq_epi64(v, vkey),
                                         _mm256_cmpeq_epi64(v, valt));
      unsigned mask = static_cast<unsigned>(
          _mm256_movemask_pd(_mm256_castsi256_pd(eq)));
#else
      const __m128i v = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(bits_.data() + base + r));
      const __m128i eq = _mm_or_si128(_mm_cmpeq_epi64(v, vkey),
                                      _mm_cmpeq_epi64(v, valt));
      unsigned mask = static_cast<unsigned>(
          _mm_movemask_pd(_mm_castsi128_pd(eq)));
#endif
      mask &= ~static_cast<unsigned>(null_word >> r) & lane_mask;
      while (mask != 0) {
        out->push_back(static_cast<Tid>(
            base + r + static_cast<unsigned>(__builtin_ctz(mask))));
        mask &= mask - 1;
      }
    }
    for (; r < limit; ++r) {
      if ((null_word >> r) & 1) continue;
      const uint64_t raw = bits_[base + r];
      if (raw == key_bits || raw == alt) {
        out->push_back(static_cast<Tid>(base + r));
      }
    }
  }
#else
  ScanEqualsScalar(key_bits, out);
#endif
}

/// \brief Equality index from canonical key bits to ascending tid runs over
/// one tid array. NULL keys get a dedicated run; NaN keys are dropped
/// (unmatchable under Value equality).
///
/// Build lays every run out in one `std::vector<Tid>`: a counting pass
/// sizes each key's run, then a fill pass writes the rows in ascending
/// order. A run is an 8-byte entry, a 32-bit start and length, found in
/// one of two key tables:
///   * direct: one entry per key value in a window from `base_`, addressed
///     by the key's offset and storing no key;
///   * hashed: flat open addressing (linear probing, power-of-two
///     capacity, load at most 0.7) of 16-byte slots, the key bits and its
///     entry.
/// Build takes the direct table when its entries for the keys' range
/// [lo, hi] (read as signed 64-bit numbers) take no more bytes than the
/// slot table for their count would; dense surrogate keys pick it, sparse
/// ones (strings, doubles, scattered ids) stay hashed. So an index costs
/// its key table plus 4 bytes (a Tid) per indexed row. The array is never
/// reallocated: an Insert moves only the touched key's run (or a new
/// key's) into a vector the index owns, and appends there. An Insert that
/// needs the table to grow — a key outside the direct window, or a slot
/// table past its load — chooses the layout again by the same rule.
class ColumnIndex {
 public:
  /// Most rows Build indexes, and most rows any relation holds
  /// (Relation::Insert): run starts, lengths and tids are 32-bit, and a
  /// length of 2^32 - 1 marks an owned run.
  static constexpr size_t kMaxRows = std::numeric_limits<uint32_t>::max() - 1;

  explicit ColumnIndex(DataType type) : type_(type) {}

  /// Indexes every row of `column` in bulk. Fails when the column has more
  /// than kMaxRows rows.
  static Result<ColumnIndex> Build(const Column& column);

  /// Appends `tid` to the run of `key`; tids must come in ascending order.
  /// The first write to a key moves its run into a vector of its own.
  /// Owned runs are numbered in 32 bits, so at most kMaxRows keys may own
  /// one (Relation::Insert keeps every relation within kMaxRows rows).
  void Insert(const Value& key, Tid tid) {
    if (key.is_null()) {
      null_tids_.push_back(tid);
      return;
    }
    auto bits = Column::KeyBits(key, type_);
    if (!bits) return;  // NaN: unreachable by equality lookup
    Entry& entry = Claim(*bits);
    if (entry.length != kOwned) {
      // A new key, or a built run written for the first time.
      const std::span<const Tid> run = Run(entry);
      owned_.emplace_back(run.begin(), run.end());
      entry.start = static_cast<uint32_t>(owned_.size() - 1);
      entry.length = kOwned;
    }
    owned_[entry.start].push_back(tid);
  }

  /// Tids whose indexed attribute equals `key`, ascending (empty if none).
  /// The span is valid until the next Insert.
  std::span<const Tid> Lookup(const Value& key) const {
    if (key.is_null()) return null_tids_;
    auto bits = Column::KeyBits(key, type_);
    if (!bits) return {};
    const Entry* entry = Locate(*bits);
    return entry == nullptr ? std::span<const Tid>() : Run(*entry);
  }

  size_t num_keys() const { return used_ + (null_tids_.empty() ? 0 : 1); }

  /// True when runs are addressed by key offset, false for the slot table.
  bool direct() const { return direct_; }

  /// Bytes held, from capacities: the key table (direct entries or
  /// hash slots), the built tid array with the NULL run, and the runs of
  /// keys written after the build with their vector headers.
  size_t entry_bytes() const {
    return entries_.capacity() * sizeof(Entry) +
           slots_.capacity() * sizeof(Slot);
  }
  size_t tid_bytes() const {
    return (tids_.capacity() + null_tids_.capacity()) * sizeof(Tid);
  }
  size_t owned_bytes() const {
    size_t bytes = owned_.capacity() * sizeof(std::vector<Tid>);
    for (const std::vector<Tid>& run : owned_) {
      bytes += run.capacity() * sizeof(Tid);
    }
    return bytes;
  }

  /// Slots of the hash table for `keys` keys: a power of two, at least 16,
  /// at a load of at most 0.7.
  static size_t SlotCapacity(size_t keys) {
    size_t capacity = kMinSlots;
    while (keys * 10 > capacity * 7) capacity *= 2;
    return capacity;
  }

  /// Pure memory hint: prefetches the entry or first probe slot
  /// Lookup(key) will touch. No side effects and no access accounting, so
  /// it is safe to issue speculatively ahead of a budgeted probe loop
  /// without changing any observable behavior (truncation points, faults,
  /// stats).
  void Prefetch(const Value& key) const {
    if (key.is_null()) return;
    auto bits = Column::KeyBits(key, type_);
    if (!bits) return;
    if (direct_) {
      const uint64_t off = *bits - base_;
      if (off < entries_.size()) __builtin_prefetch(&entries_[off]);
    } else if (!slots_.empty()) {
      __builtin_prefetch(&slots_[MixKeyBits(*bits) & (slots_.size() - 1)]);
    }
  }

  /// Batched probe: fills out[i] with Lookup(keys[i]), running a
  /// software-prefetch pipeline kPrefetchDistance keys ahead of the probe
  /// cursor so entry cache lines are in flight before they are needed.
  /// Result-equivalent to n sequential Lookup calls (bench/kernels gates
  /// the equivalence on both layouts, DESIGN.md §16).
  void LookupBatch(const Value* keys, size_t n,
                   std::span<const Tid>* out) const {
    const size_t warm = std::min(n, kPrefetchDistance);
    for (size_t i = 0; i < warm; ++i) Prefetch(keys[i]);
    for (size_t i = 0; i < n; ++i) {
      if (i + kPrefetchDistance < n) Prefetch(keys[i + kPrefetchDistance]);
      out[i] = Lookup(keys[i]);
    }
  }

  static constexpr size_t kPrefetchDistance = 8;

 private:
  static constexpr uint32_t kOwned = std::numeric_limits<uint32_t>::max();
  static constexpr size_t kMinSlots = 16;

  struct Entry {
    uint32_t start = 0;   // into tids_, or into owned_ when length == kOwned
    uint32_t length = 0;  // run length; 0 = no such key
  };
  struct Slot {
    uint64_t key = 0;
    Entry entry;
  };

  std::span<const Tid> Run(const Entry& entry) const {
    if (entry.length == kOwned) return owned_[entry.start];
    return {tids_.data() + entry.start, entry.length};
  }

  /// The slot holding `bits`, or the empty slot where it would go.
  size_t Find(uint64_t bits) const {
    const size_t mask = slots_.size() - 1;
    size_t i = MixKeyBits(bits) & mask;
    while (slots_[i].entry.length != 0 && slots_[i].key != bits) {
      i = (i + 1) & mask;
    }
    return i;
  }

  /// The entry of `bits` (an empty one when the key is absent), or null
  /// when the table has no place for it.
  const Entry* Locate(uint64_t bits) const {
    if (direct_) {
      const uint64_t off = bits - base_;
      return off < entries_.size() ? &entries_[off] : nullptr;
    }
    return slots_.empty() ? nullptr : &slots_[Find(bits)].entry;
  }

  /// Calls fn(key bits, entry) for every key held.
  template <typename Fn>
  void ForEachKey(Fn&& fn) const {
    for (size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].length != 0) fn(base_ + i, entries_[i]);
    }
    for (const Slot& slot : slots_) {
      if (slot.entry.length != 0) fn(slot.key, slot.entry);
    }
  }

  /// The entry of `bits`, taken for the key if it is new (its length is
  /// then still 0: the caller makes it nonzero). A key the table has no
  /// room for re-lays it first.
  Entry& Claim(uint64_t bits) {
    if (direct_) {
      const uint64_t off = bits - base_;
      if (off < entries_.size()) {
        Entry& entry = entries_[off];
        if (entry.length == 0) ++used_;
        return entry;
      }
    } else if (!slots_.empty()) {
      Slot& slot = slots_[Find(bits)];
      if (slot.entry.length != 0) return slot.entry;
      if ((used_ + 1) * 10 <= slots_.size() * 7) {
        slot.key = bits;
        ++used_;
        return slot.entry;
      }
    }
    Grow(bits);
    return Claim(bits);
  }

  /// Makes room for the new key `bits`, choosing the layout again: direct
  /// when its entries for the keys' range are no more bytes than the slot
  /// table for their count. An empty index starts hashed.
  void Grow(uint64_t bits) {
    const size_t capacity = SlotCapacity(used_ + 1);
    bool direct = false;
    size_t size = capacity;
    uint64_t base = 0;
    if (used_ > 0) {
      int64_t lo = static_cast<int64_t>(bits);
      int64_t hi = lo;
      ForEachKey([&](uint64_t key, const Entry&) {
        lo = std::min(lo, static_cast<int64_t>(key));
        hi = std::max(hi, static_cast<int64_t>(key));
      });
      const uint64_t span =
          static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
      if (span < 2 * capacity) {  // span + 1 entries, 8 bytes to a slot's 16
        // Direct windows double as they grow, never past the slot table's
        // bytes; the spare entries go on the side the new key extended.
        const uint64_t grown = direct_ ? 2 * entries_.size() : 0;
        direct = true;
        size = std::max<uint64_t>(span + 1,
                                  std::min<uint64_t>(grown, 2 * capacity));
        const bool downward = static_cast<int64_t>(bits) == lo;
        base = downward ? static_cast<uint64_t>(hi) - (size - 1)
                        : static_cast<uint64_t>(lo);
      }
    }
    Relay(direct, size, base);
  }

  /// Lays the entries out again: direct over `size` key values from
  /// `base` (a window covering every key), or hashed in `size` slots.
  void Relay(bool direct, size_t size, uint64_t base) {
    ColumnIndex old(type_);
    old.direct_ = direct_;
    old.base_ = base_;
    old.entries_.swap(entries_);
    old.slots_.swap(slots_);
    direct_ = direct;
    base_ = base;
    if (direct) {
      entries_.assign(size, Entry{});
    } else {
      slots_.assign(size, Slot{});
    }
    old.ForEachKey([this](uint64_t key, const Entry& entry) {
      if (direct_) {
        entries_[key - base_] = entry;
      } else {
        Slot& slot = slots_[Find(key)];
        slot.key = key;
        slot.entry = entry;
      }
    });
  }

  DataType type_;
  bool direct_ = false;
  uint64_t base_ = 0;                     // direct: the key of entries_[0]
  std::vector<Entry> entries_;            // direct key table
  std::vector<Slot> slots_;               // hashed key table
  std::vector<Tid> tids_;                 // every built run, back to back
  std::vector<std::vector<Tid>> owned_;   // runs of keys written after Build
  std::vector<Tid> null_tids_;
  size_t used_ = 0;                       // distinct non-null keys
};

// Every row a relation may hold has a tid, and the largest Tid stays free.
static_assert(ColumnIndex::kMaxRows < std::numeric_limits<Tid>::max());

inline Result<ColumnIndex> ColumnIndex::Build(const Column& column) {
  const size_t rows = column.size();
  if (rows > kMaxRows) {
    return Status::OutOfRange("cannot index " + std::to_string(rows) +
                              " rows: an index holds at most " +
                              std::to_string(kMaxRows));
  }
  const DataType type = column.type();
  ColumnIndex index(type);
  // Range pass: the keys' bounds and the rows that carry one.
  size_t nulls = 0;
  size_t keyed = 0;
  int64_t lo = std::numeric_limits<int64_t>::max();
  int64_t hi = std::numeric_limits<int64_t>::min();
  for (size_t row = 0; row < rows; ++row) {
    if (column.IsNull(row)) {
      ++nulls;
      continue;
    }
    auto bits = Column::CanonicalBits(column.raw_bits(row), type);
    if (!bits) continue;
    ++keyed;
    lo = std::min(lo, static_cast<int64_t>(*bits));
    hi = std::max(hi, static_cast<int64_t>(*bits));
  }
  // Count into direct entries when they could be the smaller table: no
  // larger than the slots for a distinct key per keyed row.
  const uint64_t span = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
  if (keyed > 0 && span < 2 * SlotCapacity(keyed)) {
    index.Relay(true, span + 1, static_cast<uint64_t>(lo));
  }
  // Counting pass: each key's length is its row count so far.
  for (size_t row = 0; row < rows; ++row) {
    if (column.IsNull(row)) continue;
    auto bits = Column::CanonicalBits(column.raw_bits(row), type);
    if (bits) ++index.Claim(*bits).length;
  }
  // Repeated keys can leave the direct entries larger than the slot table
  // for the distinct keys: then the counts move into one.
  if (index.direct_ && span >= 2 * SlotCapacity(index.used_)) {
    index.Relay(false, SlotCapacity(index.used_), 0);
  }
  // Each run starts where the previous one ends. The fill pass advances a
  // run's start past each row it writes; the lengths stay, so Find still
  // tells used slots from empty ones.
  uint32_t next = 0;
  auto assign_start = [&next](Entry& entry) {
    entry.start = next;
    next += entry.length;
  };
  for (Entry& entry : index.entries_) assign_start(entry);
  for (Slot& slot : index.slots_) assign_start(slot.entry);
  index.tids_.resize(next);
  index.null_tids_.reserve(nulls);
  // Fill pass in row order, so every run comes out ascending. Rows are at
  // most kMaxRows, checked above, so each is a Tid.
  for (Tid row = 0; row < rows; ++row) {
    if (column.IsNull(row)) {
      index.null_tids_.push_back(row);
      continue;
    }
    auto bits = Column::CanonicalBits(column.raw_bits(row), type);
    if (bits) index.tids_[index.Claim(*bits).start++] = row;
  }
  for (Entry& entry : index.entries_) entry.start -= entry.length;
  for (Slot& slot : index.slots_) slot.entry.start -= slot.entry.length;
  return index;
}

}  // namespace precis

#endif  // PRECIS_STORAGE_COLUMNAR_H_
