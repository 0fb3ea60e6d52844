// Columnar (SoA) attribute storage and open-addressing value indexes
// (DESIGN.md §13).
//
// A Column stores one attribute of a relation as a contiguous vector of
// 64-bit payloads plus a null bitmap; a relation's columns are its only
// copy of its tuples. All three engine types fit one encoding: int64 and
// double are stored as their bit patterns, strings as their interned
// SymbolId. This gives the dbgen fetch+project kernels contiguous
// per-attribute reads (256-tid chunks walk one cache-friendly array per
// emitted attribute) instead of pointer-chasing row vectors.
//
// A ColumnIndex maps canonical 64-bit key bits to ascending tid runs: a
// flat open-addressing table whose slots point into one tid array that
// Build lays out in bulk (keys written after the build own their run).
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
#include <new>
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

using Tid = uint64_t;  // mirrors relation.h (kept in sync by static_assert there)

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

  /// Writes GetValue(rows[i]) to out[i * stride] for i in [0, n): the
  /// fetch+project kernel's inner loop, with the type switch taken once
  /// per call instead of once per cell. `out` may be raw memory — cells
  /// are placement-new'd (Value is trivially destructible).
  void Gather(const Tid* rows, size_t n, Value* out, size_t stride) const {
    switch (type_) {
      case DataType::kInt64:
        GatherAs(rows, n, out, stride, [](uint64_t bits) {
          return Value(static_cast<int64_t>(bits));
        });
        return;
      case DataType::kDouble:
        GatherAs(rows, n, out, stride, [](uint64_t bits) {
          return Value(std::bit_cast<double>(bits));
        });
        return;
      case DataType::kString:
        GatherAs(rows, n, out, stride, [](uint64_t bits) {
          return Value::FromSymbol(Symbol{static_cast<SymbolId>(bits)});
        });
        return;
    }
  }

  /// Raw stored payload (undefined for NULL rows).
  uint64_t raw_bits(size_t row) const { return bits_[row]; }

  /// Appends, in ascending order, every non-null row whose stored value
  /// canonically equals the key with canonical bits `key_bits` (as produced
  /// by KeyBits). Compile-time dispatch: AVX2 / SSE4.2 compare kernels when
  /// the build enables them, otherwise the scalar loop; every variant emits
  /// the exact tid sequence of ScanEqualsScalar (bench/kernels gates this
  /// cell-for-cell, DESIGN.md §16).
  void ScanEquals(uint64_t key_bits, std::vector<Tid>* out) const;

  /// Scalar reference implementation of ScanEquals — always compiled, so
  /// the SIMD-vs-scalar equivalence gate has a fixed baseline.
  void ScanEqualsScalar(uint64_t key_bits, std::vector<Tid>* out) const {
    const uint64_t alt = AltKeyBits(key_bits);
    const size_t n = bits_.size();
    for (size_t row = 0; row < n; ++row) {
      if (IsNull(row)) continue;
      const uint64_t raw = bits_[row];
      if (raw == key_bits || raw == alt) out->push_back(row);
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
  template <typename Make>
  void GatherAs(const Tid* rows, size_t n, Value* out, size_t stride,
                Make make) const {
    for (size_t i = 0; i < n; ++i, out += stride) {
      const size_t row = rows[i];
      new (out) Value(IsNull(row) ? Value() : make(bits_[row]));
    }
  }

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
        out->push_back(base + r +
                       static_cast<unsigned>(__builtin_ctz(mask)));
        mask &= mask - 1;
      }
    }
    for (; r < limit; ++r) {
      if ((null_word >> r) & 1) continue;
      const uint64_t raw = bits_[base + r];
      if (raw == key_bits || raw == alt) out->push_back(base + r);
    }
  }
#else
  ScanEqualsScalar(key_bits, out);
#endif
}

/// \brief Equality index from canonical key bits to ascending tid runs, as a
/// flat open-addressing table (linear probing, power-of-two capacity,
/// ~0.7 load factor) over one tid array. NULL keys get a dedicated run; NaN
/// keys are dropped (unmatchable under Value equality).
///
/// Build lays every run out in one `std::vector<Tid>`: a counting pass
/// sizes each key's run, then a fill pass writes the rows in ascending
/// order. A slot holds the key bits plus its run's 32-bit start and length,
/// so an index costs its slot table plus 8 bytes per indexed row. The array
/// is never reallocated: an Insert moves only the touched key's run (or a
/// new key's) into a vector the index owns, and appends there.
class ColumnIndex {
 public:
  /// Most rows Build indexes: run starts and lengths are 32-bit, and a
  /// length of 2^32 - 1 marks an owned run.
  static constexpr size_t kMaxRows = std::numeric_limits<uint32_t>::max() - 1;

  explicit ColumnIndex(DataType type) : type_(type) {}

  /// Indexes every row of `column` in bulk. Fails when the column has more
  /// than kMaxRows rows.
  static Result<ColumnIndex> Build(const Column& column);

  /// Appends `tid` to the run of `key`; tids must come in ascending order.
  /// The first write to a key moves its run into a vector of its own.
  /// Owned runs are numbered in 32 bits, so at most kMaxRows keys may own
  /// one (Relation::Insert keeps an indexed relation within kMaxRows rows).
  void Insert(const Value& key, Tid tid) {
    if (key.is_null()) {
      null_tids_.push_back(tid);
      return;
    }
    auto bits = Column::KeyBits(key, type_);
    if (!bits) return;  // NaN: unreachable by equality lookup
    Slot& slot = Claim(*bits);
    if (slot.length != kOwned) {
      // A new key, or a built run written for the first time.
      const std::span<const Tid> run = Run(slot);
      owned_.emplace_back(run.begin(), run.end());
      slot.start = static_cast<uint32_t>(owned_.size() - 1);
      slot.length = kOwned;
    }
    owned_[slot.start].push_back(tid);
  }

  /// Tids whose indexed attribute equals `key`, ascending (empty if none).
  /// The span is valid until the next Insert.
  std::span<const Tid> Lookup(const Value& key) const {
    if (key.is_null()) return null_tids_;
    auto bits = Column::KeyBits(key, type_);
    if (!bits || slots_.empty()) return {};
    return Run(slots_[Find(*bits)]);
  }

  size_t num_keys() const { return used_ + (null_tids_.empty() ? 0 : 1); }

  /// Pure memory hint: prefetches the first probe slot Lookup(key) will
  /// touch. No side effects and no access accounting, so it is safe to
  /// issue speculatively ahead of a budgeted probe loop without changing
  /// any observable behavior (truncation points, faults, stats).
  void Prefetch(const Value& key) const {
    if (slots_.empty() || key.is_null()) return;
    auto bits = Column::KeyBits(key, type_);
    if (!bits) return;
    __builtin_prefetch(&slots_[MixKeyBits(*bits) & (slots_.size() - 1)]);
  }

  /// Batched probe: fills out[i] with Lookup(keys[i]), running a
  /// software-prefetch pipeline kPrefetchDistance keys ahead of the probe
  /// cursor so slot cache lines are in flight before they are needed.
  /// Result-equivalent to n sequential Lookup calls (bench/kernels gates
  /// the equivalence, DESIGN.md §16).
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

  struct Slot {
    uint64_t key = 0;
    uint32_t start = 0;   // into tids_, or into owned_ when length == kOwned
    uint32_t length = 0;  // run length; 0 = empty slot
  };

  std::span<const Tid> Run(const Slot& slot) const {
    if (slot.length == kOwned) return owned_[slot.start];
    return {tids_.data() + slot.start, slot.length};
  }

  /// The slot holding `bits`, or the empty slot where it would go.
  size_t Find(uint64_t bits) const {
    const size_t mask = slots_.size() - 1;
    size_t i = MixKeyBits(bits) & mask;
    while (slots_[i].length != 0 && slots_[i].key != bits) {
      i = (i + 1) & mask;
    }
    return i;
  }

  /// The slot of `bits`, taken for the key if it is new (its length is
  /// then still 0: the caller makes it nonzero).
  Slot& Claim(uint64_t bits) {
    if ((used_ + 1) * 10 > slots_.size() * 7) Grow();
    Slot& slot = slots_[Find(bits)];
    if (slot.length == 0) {
      slot.key = bits;
      ++used_;
    }
    return slot;
  }

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? 16 : old.size() * 2, Slot{});
    for (const Slot& s : old) {
      if (s.length != 0) slots_[Find(s.key)] = s;
    }
  }

  DataType type_;
  std::vector<Slot> slots_;
  std::vector<Tid> tids_;                 // every built run, back to back
  std::vector<std::vector<Tid>> owned_;   // runs of keys written after Build
  std::vector<Tid> null_tids_;
  size_t used_ = 0;
};

inline Result<ColumnIndex> ColumnIndex::Build(const Column& column) {
  const size_t rows = column.size();
  if (rows > kMaxRows) {
    return Status::OutOfRange("cannot index " + std::to_string(rows) +
                              " rows: an index holds at most " +
                              std::to_string(kMaxRows));
  }
  const DataType type = column.type();
  ColumnIndex index(type);
  // Counting pass: each key's length is its row count so far.
  size_t nulls = 0;
  for (size_t row = 0; row < rows; ++row) {
    if (column.IsNull(row)) {
      ++nulls;
      continue;
    }
    auto bits = Column::CanonicalBits(column.raw_bits(row), type);
    if (bits) ++index.Claim(*bits).length;
  }
  // Each run starts where the previous one ends. The fill pass advances a
  // run's start past each row it writes; the lengths stay, so Find still
  // tells used slots from empty ones.
  uint32_t next = 0;
  for (Slot& slot : index.slots_) {
    slot.start = next;
    next += slot.length;
  }
  index.tids_.resize(next);
  index.null_tids_.reserve(nulls);
  // Fill pass in row order, so every run comes out ascending.
  for (size_t row = 0; row < rows; ++row) {
    if (column.IsNull(row)) {
      index.null_tids_.push_back(row);
      continue;
    }
    auto bits = Column::CanonicalBits(column.raw_bits(row), type);
    if (bits) index.tids_[index.slots_[index.Find(*bits)].start++] = row;
  }
  for (Slot& slot : index.slots_) slot.start -= slot.length;
  return index;
}

}  // namespace precis

#endif  // PRECIS_STORAGE_COLUMNAR_H_
