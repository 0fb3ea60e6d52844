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
// A ColumnIndex replaces the old unordered_map<Value, vector<Tid>> hash
// index with a flat open-addressing table keyed on canonical 64-bit key
// bits. Canonicalization preserves the old Value-equality semantics
// exactly:
//   * strings: equal bytes <=> equal SymbolId (global interner);
//   * doubles: -0.0 and +0.0 compared (and hashed) equal before, so -0.0
//     normalizes to +0.0;
//   * NaN never compared equal to anything — including itself — so NaN
//     keys are unmatchable: never indexed, lookups return empty;
//   * NULL keys compared equal to each other (variant monostate ==), so
//     nulls live in a dedicated bucket;
//   * cross-type lookups (e.g. a string key against an int64 column) can
//     never match, exactly as variant equality across alternatives.

#ifndef PRECIS_STORAGE_COLUMNAR_H_
#define PRECIS_STORAGE_COLUMNAR_H_

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <new>
#include <optional>
#include <vector>

#if defined(__AVX2__) || defined(__SSE4_2__) || defined(__SSE4_1__)
#include <immintrin.h>
#endif

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

/// \brief Equality index from canonical key bits to posting lists of tids,
/// as a flat open-addressing table (linear probing, power-of-two capacity,
/// ~0.7 load factor). NULL keys get a dedicated bucket; NaN keys are
/// dropped (unmatchable under Value equality).
class ColumnIndex {
 public:
  explicit ColumnIndex(DataType type) : type_(type) {}

  void Insert(const Value& key, Tid tid) {
    if (key.is_null()) {
      null_tids_.push_back(tid);
      return;
    }
    auto bits = Column::KeyBits(key, type_);
    if (!bits) return;  // NaN: unreachable by equality lookup
    if ((used_ + 1) * 10 > slots_.size() * 7) Grow();
    Slot& slot = Probe(*bits);
    if (slot.posting == 0) {
      postings_.emplace_back();
      slot.key = *bits;
      slot.posting = static_cast<uint32_t>(postings_.size());
      ++used_;
    }
    postings_[slot.posting - 1].push_back(tid);
  }

  /// Tids whose indexed attribute equals `key` (empty if none). The
  /// reference is valid until the next Insert.
  const std::vector<Tid>& Lookup(const Value& key) const {
    if (key.is_null()) return null_tids_;
    auto bits = Column::KeyBits(key, type_);
    if (!bits || slots_.empty()) return kEmpty;
    const Slot& slot = const_cast<ColumnIndex*>(this)->Probe(*bits);
    return slot.posting == 0 ? kEmpty : postings_[slot.posting - 1];
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
    __builtin_prefetch(&slots_[Mix(*bits) & (slots_.size() - 1)]);
  }

  /// Batched probe: fills out[i] with &Lookup(keys[i]), running a
  /// software-prefetch pipeline kPrefetchDistance keys ahead of the probe
  /// cursor so slot cache lines are in flight before they are needed.
  /// Result-equivalent to n sequential Lookup calls (bench/kernels gates
  /// the equivalence, DESIGN.md §16).
  void LookupBatch(const Value* keys, size_t n,
                   const std::vector<Tid>** out) const {
    const size_t warm = std::min(n, kPrefetchDistance);
    for (size_t i = 0; i < warm; ++i) Prefetch(keys[i]);
    for (size_t i = 0; i < n; ++i) {
      if (i + kPrefetchDistance < n) Prefetch(keys[i + kPrefetchDistance]);
      out[i] = &Lookup(keys[i]);
    }
  }

  static constexpr size_t kPrefetchDistance = 8;

 private:
  struct Slot {
    uint64_t key = 0;
    uint32_t posting = 0;  // 1-based index into postings_; 0 = empty
  };

  // splitmix64 finalizer: full-avalanche mix of the canonical key bits.
  static uint64_t Mix(uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  Slot& Probe(uint64_t bits) {
    const size_t mask = slots_.size() - 1;
    size_t i = Mix(bits) & mask;
    while (slots_[i].posting != 0 && slots_[i].key != bits) {
      i = (i + 1) & mask;
    }
    return slots_[i];
  }

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? 16 : old.size() * 2, Slot{});
    for (const Slot& s : old) {
      if (s.posting == 0) continue;
      Slot& dst = Probe(s.key);
      dst = s;
    }
  }

  DataType type_;
  std::vector<Slot> slots_;
  std::vector<std::vector<Tid>> postings_;
  std::vector<Tid> null_tids_;
  size_t used_ = 0;
  static const std::vector<Tid> kEmpty;
};

}  // namespace precis

#endif  // PRECIS_STORAGE_COLUMNAR_H_
