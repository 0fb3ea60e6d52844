// SymbolTable: a process-wide string interner (DESIGN.md §13).
//
// Every string the engine stores or compares — attribute values, index
// keys, tokenizer words, inverted-index postings — is interned once into
// this table and referred to by a stable 32-bit SymbolId afterwards.
// That buys the hot paths three things:
//
//   * equality of interned strings is id equality (one integer compare
//     instead of a byte scan) — the property the open-addressing value
//     indexes and the inverted index are keyed on;
//   * the std::hash of the bytes is computed exactly once, at intern
//     time, and memoized per symbol, so Value::Hash() on a string is a
//     table load (and produces byte-identical hash values to the old
//     per-call std::hash<std::string>, keeping every unordered-container
//     behaviour unchanged);
//   * copying a string value is copying 4 bytes — tuple projection and
//     chunk materialization stop calling malloc per string cell.
//
// Each shard holds three structures: the bytes, appended into 32 KiB
// slabs that never move; one 16-byte entry per symbol (arena offset,
// length, memoized hash) in blocks published with a release store; and
// an open-addressing table of 4-byte ids that finds a string's symbol.
// Readers resolve ids wait-free (str()/hash() take no lock).
// Ids are dense per shard and encode their shard in the low bits. The
// table is append-only for the process lifetime — the précis engine
// never deletes strings, and an interner that frees would invalidate
// ids held by live Values.
//
// Thread-safety: Intern and Find are sharded-locked (16 shards); str()
// and hash() are lock-free. An id obtained from any synchronized
// channel may be resolved from any thread.

#ifndef PRECIS_COMMON_SYMBOL_TABLE_H_
#define PRECIS_COMMON_SYMBOL_TABLE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>

namespace precis {

/// Stable identifier of an interned string. Equal ids <=> equal bytes.
using SymbolId = uint32_t;

/// \brief Footprint counters, exported through PrecisService::metrics()
/// and the shell `stats` command.
struct SymbolTableStats {
  uint64_t symbols = 0;         // distinct interned strings
  uint64_t bytes = 0;           // sum of interned string lengths
  uint64_t blocks = 0;          // entry blocks and byte slabs allocated
  uint64_t interns = 0;         // Intern() calls (hits + misses)
  uint64_t reserved_bytes = 0;  // capacity held: slabs, entry blocks, id
                                // tables and the fixed per-shard arrays
};

class SymbolTable {
 public:
  /// Shards; the k-th new symbol of shard s (s = hash & 15) gets id
  /// k * kNumShards + s.
  static constexpr uint32_t kNumShards = 16;
  /// Bytes per arena slab. A longer string gets contiguous bytes of its
  /// own.
  static constexpr uint32_t kSlabBytes = 32 << 10;

  /// The process-wide table every Value and index uses. Leaked
  /// singleton (like TaskPool::Shared()) so ids outlive static
  /// destruction order.
  static SymbolTable* Global();

  SymbolTable();
  ~SymbolTable();
  SymbolTable(const SymbolTable&) = delete;
  SymbolTable& operator=(const SymbolTable&) = delete;

  /// Returns the id of `s`, interning it first if unseen.
  SymbolId Intern(std::string_view s);

  /// The id of `s` if it has been interned; never inserts.
  std::optional<SymbolId> Find(std::string_view s) const;

  /// The interned bytes of `id`. The view stays valid, at the same
  /// address, for the table's lifetime. Wait-free.
  std::string_view str(SymbolId id) const;

  /// Memoized std::hash<std::string> of the interned bytes. Wait-free.
  size_t hash(SymbolId id) const;

  SymbolTableStats stats() const;

 private:
  struct Shard;

  std::unique_ptr<Shard[]> shards_;
};

}  // namespace precis

#endif  // PRECIS_COMMON_SYMBOL_TABLE_H_
