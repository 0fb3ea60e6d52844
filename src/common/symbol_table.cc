#include "common/symbol_table.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <mutex>

namespace precis {

namespace {

constexpr uint32_t kShardBits = 4;
static_assert(SymbolTable::kNumShards == 1u << kShardBits);
constexpr uint32_t kBlockBits = 12;  // 4096 entries (64 KiB) per block
constexpr uint32_t kBlockSize = 1u << kBlockBits;
constexpr uint32_t kMaxBlocks = 1u << 12;  // 16M symbols per shard
constexpr uint32_t kSlabBits = 15;
static_assert(SymbolTable::kSlabBytes == 1u << kSlabBits);
constexpr uint32_t kMaxSlabs = 1u << 12;  // a 128 MiB arena per shard
constexpr uint32_t kMinIdCapacity = 16;
constexpr uint32_t kNoSymbol = ~0u;  // a free id-table slot

// One symbol: where its bytes are, how many, and their std::hash.
struct Entry {
  uint32_t offset;  // slab number << kSlabBits | byte within the slab
  uint32_t length;
  size_t hash;
};
static_assert(sizeof(Entry) == 16);

[[noreturn]] void ShardFull(const char* what) {
  // Every id and byte of a full shard is live, so nothing can be reused.
  std::fprintf(stderr, "SymbolTable: shard full (%s)\n", what);
  std::abort();
}

}  // namespace

// One shard: a mutex-guarded id table over lock-free entry and byte
// storage.
//
// Ids are laid out as (local_index * kNumShards) + shard, so an id both
// names its shard (modulo) and its entry within it (division) without a
// lookup. Entry blocks and slabs are published into atomic pointer
// slots with release ordering and never move; a reader that holds a
// valid id is guaranteed (by whatever synchronization handed it the id,
// plus the acquire loads here) to see the entry and bytes written
// before the id was returned.
struct SymbolTable::Shard {
  std::mutex mu;
  // Guarded by mu: the id table, open addressing with linear probing
  // from the memoized hash, at load <= 1/2.
  std::unique_ptr<uint32_t[]> ids;
  uint32_t id_capacity = 0;  // a power of two once the first id is in
  uint32_t size = 0;         // symbols interned
  uint64_t bytes = 0;        // their byte total
  // Guarded by mu: the byte arena. Small strings fill the current slab;
  // a string longer than a slab gets contiguous bytes of its own, and
  // takes as many slab numbers as those bytes span so that an offset
  // stays a position in the shard's arena.
  uint32_t slab_count = 0;          // slab numbers taken
  uint32_t current_slab = 0;        // where small strings go
  uint32_t slab_used = kSlabBytes;  // its bytes taken: full until a slab exists
  uint64_t slab_bytes = 0;          // bytes allocated to slabs
  std::atomic<uint64_t> interns{0};
  std::atomic<Entry*> blocks[kMaxBlocks] = {};
  std::atomic<char*> slabs[kMaxSlabs] = {};

  ~Shard() {
    for (auto& b : blocks) delete[] b.load(std::memory_order_relaxed);
    for (auto& s : slabs) delete[] s.load(std::memory_order_relaxed);
  }

  const Entry& At(uint32_t local) const {
    return blocks[local >> kBlockBits].load(
        std::memory_order_acquire)[local & (kBlockSize - 1)];
  }

  std::string_view View(const Entry& e) const {
    return {slabs[e.offset >> kSlabBits].load(std::memory_order_acquire) +
                (e.offset & (kSlabBytes - 1)),
            e.length};
  }

  /// The local id of `s` (hash `h`), or kNoSymbol. Requires mu.
  uint32_t Lookup(std::string_view s, size_t h) const {
    if (size == 0) return kNoSymbol;
    const uint32_t mask = id_capacity - 1;
    for (uint32_t i = static_cast<uint32_t>(h >> kShardBits) & mask;;
         i = (i + 1) & mask) {
      const uint32_t local = ids[i];
      if (local == kNoSymbol) return kNoSymbol;
      const Entry& e = At(local);
      if (e.hash == h && View(e) == s) return local;
    }
  }

  /// The free id-table slot a symbol of hash `h` goes to. Requires mu.
  uint32_t* FreeSlot(size_t h) {
    const uint32_t mask = id_capacity - 1;
    uint32_t i = static_cast<uint32_t>(h >> kShardBits) & mask;
    while (ids[i] != kNoSymbol) i = (i + 1) & mask;
    return &ids[i];
  }

  /// Doubles the id table and reinserts every symbol from its memoized
  /// hash. Requires mu.
  void GrowIds() {
    id_capacity = id_capacity == 0 ? kMinIdCapacity : 2 * id_capacity;
    ids.reset(new uint32_t[id_capacity]);
    std::fill_n(ids.get(), id_capacity, kNoSymbol);
    for (uint32_t local = 0; local < size; ++local) {
      *FreeSlot(At(local).hash) = local;
    }
  }

  /// Allocates `n` bytes at the next `span` slab numbers. Requires mu.
  uint32_t TakeSlabs(size_t span, size_t n) {
    if (span > kMaxSlabs - slab_count) ShardFull("byte arena");
    const uint32_t slab = slab_count;
    slabs[slab].store(new char[n], std::memory_order_release);
    slab_count += static_cast<uint32_t>(span);
    slab_bytes += n;
    return slab;
  }

  /// Copies `s` into the arena and returns its offset. Requires mu.
  uint32_t Append(std::string_view s) {
    uint32_t slab = 0;
    uint32_t within = 0;
    if (s.size() > kSlabBytes) {
      slab = TakeSlabs((s.size() + kSlabBytes - 1) / kSlabBytes, s.size());
    } else {
      // A string starts inside its slab: a full slab takes no more, not
      // even an empty string.
      if (slab_used == kSlabBytes || s.size() > kSlabBytes - slab_used) {
        current_slab = TakeSlabs(1, kSlabBytes);
        slab_used = 0;
      }
      slab = current_slab;
      within = slab_used;
      slab_used += static_cast<uint32_t>(s.size());
    }
    if (!s.empty()) {
      std::memcpy(slabs[slab].load(std::memory_order_relaxed) + within,
                  s.data(), s.size());
    }
    return slab << kSlabBits | within;
  }
};

SymbolTable* SymbolTable::Global() {
  static SymbolTable* table = new SymbolTable();  // leaked: ids never die
  return table;
}

SymbolTable::SymbolTable() : shards_(new Shard[kNumShards]) {}
SymbolTable::~SymbolTable() = default;

SymbolId SymbolTable::Intern(std::string_view s) {
  const size_t h = std::hash<std::string_view>{}(s);
  const uint32_t shard_index = static_cast<uint32_t>(h & (kNumShards - 1));
  Shard& shard = shards_[shard_index];
  shard.interns.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(shard.mu);
  uint32_t local = shard.Lookup(s, h);
  if (local != kNoSymbol) return local * kNumShards + shard_index;

  local = shard.size;
  if (local == kMaxBlocks * kBlockSize) ShardFull("symbols");
  if (2 * (local + 1) > shard.id_capacity) shard.GrowIds();
  // std::hash<std::string_view> and std::hash<std::string> are required
  // to agree on equal character sequences, so memoizing the view hash
  // preserves the exact values std::hash<std::string> produced before.
  const Entry entry{shard.Append(s), static_cast<uint32_t>(s.size()), h};
  std::atomic<Entry*>& block = shard.blocks[local >> kBlockBits];
  if ((local & (kBlockSize - 1)) == 0) {
    block.store(new Entry[kBlockSize], std::memory_order_release);
  }
  block.load(std::memory_order_relaxed)[local & (kBlockSize - 1)] = entry;
  *shard.FreeSlot(h) = local;
  shard.size = local + 1;
  shard.bytes += s.size();
  return local * kNumShards + shard_index;
}

std::optional<SymbolId> SymbolTable::Find(std::string_view s) const {
  const size_t h = std::hash<std::string_view>{}(s);
  const uint32_t shard_index = static_cast<uint32_t>(h & (kNumShards - 1));
  Shard& shard = shards_[shard_index];
  std::lock_guard<std::mutex> lock(shard.mu);
  const uint32_t local = shard.Lookup(s, h);
  if (local == kNoSymbol) return std::nullopt;
  return SymbolId{local * kNumShards + shard_index};
}

std::string_view SymbolTable::str(SymbolId id) const {
  const Shard& shard = shards_[id % kNumShards];
  return shard.View(shard.At(id / kNumShards));
}

size_t SymbolTable::hash(SymbolId id) const {
  return shards_[id % kNumShards].At(id / kNumShards).hash;
}

SymbolTableStats SymbolTable::stats() const {
  SymbolTableStats out;
  out.reserved_bytes = kNumShards * sizeof(Shard);
  for (uint32_t i = 0; i < kNumShards; ++i) {
    Shard& shard = shards_[i];
    out.interns += shard.interns.load(std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(shard.mu);
    const uint64_t entry_blocks = (shard.size + kBlockSize - 1) / kBlockSize;
    out.symbols += shard.size;
    out.bytes += shard.bytes;
    out.blocks += entry_blocks + shard.slab_count;
    out.reserved_bytes += entry_blocks * kBlockSize * sizeof(Entry) +
                          shard.slab_bytes +
                          uint64_t{shard.id_capacity} * sizeof(uint32_t);
  }
  return out;
}

}  // namespace precis
