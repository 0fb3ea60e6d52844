#include "common/symbol_table.h"

#include <cstdio>
#include <cstdlib>
#include <functional>

namespace precis {

// One shard: a mutex-guarded intern map plus lock-free slab storage.
//
// Ids are laid out as (local_index * kNumShards) + shard, so an id both
// names its shard (modulo) and its slot within it (division) without a
// lookup. Blocks are fixed arrays published into an atomic pointer slot
// with release ordering; a reader that holds a valid id is guaranteed
// (by whatever synchronization handed it the id, plus the acquire load
// here) to see the fully constructed slot.
struct SymbolTable::Shard {
  std::mutex mu;
  // Keys are views into the slot-owned strings; the slot outlives the map.
  std::unordered_map<std::string_view, uint32_t> map;
  std::atomic<Block*> blocks[kMaxBlocks] = {};
  uint32_t size = 0;               // slots filled, guarded by mu
  uint64_t bytes = 0;              // interned byte total, guarded by mu
  std::atomic<uint64_t> interns{0};

  ~Shard() {
    for (auto& b : blocks) delete b.load(std::memory_order_relaxed);
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
  Shard& shard = shards_[h & (kNumShards - 1)];
  shard.interns.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(s);
  if (it != shard.map.end()) {
    return SymbolId{it->second * kNumShards +
                    uint32_t(h & (kNumShards - 1))};
  }
  const uint32_t local = shard.size;
  const uint32_t block_idx = local / kBlockSize;
  if (block_idx >= kMaxBlocks) {
    // Every id of a full shard is live, so there is nothing to hand out.
    std::fprintf(stderr, "SymbolTable: shard full (%u symbols)\n",
                 kMaxBlocks * kBlockSize);
    std::abort();
  }
  Block* block = shard.blocks[block_idx].load(std::memory_order_relaxed);
  if (block == nullptr) {
    block = new Block();
    shard.blocks[block_idx].store(block, std::memory_order_release);
  }
  Slot& slot = block->slots[local % kBlockSize];
  slot.str.assign(s.data(), s.size());
  // std::hash<std::string_view> and std::hash<std::string> are required
  // to agree on equal character sequences, so memoizing the view hash
  // preserves the exact values std::hash<std::string> produced before.
  slot.hash = h;
  shard.map.emplace(std::string_view(slot.str), local);
  shard.size = local + 1;
  shard.bytes += s.size();
  return SymbolId{local * kNumShards + uint32_t(h & (kNumShards - 1))};
}

std::optional<SymbolId> SymbolTable::Find(std::string_view s) const {
  const size_t h = std::hash<std::string_view>{}(s);
  Shard& shard = shards_[h & (kNumShards - 1)];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(s);
  if (it == shard.map.end()) return std::nullopt;
  return SymbolId{it->second * kNumShards + uint32_t(h & (kNumShards - 1))};
}

const std::string& SymbolTable::str(SymbolId id) const {
  const Shard& shard = shards_[id % kNumShards];
  const uint32_t local = id / kNumShards;
  Block* block =
      shard.blocks[local / kBlockSize].load(std::memory_order_acquire);
  return block->slots[local % kBlockSize].str;
}

size_t SymbolTable::hash(SymbolId id) const {
  const Shard& shard = shards_[id % kNumShards];
  const uint32_t local = id / kNumShards;
  Block* block =
      shard.blocks[local / kBlockSize].load(std::memory_order_acquire);
  return block->slots[local % kBlockSize].hash;
}

SymbolTableStats SymbolTable::stats() const {
  SymbolTableStats out;
  for (uint32_t i = 0; i < kNumShards; ++i) {
    Shard& shard = shards_[i];
    out.interns += shard.interns.load(std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(shard.mu);
    out.symbols += shard.size;
    out.bytes += shard.bytes;
    out.blocks += (shard.size + kBlockSize - 1) / kBlockSize;
  }
  return out;
}

}  // namespace precis
