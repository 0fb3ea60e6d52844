// ShardRouter: stable tuple-id -> shard placement (DESIGN.md §15).
//
// A partition is the set of source tids the router assigns it, so routing
// must be a pure function of (relation, tid): a tuple inserted after the
// partitions were counted, and a tid the token index returns, land on the
// same partition in every process and on every platform — the degraded
// answers the chaos drill fingerprints depend on it. The router therefore
// avoids std::hash (implementation-defined) in favour of FNV-1a over the
// relation name and a splitmix64 finalizer over the tid.

#ifndef PRECIS_SHARD_SHARD_ROUTER_H_
#define PRECIS_SHARD_SHARD_ROUTER_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "storage/relation.h"

namespace precis {

/// \brief Deterministic tuple-id hash partitioner.
class ShardRouter {
 public:
  explicit ShardRouter(size_t num_shards) : num_shards_(num_shards) {}

  size_t num_shards() const { return num_shards_; }

  /// FNV-1a over the relation name: a per-relation seed so two relations of
  /// equal size do not shard-align tuple-for-tuple.
  static uint64_t RelationSeed(const std::string& relation) {
    uint64_t h = 1469598103934665603ULL;
    for (char c : relation) {
      h ^= static_cast<uint64_t>(static_cast<unsigned char>(c));
      h *= 1099511628211ULL;
    }
    return h;
  }

  /// The shard owning tuple id `tid` of the relation with seed
  /// `relation_seed` (splitmix64 finalizer: full-avalanche, branch-free).
  size_t ShardOf(uint64_t relation_seed, Tid tid) const {
    uint64_t z = (tid ^ relation_seed) + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    return static_cast<size_t>(z % static_cast<uint64_t>(num_shards_));
  }

 private:
  size_t num_shards_;
};

}  // namespace precis

#endif  // PRECIS_SHARD_SHARD_ROUTER_H_
