#include "shard/source_partitions.h"

namespace precis {

SourcePartitions::SourcePartitions(const Database* db, size_t num_partitions)
    : db_(db), router_(num_partitions) {
  for (const std::string& name : db->RelationNames()) {
    Counted& counted = counted_[name];
    counted.tuples = (*db->GetRelation(name))->num_tuples();
    counted.owned.assign(num_partitions, 0);
    const uint64_t seed = ShardRouter::RelationSeed(name);
    for (Tid tid = 0; tid < counted.tuples; ++tid) {
      ++counted.owned[router_.ShardOf(seed, tid)];
    }
  }
}

uint64_t SourcePartitions::TuplesOn(const std::string& relation,
                                    size_t partition) const {
  auto found = db_->GetRelation(relation);
  if (!found.ok()) return 0;
  uint64_t owned = 0;
  Tid counted_to = 0;
  if (auto it = counted_.find(relation); it != counted_.end()) {
    owned = it->second.owned[partition];
    counted_to = it->second.tuples;
  }
  const uint64_t seed = ShardRouter::RelationSeed(relation);
  for (Tid tid = counted_to; tid < (*found)->num_tuples(); ++tid) {
    owned += router_.ShardOf(seed, tid) == partition ? 1 : 0;
  }
  return owned;
}

uint64_t SourcePartitions::TuplesOn(size_t partition) const {
  uint64_t owned = 0;
  for (const std::string& name : db_->RelationNames()) {
    owned += TuplesOn(name, partition);
  }
  return owned;
}

}  // namespace precis
