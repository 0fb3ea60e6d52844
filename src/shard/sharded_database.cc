#include "shard/sharded_database.h"

#include <algorithm>
#include <utility>

#include "storage/columnar.h"

namespace precis {

std::vector<Tid> MergeAscendingTids(std::vector<std::vector<Tid>> lists) {
  size_t total = 0;
  size_t live = 0;
  size_t last = 0;
  for (size_t i = 0; i < lists.size(); ++i) {
    total += lists[i].size();
    if (!lists[i].empty()) {
      ++live;
      last = i;
    }
  }
  if (live == 0) return {};
  if (live == 1) return std::move(lists[last]);
  std::vector<Tid> out;
  out.reserve(total);
  std::vector<size_t> pos(lists.size(), 0);
  for (size_t emitted = 0; emitted < total; ++emitted) {
    size_t best = lists.size();
    for (size_t i = 0; i < lists.size(); ++i) {
      if (pos[i] >= lists[i].size()) continue;
      if (best == lists.size() || lists[i][pos[i]] < lists[best][pos[best]]) {
        best = i;
      }
    }
    out.push_back(lists[best][pos[best]++]);
  }
  return out;
}

Status ShardedRelation::MirrorLookupCharges(const std::string& attribute_name,
                                            ExecutionContext* ctx) const {
  auto idx = schema_.AttributeIndex(attribute_name);
  if (!idx.ok()) return idx.status();
  if (HasIndex(attribute_name)) {
    if (ctx != nullptr) {
      PRECIS_RETURN_NOT_OK(ctx->CheckFault(FaultSite::kIndexProbe));
    }
    if (stats_ != nullptr) {
      stats_->index_probes.fetch_add(1, std::memory_order_relaxed);
    }
    if (ctx != nullptr) ctx->ChargeIndexProbe();
  } else {
    if (ctx != nullptr) {
      PRECIS_RETURN_NOT_OK(ctx->CheckFault(FaultSite::kRelationScan));
    }
    if (stats_ != nullptr) {
      stats_->sequential_scans.fetch_add(1, std::memory_order_relaxed);
    }
    if (ctx != nullptr) ctx->ChargeSequentialScan();
  }
  return Status::OK();
}

Result<std::vector<Tid>> ShardedRelation::ShardLookupGlobal(
    size_t shard, const std::string& attribute_name, const Value& key) const {
  std::vector<Tid> scan;
  auto locals =
      shard_rel_[shard]->LookupEqualsView(attribute_name, key, &scan);
  if (!locals.ok()) return locals.status();
  std::vector<Tid> out;
  out.reserve(locals->size());
  const std::vector<Tid>& map = local_to_global_[shard];
  for (Tid local : *locals) out.push_back(map[local]);
  return out;
}

void ShardedRelation::ProjectRowsScatter(
    const Tid* tids, size_t n, const std::vector<size_t>& projection,
    Value* out, ExecutionContext* ctx,
    std::vector<uint64_t>* shard_fetches) const {
  const size_t shards = shard_rel_.size();
  const size_t width = projection.size();
  // Group the chunk's global tids by owning shard, preserving each tid's
  // output row so the scatter-back lands cells exactly where the
  // single-engine kernel would.
  std::vector<std::vector<Tid>> locals(shards);
  std::vector<std::vector<size_t>> rows(shards);
  for (size_t i = 0; i < n; ++i) {
    size_t s = OwnerOf(tids[i]);
    locals[s].push_back(local_of_[tids[i]]);
    rows[s].push_back(i);
  }
  std::vector<Value> tmp;
  for (size_t s = 0; s < shards; ++s) {
    if (locals[s].empty()) continue;
    tmp.resize(locals[s].size() * width);
    shard_rel_[s]->ProjectRows(locals[s].data(), locals[s].size(),
                               projection, tmp.data(), ctx);
    for (size_t j = 0; j < locals[s].size(); ++j) {
      std::copy(tmp.begin() + j * width, tmp.begin() + (j + 1) * width,
                out + rows[s][j] * width);
    }
    (*shard_fetches)[s] += locals[s].size();
  }
}

void ShardedRelation::CountStatement(ExecutionContext* ctx) const {
  if (stats_ != nullptr) {
    stats_->statements.fetch_add(1, std::memory_order_relaxed);
  }
  if (ctx != nullptr) ctx->ChargeStatement();
}

Result<ShardedDatabase> ShardedDatabase::Partition(const Database& source,
                                                   size_t num_shards) {
  if (num_shards < 2) {
    return Status::InvalidArgument("num_shards must be >= 2");
  }
  ShardedDatabase sharded(num_shards);
  sharded.shards_.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    sharded.shards_.push_back(
        std::make_unique<Database>(source.name() + "_shard" +
                                   std::to_string(s)));
  }

  for (const std::string& name : source.RelationNames()) {
    auto src = source.GetRelation(name);
    if (!src.ok()) return src.status();
    const Relation& rel = **src;

    // Every shard gets the relation — schema, primary key and all — even
    // when no tuple routes to it, so the coordinator can open any relation
    // on any shard.
    for (size_t s = 0; s < num_shards; ++s) {
      PRECIS_RETURN_NOT_OK(
          sharded.shards_[s]->CreateRelation(rel.schema()));
    }

    auto view = std::unique_ptr<ShardedRelation>(new ShardedRelation(
        rel.schema(), sharded.router_, sharded.stats_.get()));
    view->shard_rel_.resize(num_shards, nullptr);
    for (size_t s = 0; s < num_shards; ++s) {
      auto shard_rel = sharded.shards_[s]->GetRelation(name);
      if (!shard_rel.ok()) return shard_rel.status();
      view->shard_rel_[s] = *shard_rel;
    }
    view->local_to_global_.resize(num_shards);

    const size_t n = rel.num_tuples();
    view->local_of_.reserve(n);
    // Ascending global-tid order: each shard's local->global map comes out
    // strictly increasing, the property every deterministic merge uses.
    for (Tid g = 0; g < n; ++g) {
      const size_t s = view->OwnerOf(g);
      auto local = view->shard_rel_[s]->Insert(rel.tuple(g));
      if (!local.ok()) return local.status();
      view->local_of_.push_back(*local);
      view->local_to_global_[s].push_back(g);
    }

    // Replicate the source's indexes so probe-vs-scan is a global property
    // the coordinator mirror can decide without the shards.
    for (const std::string& attr : rel.IndexedAttributes()) {
      for (size_t s = 0; s < num_shards; ++s) {
        PRECIS_RETURN_NOT_OK(view->shard_rel_[s]->CreateIndex(attr));
      }
    }
    sharded.views_.emplace(name, std::move(view));
  }

  sharded.foreign_keys_ = source.foreign_keys();
  return sharded;
}

Result<const ShardedRelation*> ShardedDatabase::GetView(
    const std::string& name) const {
  auto it = views_.find(name);
  if (it == views_.end()) {
    return Status::NotFound("no relation named '" + name + "'");
  }
  return it->second.get();
}

std::vector<std::string> ShardedDatabase::RelationNames() const {
  std::vector<std::string> names;
  names.reserve(views_.size());
  for (const auto& [name, view] : views_) names.push_back(name);
  return names;  // std::map iteration is already sorted
}

size_t ShardedDatabase::TotalTuples() const {
  size_t total = 0;
  for (const auto& [name, view] : views_) total += view->num_tuples();
  return total;
}

Result<Tid> ShardedDatabase::Insert(const std::string& relation, Tuple tuple) {
  auto it = views_.find(relation);
  if (it == views_.end()) {
    return Status::NotFound("no relation named '" + relation + "'");
  }
  ShardedRelation& view = *it->second;
  const Tid global = view.num_tuples();
  const size_t owner = view.OwnerOf(global);

  // Cross-shard primary-key uniqueness: the owning shard's Insert checks
  // only its own tuples, so probe the others' primary-key sets first (no
  // access is charged), failing as the owner's Insert would: after its
  // arity and type checks, with its duplicate-key status. A NULL or NaN
  // key has no bits and is left to the owner's Insert.
  PRECIS_RETURN_NOT_OK(view.shard_rel_[owner]->Validate(tuple));
  if (view.schema_.primary_key()) {
    const size_t pk = *view.schema_.primary_key();
    const Value& key = tuple[pk];
    if (auto bits = Column::KeyBits(key, view.schema_.attribute(pk).type)) {
      for (size_t s = 0; s < shards_.size(); ++s) {
        if (s == owner) continue;  // the owner's Insert enforces its own
        if (view.shard_rel_[s]->HasPrimaryKeyBits(*bits)) {
          return Status::ConstraintViolation(
              "duplicate primary key " + key.ToString() + " in relation '" +
              relation + "'");
        }
      }
    }
  }

  auto local = view.shard_rel_[owner]->Insert(std::move(tuple));
  if (!local.ok()) return local.status();
  view.local_of_.push_back(*local);
  view.local_to_global_[owner].push_back(global);
  return global;
}

}  // namespace precis
