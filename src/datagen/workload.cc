#include "datagen/workload.h"

#include <algorithm>
#include <optional>
#include <set>

namespace precis {

Result<JoinChain> RandomJoinChain(const SchemaGraph& graph, Rng* rng,
                                  size_t num_relations) {
  if (num_relations == 0) {
    return Status::InvalidArgument("chain must have at least one relation");
  }
  if (num_relations > graph.num_relations()) {
    return Status::InvalidArgument(
        "chain of " + std::to_string(num_relations) +
        " relations exceeds graph size " +
        std::to_string(graph.num_relations()));
  }
  constexpr int kMaxAttempts = 1000;
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    JoinChain chain;
    chain.start = static_cast<RelationNodeId>(
        rng->Index(graph.num_relations()));
    std::set<RelationNodeId> visited = {chain.start};
    bool dead_end = false;
    while (chain.num_relations() < num_relations) {
      // Any outgoing edge from any visited relation to a fresh relation may
      // grow the set (a random spanning tree, not just a path).
      std::vector<const JoinEdge*> candidates;
      for (RelationNodeId rel : visited) {
        for (const JoinEdge* e : graph.JoinsFrom(rel)) {
          if (visited.count(e->to) == 0) candidates.push_back(e);
        }
      }
      if (candidates.empty()) {
        dead_end = true;
        break;
      }
      const JoinEdge* pick = candidates[rng->Index(candidates.size())];
      chain.edges.push_back(pick);
      visited.insert(pick->to);
    }
    if (!dead_end) return chain;
  }
  return Status::NotFound("no connected relation set of " +
                          std::to_string(num_relations) +
                          " relations found in the schema graph");
}

Result<ResultSchema> SchemaForChain(const SchemaGraph& graph,
                                    const JoinChain& chain) {
  ResultSchema schema(&graph);
  schema.AddTokenRelation(chain.start);

  // Projection paths on the start relation itself.
  for (const ProjectionEdge* e : graph.ProjectionsOf(chain.start)) {
    schema.AcceptProjectionPath(Path::Projection(chain.start, e));
  }
  // Transitive projection paths along every prefix of the chain. If a hop
  // relation has no projection edges it still enters G' through the join
  // edges of longer prefixes' paths — unless it is the chain's tail; to keep
  // each chain relation present we require (and the movies graph provides)
  // at least one projection edge per relation.
  // The chain's edges form a tree rooted at `start`: the join path to a
  // relation extends the join path of the edge's source relation.
  std::map<RelationNodeId, Path> path_to;
  for (const JoinEdge* e : chain.edges) {
    std::optional<Path> p;
    if (e->from == chain.start) {
      p = Path::Join(chain.start, e);
    } else {
      auto it = path_to.find(e->from);
      if (it == path_to.end()) {
        return Status::InvalidArgument(
            "chain edge departs from a relation not yet in the set");
      }
      p = it->second.ExtendedByJoin(e);
    }
    for (const ProjectionEdge* proj : graph.ProjectionsOf(e->to)) {
      schema.AcceptProjectionPath(p->ExtendedByProjection(proj));
    }
    path_to.emplace(e->to, std::move(*p));
  }
  return schema;
}

Result<std::vector<Tid>> RandomSeedTids(const Database& db,
                                        const std::string& relation, Rng* rng,
                                        size_t k) {
  auto rel = db.GetRelation(relation);
  if (!rel.ok()) return rel.status();
  size_t n = (*rel)->num_tuples();
  if (n == 0) return std::vector<Tid>{};
  size_t take = std::min(k, n);
  std::vector<size_t> picks = rng->SampleWithoutReplacement(n, take);
  std::vector<Tid> out(picks.begin(), picks.end());
  return out;
}

Result<std::string> RandomToken(const Database& db,
                                const std::string& relation,
                                const std::string& attribute, Rng* rng) {
  auto rel = db.GetRelation(relation);
  if (!rel.ok()) return rel.status();
  auto idx = (*rel)->schema().AttributeIndex(attribute);
  if (!idx.ok()) return idx.status();
  size_t n = (*rel)->num_tuples();
  if (n == 0) return Status::NotFound("relation '" + relation + "' is empty");
  return (*rel)->ColumnValue(rng->Index(n), *idx).ToString();
}

}  // namespace precis
