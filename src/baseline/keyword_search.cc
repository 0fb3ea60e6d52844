#include "baseline/keyword_search.h"

#include <algorithm>
#include <functional>
#include <set>
#include <sstream>
#include <unordered_set>

namespace precis {

std::string JoinedTupleTree::ToString() const {
  std::ostringstream os;
  for (size_t i = 0; i < tuples.size(); ++i) {
    if (i > 0) os << " |><| ";
    os << tuples[i].first << "(";
    for (size_t j = 0; j < tuples[i].second.size(); ++j) {
      if (j > 0) os << ", ";
      os << tuples[i].second[j].ToString();
    }
    os << ")";
  }
  return os.str();
}

KeywordSearchBaseline::KeywordSearchBaseline(const Database* db,
                                             const SchemaGraph* graph,
                                             InvertedIndex index)
    : db_(db), graph_(graph), index_(std::move(index)) {
  adjacency_.resize(graph_->num_relations());
  for (const JoinEdge& e : graph_->join_edges()) {
    adjacency_[e.from].push_back(Adjacency{e.to, &e, true});
    adjacency_[e.to].push_back(Adjacency{e.from, &e, false});
  }
}

Result<KeywordSearchBaseline> KeywordSearchBaseline::Create(
    const Database* db, const SchemaGraph* graph) {
  if (db == nullptr || graph == nullptr) {
    return Status::InvalidArgument("database and graph must be non-null");
  }
  auto index = InvertedIndex::Build(*db);
  if (!index.ok()) return index.status();
  return KeywordSearchBaseline(db, graph, std::move(*index));
}

Result<std::vector<KeywordSearchBaseline::Network>>
KeywordSearchBaseline::EnumerateNetworks(
    const std::vector<std::vector<TupleSet>>& tuple_sets,
    const KeywordSearchOptions& options) const {
  std::vector<Network> complete;
  std::vector<std::pair<Network, uint32_t>> frontier;  // (tree, covered mask)
  const uint32_t all_mask =
      tuple_sets.empty() ? 0u
                         : ((1u << tuple_sets.size()) - 1u);

  // Roots: one per tuple set of keyword 0.
  if (tuple_sets.empty()) return complete;
  for (const TupleSet& ts : tuple_sets[0]) {
    Network net = {NetNode{ts.relation, -1, nullptr, false, 0}};
    if (all_mask == 1u) {
      complete.push_back(net);
    } else {
      frontier.emplace_back(std::move(net), 1u);
    }
  }

  // Breadth-first tree expansion, smaller networks first (so that the
  // enumeration cap keeps the best-ranked shapes).
  while (!frontier.empty() && complete.size() < options.max_networks) {
    std::vector<std::pair<Network, uint32_t>> next;
    for (const auto& [net, mask] : frontier) {
      if (net.size() >= options.max_network_size) continue;
      for (int node_idx = 0; node_idx < static_cast<int>(net.size());
           ++node_idx) {
        for (const Adjacency& adj : adjacency_[net[node_idx].relation]) {
          // Free (connector) nodes use each relation at most once; tuple-set
          // nodes may revisit a relation (two keywords can match different
          // tuples of the same relation, joined through a connector — the
          // MOVIE - DIRECTOR - MOVIE shape).
          bool already = false;
          for (const NetNode& n : net) {
            if (n.relation == adj.neighbor) {
              already = true;
              break;
            }
          }

          // Option 1: attach as a tuple-set node for an uncovered keyword.
          for (size_t k = 1; k < tuple_sets.size(); ++k) {
            if ((mask >> k) & 1u) continue;
            for (const TupleSet& ts : tuple_sets[k]) {
              if (ts.relation != adj.neighbor) continue;
              Network extended = net;
              extended.push_back(NetNode{adj.neighbor, node_idx, adj.edge,
                                         adj.forward, static_cast<int>(k)});
              uint32_t new_mask = mask | (1u << k);
              if (new_mask == all_mask) {
                complete.push_back(std::move(extended));
                if (complete.size() >= options.max_networks) {
                  return complete;
                }
              } else {
                next.emplace_back(std::move(extended), new_mask);
              }
            }
          }
          // Option 2: attach as a free (connector) node.
          if (!already && net.size() + 1 < options.max_network_size) {
            Network extended = net;
            extended.push_back(
                NetNode{adj.neighbor, node_idx, adj.edge, adj.forward, -1});
            next.emplace_back(std::move(extended), mask);
          }
        }
      }
    }
    frontier = std::move(next);
    // Bound the frontier so pathological graphs cannot blow up memory.
    if (frontier.size() > 4 * options.max_networks) {
      frontier.resize(4 * options.max_networks);
    }
  }
  return complete;
}

Status KeywordSearchBaseline::ExecuteNetwork(
    const Network& network,
    const std::vector<std::vector<TupleSet>>& tuple_sets,
    const KeywordSearchOptions& options,
    std::vector<JoinedTupleTree>* results) const {
  // Resolve relations and per-node keyword tid filters.
  std::vector<const Relation*> relations(network.size());
  std::vector<std::unordered_set<Tid>> filters(network.size());
  for (size_t i = 0; i < network.size(); ++i) {
    auto rel = db_->GetRelation(graph_->relation_name(network[i].relation));
    if (!rel.ok()) return rel.status();
    relations[i] = *rel;
    if (network[i].keyword >= 0) {
      for (const TupleSet& ts : tuple_sets[network[i].keyword]) {
        if (ts.relation == network[i].relation) {
          filters[i].insert(ts.tids.begin(), ts.tids.end());
        }
      }
    }
  }

  // Children of each node, in index order (parents precede children by
  // construction).
  std::vector<std::vector<size_t>> children(network.size());
  for (size_t i = 1; i < network.size(); ++i) {
    children[network[i].parent].push_back(i);
  }

  // Depth-first assignment of tuples to nodes.
  std::vector<Tid> assignment(network.size());
  std::vector<Tuple> tuples(network.size());

  // Recursive lambda over node index in BFS order (0..n-1); because parents
  // precede children, filling nodes in index order keeps the parent bound
  // before each child is probed.
  std::function<Status(size_t)> fill = [&](size_t i) -> Status {
    if (results->size() >= options.max_results) return Status::OK();
    if (i == network.size()) {
      JoinedTupleTree tree;
      tree.num_joins = network.size() - 1;
      for (size_t n = 0; n < network.size(); ++n) {
        tree.tuples.emplace_back(
            graph_->relation_name(network[n].relation), tuples[n]);
      }
      results->push_back(std::move(tree));
      return Status::OK();
    }

    if (network[i].parent < 0) {
      // Root: iterate its keyword tuple set (roots are always keyword
      // nodes), in tid order for deterministic output.
      std::vector<Tid> root_tids(filters[i].begin(), filters[i].end());
      std::sort(root_tids.begin(), root_tids.end());
      for (Tid tid : root_tids) {
        auto t = relations[i]->Get(tid);
        if (!t.ok()) return t.status();
        assignment[i] = tid;
        tuples[i] = std::move(*t);
        PRECIS_RETURN_NOT_OK(fill(i + 1));
        if (results->size() >= options.max_results) return Status::OK();
      }
      return Status::OK();
    }

    // Probe the child relation with the parent's join value.
    const NetNode& node = network[i];
    size_t parent = static_cast<size_t>(node.parent);
    const std::string& parent_attr =
        node.edge_forward ? node.edge->from_attribute
                          : node.edge->to_attribute;
    const std::string& child_attr = node.edge_forward
                                        ? node.edge->to_attribute
                                        : node.edge->from_attribute;
    auto parent_idx = graph_->relation_schema(network[parent].relation)
                          .AttributeIndex(parent_attr);
    if (!parent_idx.ok()) return parent_idx.status();
    const Value& key = tuples[parent][*parent_idx];
    if (key.is_null()) return Status::OK();
    auto tids = relations[i]->LookupEquals(child_attr, key);
    if (!tids.ok()) return tids.status();
    for (Tid tid : *tids) {
      if (!filters[i].empty() && filters[i].count(tid) == 0) continue;
      auto t = relations[i]->Get(tid);
      if (!t.ok()) return t.status();
      assignment[i] = tid;
      tuples[i] = std::move(*t);
      PRECIS_RETURN_NOT_OK(fill(i + 1));
      if (results->size() >= options.max_results) return Status::OK();
    }
    return Status::OK();
  };

  return fill(0);
}

Result<std::vector<JoinedTupleTree>> KeywordSearchBaseline::Search(
    const std::vector<std::string>& keywords,
    const KeywordSearchOptions& options) const {
  last_num_networks_ = 0;
  std::vector<JoinedTupleTree> results;
  if (keywords.empty()) return results;

  // Tuple sets per keyword.
  std::vector<std::vector<TupleSet>> tuple_sets(keywords.size());
  for (size_t k = 0; k < keywords.size(); ++k) {
    // Bind the shared result before iterating: range-for over
    // `*index_.Lookup(...)` would destroy the temporary shared_ptr after
    // initializing the range and leave the loop reading freed memory.
    OccurrenceList occurrences = index_.Lookup(keywords[k]);
    for (const TokenOccurrence& occ : *occurrences) {
      auto rel = graph_->RelationId(occ.relation);
      if (!rel.ok()) return rel.status();
      // Merge occurrences of the same relation (different attributes).
      bool merged = false;
      for (TupleSet& ts : tuple_sets[k]) {
        if (ts.relation == *rel) {
          for (Tid tid : occ.tids) {
            if (std::find(ts.tids.begin(), ts.tids.end(), tid) ==
                ts.tids.end()) {
              ts.tids.push_back(tid);
            }
          }
          merged = true;
          break;
        }
      }
      if (!merged) tuple_sets[k].push_back(TupleSet{*rel, occ.tids});
    }
    if (tuple_sets[k].empty()) return results;  // keyword matches nothing
  }

  auto networks = EnumerateNetworks(tuple_sets, options);
  if (!networks.ok()) return networks.status();
  last_num_networks_ = networks->size();

  for (const Network& net : *networks) {
    PRECIS_RETURN_NOT_OK(ExecuteNetwork(net, tuple_sets, options, &results));
    if (results.size() >= options.max_results) break;
  }

  // Rank: fewer joins first; stable within a size class (execution order).
  std::stable_sort(results.begin(), results.end(),
                   [](const JoinedTupleTree& a, const JoinedTupleTree& b) {
                     return a.num_joins < b.num_joins;
                   });
  if (results.size() > options.top_k) results.resize(options.top_k);
  return results;
}

}  // namespace precis
