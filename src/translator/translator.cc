#include "translator/translator.h"

#include <set>

#include "common/retry.h"
#include "common/string_util.h"
#include "text/tokenizer.h"

namespace precis {

namespace {

/// Converts one result-database tuple into an attribute-name -> value map
/// (names lowercased to match template variable resolution).
TupleBinding BindTuple(const RelationSchema& schema, const Tuple& tuple) {
  TupleBinding binding;
  for (size_t i = 0; i < schema.num_attributes(); ++i) {
    binding[ToLower(schema.attribute(i).name)] = tuple[i];
  }
  return binding;
}

/// All bindings of a result relation, in tuple order.
Result<std::vector<TupleBinding>> BindRelation(const ResultDatabase& db,
                                               const std::string& relation) {
  const ResultRelation* rel = db.relation(relation);
  if (rel == nullptr) {
    return Status::NotFound("relation '" + relation + "' does not exist");
  }
  std::vector<TupleBinding> out;
  out.reserve(rel->num_tuples());
  for (size_t row = 0; row < rel->num_tuples(); ++row) {
    out.push_back(BindTuple(rel->schema, rel->tuple(row)));
  }
  return out;
}

/// One subject tuple plus the bindings of its ancestors along the traversal
/// (innermost first). Ancestor values let a join-edge template that hops
/// through a heading-less relation (ACTOR -> CAST -> MOVIE) still reference
/// the original subject ("As an actor, @ANAME's work includes ...").
struct SubjectChain {
  TupleBinding subject;
  std::vector<TupleBinding> ancestors;

  TemplateContext MakeContext(const std::vector<TupleBinding>* list) const {
    TemplateContext ctx;
    ctx.subjects.push_back(&subject);
    for (const TupleBinding& a : ancestors) ctx.subjects.push_back(&a);
    ctx.list = list;
    return ctx;
  }
};

class OccurrenceRenderer {
 public:
  OccurrenceRenderer(const TemplateCatalog* catalog,
                     const PrecisAnswer& answer)
      : catalog_(catalog), answer_(answer) {}

  /// Renders the clauses for one subject tuple of the token relation.
  Result<std::string> RenderSubject(RelationNodeId start_rel,
                                    SubjectChain start) {
    clauses_.clear();
    visited_edges_.clear();

    const std::string& rel_name =
        answer_.schema.graph().relation_name(start_rel);
    const Template* projection = catalog_->projection_template(rel_name);
    if (projection != nullptr) {
      TemplateContext ctx = start.MakeContext(nullptr);
      auto clause = projection->Evaluate(ctx, catalog_);
      if (clause.ok()) {
        AppendClause(*clause);
      } else if (clause.status().IsNotFound()) {
        // The degree constraint excluded an attribute the template uses;
        // degrade to the bare heading value ("Woody Allen.") if available.
        std::string heading =
            ToLower(catalog_->heading_attribute(rel_name));
        auto it = start.subject.find(heading);
        if (it != start.subject.end() && !it->second.is_null()) {
          AppendClause(it->second.ToString() + ".");
        }
      } else {
        return clause.status();
      }
    }

    std::vector<SubjectChain> chains;
    chains.push_back(std::move(start));
    PRECIS_RETURN_NOT_OK(EmitJoinsFrom(start_rel, chains));

    std::string out;
    for (size_t i = 0; i < clauses_.size(); ++i) {
      if (i > 0) out += " ";
      out += clauses_[i];
    }
    return out;
  }

 private:
  void AppendClause(const std::string& clause) {
    std::string trimmed = Trim(clause);
    if (!trimmed.empty()) clauses_.push_back(std::move(trimmed));
  }

  /// Emits the clause(s) of one join edge and returns the joined tuples per
  /// input chain.
  ///
  /// Clause granularity follows the paper's heading-attribute rule ("each of
  /// these clauses has as subject the heading attribute of the relation that
  /// has the primary key"): an edge departing a relation *with* a heading
  /// attribute speaks once per subject tuple ("Match Point is Drama,
  /// Thriller." per movie), while an edge departing a heading-less link
  /// relation (CAST) speaks once per distinct ancestor subject, merging the
  /// joined tuples ("As an actor, Woody Allen's work includes A, B.").
  Status EmitEdgeClauses(const JoinEdge* edge,
                         const std::vector<SubjectChain>& chains,
                         const Template* join_template, bool link_relation,
                         const std::vector<std::vector<TupleBinding>>&
                             joined_per_chain) {
    if (join_template == nullptr) return Status::OK();
    if (!link_relation) {
      for (size_t i = 0; i < chains.size(); ++i) {
        if (joined_per_chain[i].empty()) continue;
        TemplateContext ctx = chains[i].MakeContext(&joined_per_chain[i]);
        auto clause = join_template->Evaluate(ctx, catalog_);
        if (clause.ok()) {
          AppendClause(*clause);
        } else if (!clause.status().IsNotFound()) {
          return clause.status();
        }
        // NotFound: an attribute the template needs was not projected under
        // this degree constraint; skip the clause.
      }
      return Status::OK();
    }

    // Link relation: group chains by their ancestor lineage and merge the
    // joined tuples of each group into one list.
    std::vector<std::string> group_order;
    std::map<std::string, size_t> group_index;
    std::vector<const SubjectChain*> representative;
    std::vector<std::vector<TupleBinding>> merged;
    std::vector<std::set<std::string>> seen_keys;
    auto binding_key = [](const TupleBinding& b) {
      std::string key;
      for (const auto& [name, value] : b) {
        key += name + "=" + value.ToString() + ";";
      }
      return key;
    };
    for (size_t i = 0; i < chains.size(); ++i) {
      if (joined_per_chain[i].empty()) continue;
      std::string lineage;
      for (const TupleBinding& a : chains[i].ancestors) {
        lineage += binding_key(a) + "|";
      }
      auto [it, inserted] = group_index.emplace(lineage, merged.size());
      if (inserted) {
        group_order.push_back(lineage);
        representative.push_back(&chains[i]);
        merged.emplace_back();
        seen_keys.emplace_back();
      }
      size_t g = it->second;
      for (const TupleBinding& j : joined_per_chain[i]) {
        if (seen_keys[g].insert(binding_key(j)).second) {
          merged[g].push_back(j);
        }
      }
    }
    (void)edge;
    for (size_t g = 0; g < merged.size(); ++g) {
      TemplateContext ctx = representative[g]->MakeContext(&merged[g]);
      auto clause = join_template->Evaluate(ctx, catalog_);
      if (clause.ok()) {
        AppendClause(*clause);
      } else if (!clause.status().IsNotFound()) {
        return clause.status();
      }
    }
    return Status::OK();
  }

  /// Processes every unvisited join edge of the result schema departing
  /// `rel`, emits its clauses, then recurses into the reached relations
  /// with the joined tuples as new subjects.
  Status EmitJoinsFrom(RelationNodeId rel,
                       const std::vector<SubjectChain>& chains) {
    const SchemaGraph& graph = answer_.schema.graph();
    for (const JoinEdge* edge : answer_.schema.join_edges()) {
      if (edge->from != rel) continue;
      if (!visited_edges_.insert(edge).second) continue;

      const std::string& from_name = graph.relation_name(edge->from);
      const std::string& to_name = graph.relation_name(edge->to);
      auto to_bindings = BindRelation(answer_.database, to_name);
      if (!to_bindings.ok()) return to_bindings.status();

      const Template* join_template =
          catalog_->join_template(from_name, to_name);
      const bool link_relation =
          catalog_->heading_attribute(from_name).empty();
      const std::string from_attr = ToLower(edge->from_attribute);
      const std::string to_attr = ToLower(edge->to_attribute);

      // Joined tuples per chain.
      std::vector<std::vector<TupleBinding>> joined_per_chain(chains.size());
      for (size_t i = 0; i < chains.size(); ++i) {
        auto key_it = chains[i].subject.find(from_attr);
        if (key_it == chains[i].subject.end() || key_it->second.is_null()) {
          continue;
        }
        for (const TupleBinding& candidate : *to_bindings) {
          auto it = candidate.find(to_attr);
          if (it != candidate.end() && it->second == key_it->second) {
            joined_per_chain[i].push_back(candidate);
          }
        }
      }

      PRECIS_RETURN_NOT_OK(EmitEdgeClauses(edge, chains, join_template,
                                           link_relation, joined_per_chain));

      // Recurse with each joined tuple as a new subject; a destination
      // tuple reached from several source tuples continues only once (its
      // own downstream clauses do not depend on which path reached it).
      std::vector<SubjectChain> next_chains;
      std::set<std::string> next_seen;
      auto subject_key = [](const TupleBinding& b) {
        std::string key;
        for (const auto& [name, value] : b) {
          key += name + "=" + value.ToString() + ";";
        }
        return key;
      };
      for (size_t i = 0; i < chains.size(); ++i) {
        for (const TupleBinding& j : joined_per_chain[i]) {
          if (!next_seen.insert(subject_key(j)).second) continue;
          SubjectChain next;
          next.subject = j;
          next.ancestors.push_back(chains[i].subject);
          next.ancestors.insert(next.ancestors.end(),
                                chains[i].ancestors.begin(),
                                chains[i].ancestors.end());
          next_chains.push_back(std::move(next));
        }
      }
      if (!next_chains.empty()) {
        PRECIS_RETURN_NOT_OK(EmitJoinsFrom(edge->to, next_chains));
      }
    }
    return Status::OK();
  }

  const TemplateCatalog* catalog_;
  const PrecisAnswer& answer_;
  std::vector<std::string> clauses_;
  std::set<const JoinEdge*> visited_edges_;
};

}  // namespace

Result<std::vector<std::string>> Translator::RenderOccurrence(
    const PrecisAnswer& answer, const std::string& token,
    const TokenOccurrence& occurrence, ExecutionContext* ctx) const {
  std::vector<std::string> paragraphs;
  const ResultRelation* rel = answer.database.relation(occurrence.relation);
  if (rel == nullptr) return paragraphs;

  // Fault gate for the template-catalog lookups this occurrence will do
  // (one retried check per occurrence, on the caller's thread). Exhausted
  // retries surface as Unavailable; Render() degrades the narrative while
  // keeping the structured answer intact (DESIGN.md §12).
  if (ctx != nullptr && ctx->fault_injector() != nullptr &&
      ctx->fault_injector()->armed()) {
    PRECIS_RETURN_NOT_OK(CheckFaultWithRetry(
        ctx, FaultSite::kTranslatorCatalog, ctx->retry_policy()));
  }

  auto rel_id = answer.schema.graph().RelationId(occurrence.relation);
  if (!rel_id.ok()) return rel_id.status();

  // Subjects: the result-database tuples of the occurrence relation that
  // contain the token (the result database holds at most the seed subset
  // selected under the cardinality constraint).
  std::vector<std::string> words = TokenizeWords(token);
  const RelationSchema& schema = rel->schema;
  for (size_t row = 0; row < rel->num_tuples(); ++row) {
    if (ctx != nullptr && ctx->ShouldStop()) break;  // partial rendering
    const Tuple tuple = rel->tuple(row);
    bool contains = false;
    for (size_t i = 0; i < schema.num_attributes() && !contains; ++i) {
      if (schema.attribute(i).type == DataType::kString &&
          !tuple[i].is_null() &&
          ContainsPhrase(tuple[i].AsString(), words)) {
        contains = true;
      }
    }
    if (!contains) continue;

    OccurrenceRenderer renderer(catalog_, answer);
    SubjectChain chain;
    chain.subject = BindTuple(schema, tuple);
    auto paragraph = renderer.RenderSubject(*rel_id, std::move(chain));
    if (!paragraph.ok()) return paragraph.status();
    if (!paragraph->empty()) paragraphs.push_back(std::move(*paragraph));
  }
  return paragraphs;
}

Result<std::string> Translator::Render(const PrecisAnswer& answer,
                                       ExecutionContext* ctx) const {
  ScopedSpan span(ctx, "translate");
  std::string out;
  const DegradationReport& degradation = answer.report.degradation;
  if (!degradation.shards_skipped.empty()) {
    // The answer was assembled without some partitions (DESIGN.md §17);
    // say so up front — the paper's stance is that a less complete answer
    // must still be an honest one.
    const uint32_t total = degradation.shards_total;
    const uint32_t reached =
        total - static_cast<uint32_t>(degradation.shards_skipped.size());
    out += "[answers from " + std::to_string(reached) + " of " +
           std::to_string(total) + " partitions]";
  }
  for (const TokenMatch& match : answer.matches) {
    for (const TokenOccurrence& occurrence : match.occurrences()) {
      if (ctx != nullptr && ctx->ShouldStop()) return out;
      auto paragraphs = RenderOccurrence(answer, match.token, occurrence, ctx);
      if (!paragraphs.ok()) {
        if (paragraphs.status().IsUnavailable()) {
          // Translator-stage fault after retries: the narrative degrades
          // to a placeholder for this occurrence, but the caller still
          // gets its structured answer — rendering never torpedoes the
          // query (DESIGN.md §12).
          if (!out.empty()) out += "\n\n";
          out += "[précis narrative unavailable for '" + match.token +
                 "' in " + occurrence.relation + "]";
          continue;
        }
        return paragraphs.status();
      }
      for (const std::string& p : *paragraphs) {
        if (!out.empty()) out += "\n\n";
        out += p;
      }
    }
  }
  return out;
}

}  // namespace precis
