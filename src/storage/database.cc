#include "storage/database.h"

#include <sstream>
#include <unordered_set>

namespace precis {

Status Database::CreateRelation(RelationSchema schema) {
  // Copy, not reference: the schema is moved out below and (since C++17)
  // the assignment's right side is sequenced before the map subscript.
  const std::string rel_name = schema.name();
  if (rel_name.empty()) {
    return Status::InvalidArgument("relation name must be non-empty");
  }
  if (relations_.count(rel_name) > 0) {
    return Status::AlreadyExists("relation '" + rel_name + "' already exists");
  }
  std::unordered_set<std::string> attr_names;
  for (const auto& a : schema.attributes()) {
    if (!attr_names.insert(a.name).second) {
      return Status::InvalidArgument("duplicate attribute '" + a.name +
                                     "' in relation '" + rel_name + "'");
    }
  }
  relations_[rel_name] =
      std::make_unique<Relation>(std::move(schema), stats_.get());
  relations_[rel_name]->set_epoch_counter(epoch_.get());
  BumpEpoch();
  return Status::OK();
}

Status Database::AddForeignKey(ForeignKey fk) {
  auto child = GetRelation(fk.child_relation);
  if (!child.ok()) return child.status();
  auto parent = GetRelation(fk.parent_relation);
  if (!parent.ok()) return parent.status();
  auto child_idx = (*child)->schema().AttributeIndex(fk.child_attribute);
  if (!child_idx.ok()) return child_idx.status();
  auto parent_idx = (*parent)->schema().AttributeIndex(fk.parent_attribute);
  if (!parent_idx.ok()) return parent_idx.status();
  DataType ct = (*child)->schema().attribute(*child_idx).type;
  DataType pt = (*parent)->schema().attribute(*parent_idx).type;
  if (ct != pt) {
    return Status::InvalidArgument(
        "foreign key type mismatch: " + fk.ToString());
  }
  foreign_keys_.push_back(std::move(fk));
  BumpEpoch();
  return Status::OK();
}

bool Database::HasRelation(const std::string& name) const {
  return relations_.count(name) > 0;
}

Result<Relation*> Database::GetRelation(const std::string& name) {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("relation '" + name + "' does not exist");
  }
  return it->second.get();
}

Result<const Relation*> Database::GetRelation(const std::string& name) const {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("relation '" + name + "' does not exist");
  }
  return static_cast<const Relation*>(it->second.get());
}

std::vector<std::string> Database::RelationNames() const {
  std::vector<std::string> out;
  out.reserve(relations_.size());
  for (const auto& [name, rel] : relations_) out.push_back(name);
  return out;
}

size_t Database::TotalTuples() const {
  size_t n = 0;
  for (const auto& [name, rel] : relations_) n += rel->num_tuples();
  return n;
}

Status Database::CheckForeignKey(const ForeignKey& fk) const {
  auto child = GetRelation(fk.child_relation);
  if (!child.ok()) return child.status();
  auto parent = GetRelation(fk.parent_relation);
  if (!parent.ok()) return parent.status();
  auto child_idx = (*child)->schema().AttributeIndex(fk.child_attribute);
  if (!child_idx.ok()) return child_idx.status();
  auto parent_idx = (*parent)->schema().AttributeIndex(fk.parent_attribute);
  if (!parent_idx.ok()) return parent_idx.status();
  const Column& child_col = (*child)->column(*child_idx);
  const Column& parent_col = (*parent)->column(*parent_idx);
  const DataType type = child_col.type();
  if (parent_col.type() != type) {
    return Status::InvalidArgument("foreign key type mismatch: " +
                                   fk.ToString());
  }

  // NULL parents contribute nothing and NaN parents can never be matched,
  // so neither enters the set.
  std::unordered_set<uint64_t> parent_bits;
  parent_bits.reserve(parent_col.size());
  for (Tid tid = 0; tid < parent_col.size(); ++tid) {
    if (parent_col.IsNull(tid)) continue;
    auto bits = Column::CanonicalBits(parent_col.raw_bits(tid), type);
    if (bits) parent_bits.insert(*bits);
  }
  for (Tid tid = 0; tid < child_col.size(); ++tid) {
    if (child_col.IsNull(tid)) continue;
    auto bits = Column::CanonicalBits(child_col.raw_bits(tid), type);
    if (!bits || parent_bits.count(*bits) == 0) {
      return Status::ConstraintViolation(
          "dangling foreign key " + fk.ToString() + ": value " +
          child_col.GetValue(tid).ToString() + " has no parent");
    }
  }
  return Status::OK();
}

Status Database::ValidateForeignKeys() const {
  for (const ForeignKey& fk : foreign_keys_) {
    PRECIS_RETURN_NOT_OK(CheckForeignKey(fk));
  }
  return Status::OK();
}

std::string Database::DescribeSchema() const {
  std::ostringstream os;
  for (const auto& [name, rel] : relations_) {
    os << rel->schema().ToString() << "  [" << rel->num_tuples()
       << " tuples]\n";
  }
  for (const ForeignKey& fk : foreign_keys_) {
    os << "  FK " << fk.ToString() << "\n";
  }
  return os.str();
}

}  // namespace precis
