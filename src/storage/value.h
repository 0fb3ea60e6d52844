// Typed values for the in-memory relational engine.

#ifndef PRECIS_STORAGE_VALUE_H_
#define PRECIS_STORAGE_VALUE_H_

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <string_view>
#include <variant>

#include "common/symbol_table.h"

namespace precis {

/// \brief Column data types supported by the engine.
///
/// The paper's movie schema only needs integers (ids, years) and strings
/// (names, titles, dates-as-text); doubles are included for generality.
enum class DataType {
  kInt64,
  kDouble,
  kString,
};

/// \brief Returns "INT64" / "DOUBLE" / "STRING".
const char* DataTypeToString(DataType t);

/// \brief An interned string reference (DESIGN.md §13). Two Symbols are
/// equal iff their bytes are equal, because all ids come from the one
/// global SymbolTable.
struct Symbol {
  SymbolId id = 0;

  std::string_view str() const { return SymbolTable::Global()->str(id); }
  size_t hash() const { return SymbolTable::Global()->hash(id); }

  bool operator==(const Symbol& o) const { return id == o.id; }
  bool operator!=(const Symbol& o) const { return id != o.id; }
};

/// \brief A single attribute value: NULL, int64, double, or string.
///
/// Values order and hash across their own type only; comparing values of
/// different types orders by type index (NULL sorts first). This gives the
/// hash indexes and duplicate elimination well-defined total behaviour.
///
/// Strings are stored interned (a 4-byte Symbol into the global
/// SymbolTable), which makes every Value 16 bytes, trivially copyable and
/// trivially destructible: tuples can be memcpy'd into arena buffers and
/// freed wholesale, and string equality inside indexes is one integer
/// compare. Ordering and hashing of string values remain byte-based
/// (lexicographic compare, memoized std::hash of the bytes), so observable
/// behaviour is unchanged from the heap-string representation.
class Value {
 public:
  /// NULL value.
  Value() : v_(std::monostate{}) {}
  Value(int64_t v) : v_(v) {}         // NOLINT(google-explicit-constructor)
  Value(double v) : v_(v) {}          // NOLINT(google-explicit-constructor)
  Value(const std::string& v)         // NOLINT(google-explicit-constructor)
      : v_(Symbol{SymbolTable::Global()->Intern(v)}) {}
  Value(std::string_view v)           // NOLINT(google-explicit-constructor)
      : v_(Symbol{SymbolTable::Global()->Intern(v)}) {}
  Value(const char* v)                // NOLINT(google-explicit-constructor)
      : v_(Symbol{SymbolTable::Global()->Intern(v)}) {}

  static Value Null() { return Value(); }
  static Value FromSymbol(Symbol s) {
    Value v;
    v.v_ = s;
    return v;
  }

  bool is_null() const { return std::holds_alternative<std::monostate>(v_); }
  bool is_int64() const { return std::holds_alternative<int64_t>(v_); }
  bool is_double() const { return std::holds_alternative<double>(v_); }
  bool is_string() const { return std::holds_alternative<Symbol>(v_); }

  /// Accessors; undefined behaviour on type mismatch (assert in debug).
  /// AsString's view points into the global SymbolTable, so it stays
  /// valid for the process lifetime, past this Value's.
  int64_t AsInt64() const { return std::get<int64_t>(v_); }
  double AsDouble() const { return std::get<double>(v_); }
  std::string_view AsString() const { return std::get<Symbol>(v_).str(); }
  Symbol symbol() const { return std::get<Symbol>(v_); }

  /// True if this value's dynamic type matches the declared column type.
  /// NULL is compatible with every type.
  bool TypeMatches(DataType t) const;

  bool operator==(const Value& other) const { return v_ == other.v_; }
  bool operator!=(const Value& other) const { return v_ != other.v_; }
  bool operator<(const Value& other) const {
    // Variant ordering (alternative index first), except strings compare
    // by their bytes, not their intern ids — id order reflects intern
    // order, which must never leak into query output.
    if (v_.index() != other.v_.index()) return v_.index() < other.v_.index();
    switch (v_.index()) {
      case 1:
        return std::get<int64_t>(v_) < std::get<int64_t>(other.v_);
      case 2:
        return std::get<double>(v_) < std::get<double>(other.v_);
      case 3:
        return std::get<Symbol>(v_) != std::get<Symbol>(other.v_) &&
               std::get<Symbol>(v_).str() < std::get<Symbol>(other.v_).str();
      default:
        return false;  // both NULL
    }
  }

  /// Rendering used by examples and the translator ("1935", "Woody Allen").
  std::string ToString() const;

  size_t Hash() const;

 private:
  std::variant<std::monostate, int64_t, double, Symbol> v_;
};

static_assert(std::is_trivially_copyable_v<Value> &&
                  std::is_trivially_destructible_v<Value>,
              "Value must stay memcpy-able for arena chunk buffers");

inline std::ostream& operator<<(std::ostream& os, const Value& v) {
  return os << v.ToString();
}

/// Hash functor for use in unordered containers keyed by Value.
struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

}  // namespace precis

#endif  // PRECIS_STORAGE_VALUE_H_
