#include "storage/value.h"

#include <cmath>
#include <sstream>

namespace precis {

const char* DataTypeToString(DataType t) {
  switch (t) {
    case DataType::kInt64:
      return "INT64";
    case DataType::kDouble:
      return "DOUBLE";
    case DataType::kString:
      return "STRING";
  }
  return "UNKNOWN";
}

bool Value::TypeMatches(DataType t) const {
  if (is_null()) return true;
  switch (t) {
    case DataType::kInt64:
      return is_int64();
    case DataType::kDouble:
      return is_double();
    case DataType::kString:
      return is_string();
  }
  return false;
}

std::string Value::ToString() const {
  if (is_null()) return "NULL";
  if (is_int64()) return std::to_string(AsInt64());
  if (is_double()) {
    std::ostringstream os;
    os << AsDouble();
    return os.str();
  }
  return std::string(AsString());
}

size_t Value::Hash() const {
  // Mix the alternative index with the per-type hash so that e.g. the int64 0
  // and the double 0.0 land in distinct buckets deterministically.
  size_t seed = v_.index() * 0x9e3779b97f4a7c15ULL;
  size_t h = 0;
  if (is_int64()) {
    h = std::hash<int64_t>{}(AsInt64());
  } else if (is_double()) {
    h = std::hash<double>{}(AsDouble());
  } else if (is_string()) {
    // Memoized at intern time; identical to std::hash<std::string> of the
    // bytes, so bucket placement matches the pre-interning representation.
    h = std::get<Symbol>(v_).hash();
  }
  return seed ^ (h + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

}  // namespace precis
