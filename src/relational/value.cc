#include "relational/value.h"

#include <charconv>
#include <functional>

#include "common/string_util.h"

namespace contjoin::rel {

const char* ValueTypeName(ValueType t) {
  switch (t) {
    case ValueType::kNull:
      return "null";
    case ValueType::kInt:
      return "int";
    case ValueType::kDouble:
      return "double";
    case ValueType::kString:
      return "string";
  }
  return "unknown";
}

ValueType Value::type() const {
  switch (data_.index()) {
    case 1:
      return ValueType::kInt;
    case 2:
      return ValueType::kDouble;
    case 3:
      return ValueType::kString;
    default:
      return ValueType::kNull;
  }
}

std::optional<double> Value::AsNumeric() const {
  switch (type()) {
    case ValueType::kInt:
      return static_cast<double>(as_int());
    case ValueType::kDouble:
      return as_double();
    default:
      return std::nullopt;
  }
}

std::string Value::ToKeyString() const {
  KeyBuffer buf;
  return std::string(KeyChars(buf));
}

std::string_view Value::KeyChars(KeyBuffer& buf) const {
  static_assert(std::tuple_size_v<KeyBuffer> >= kCanonicalDoubleChars);
  switch (type()) {
    case ValueType::kNull:
      return "<null>";
    case ValueType::kInt: {
      const char* end =
          std::to_chars(buf.data(), buf.data() + buf.size(), as_int()).ptr;
      return {buf.data(), static_cast<size_t>(end - buf.data())};
    }
    case ValueType::kDouble:
      return CanonicalDoubleChars(as_double(), buf.data());
    case ValueType::kString:
      return as_string();
  }
  return "<null>";
}

std::string Value::ToString() const {
  if (type() == ValueType::kString) return "'" + as_string() + "'";
  return ToKeyString();
}

int Value::Compare(const Value& other) const {
  auto a = AsNumeric();
  auto b = other.AsNumeric();
  if (a.has_value() && b.has_value()) {
    if (*a < *b) return -1;
    if (*a > *b) return 1;
    return 0;
  }
  return ToKeyString().compare(other.ToKeyString());
}

size_t Value::HashValue() const {
  return std::hash<std::string>{}(ToKeyString());
}

}  // namespace contjoin::rel
