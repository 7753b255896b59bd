// Typed attribute values. Equality follows the paper's DHT convention:
// values are compared through their canonical string form (the same form
// that is hashed into value-level identifiers), so local matching and
// network-level routing can never disagree.

#ifndef CONTJOIN_RELATIONAL_VALUE_H_
#define CONTJOIN_RELATIONAL_VALUE_H_

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <variant>

namespace contjoin::rel {

enum class ValueType : unsigned char { kNull = 0, kInt, kDouble, kString };

/// Name of a value type ("int", "double", ...).
const char* ValueTypeName(ValueType t);

/// A relational attribute value: null, 64-bit integer, double or string.
class Value {
 public:
  /// Null value.
  Value() : data_(std::monostate{}) {}

  static Value Null() { return Value(); }
  static Value Int(int64_t v) { return Value(v); }
  static Value Double(double v) { return Value(v); }
  static Value Str(std::string v) { return Value(std::move(v)); }

  ValueType type() const;
  bool is_null() const { return type() == ValueType::kNull; }

  /// Typed accessors; the caller must check type() first.
  int64_t as_int() const { return std::get<int64_t>(data_); }
  double as_double() const { return std::get<double>(data_); }
  const std::string& as_string() const { return std::get<std::string>(data_); }

  /// Numeric view (ints widen to double); nullopt for null/string.
  std::optional<double> AsNumeric() const;

  /// Canonical string used as the value component of value-level DHT keys
  /// (paper §4.2: "when the value of an attribute is numeric, this value is
  /// also treated as a string"). Integral doubles print like integers.
  std::string ToKeyString() const;

  /// Scratch space for KeyChars: room for any int or double key form.
  using KeyBuffer = std::array<char, 32>;

  /// ToKeyString() without allocating: a view of this value's own string,
  /// of a literal or of `buf`, valid while those are.
  std::string_view KeyChars(KeyBuffer& buf) const;

  /// Display form: strings quoted, others as ToKeyString().
  std::string ToString() const;

  /// Equality = canonical-key-string equality, matching the network's
  /// behaviour exactly (Int(2) == Double(2.0) == anything keyed "2").
  bool operator==(const Value& other) const {
    return ToKeyString() == other.ToKeyString();
  }

  /// Ordering for selection predicates: numeric if both sides are numeric,
  /// otherwise lexicographic on key strings. Returns <0, 0, >0.
  int Compare(const Value& other) const;

  size_t HashValue() const;

 private:
  explicit Value(int64_t v) : data_(v) {}
  explicit Value(double v) : data_(v) {}
  explicit Value(std::string v) : data_(std::move(v)) {}

  std::variant<std::monostate, int64_t, double, std::string> data_;
};

}  // namespace contjoin::rel

namespace std {
template <>
struct hash<contjoin::rel::Value> {
  size_t operator()(const contjoin::rel::Value& v) const {
    return v.HashValue();
  }
};
}  // namespace std

#endif  // CONTJOIN_RELATIONAL_VALUE_H_
