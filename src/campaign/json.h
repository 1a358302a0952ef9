// Minimal JSON document model for the campaign's machine-readable sinks and for every
// record that crosses a process boundary (sandbox pipe, journal, fleet wire).
//
// Documents dump deterministically (objects are ordered maps), so same-seed campaigns
// emit byte-identical artifacts. Supports exactly the JSON subset those need:
// null/bool/int64/double/string/array/object, UTF-8 passthrough, \uXXXX escapes
// emitted for control characters.
//
// Records are encoded from one field list each (EncodeFields / DecodeFields below):
// the list is the format, so a field added to it is written, read and type-checked
// everywhere the record travels.
#ifndef SRC_CAMPAIGN_JSON_H_
#define SRC_CAMPAIGN_JSON_H_

#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

namespace tsvd::campaign {

class Json {
 public:
  using Array = std::vector<Json>;
  using Object = std::map<std::string, Json>;

  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}
  Json(bool b) : value_(b) {}
  Json(int v) : value_(static_cast<int64_t>(v)) {}
  Json(int64_t v) : value_(v) {}
  Json(uint64_t v) : value_(static_cast<int64_t>(v)) {}
  Json(double v) : value_(v) {}
  Json(const char* s) : value_(std::string(s)) {}
  Json(std::string s) : value_(std::move(s)) {}

  static Json MakeObject() { return Json(Object{}); }
  static Json MakeArray() { return Json(Array{}); }

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(value_); }
  bool is_bool() const { return std::holds_alternative<bool>(value_); }
  bool is_int() const { return std::holds_alternative<int64_t>(value_); }
  bool is_number() const { return is_int() || std::holds_alternative<double>(value_); }
  bool is_string() const { return std::holds_alternative<std::string>(value_); }
  bool is_array() const { return std::holds_alternative<Array>(value_); }
  bool is_object() const { return std::holds_alternative<Object>(value_); }

  bool as_bool() const { return std::get<bool>(value_); }
  // A double outside int64 saturates (NaN reads 0), so no input reaches an
  // undefined cast; ReadField refuses such values instead of clamping them.
  int64_t as_int() const {
    if (is_int()) {
      return std::get<int64_t>(value_);
    }
    const double d = std::get<double>(value_);
    if (d != d) {
      return 0;
    }
    return d >= 0x1p63    ? std::numeric_limits<int64_t>::max()
           : d <= -0x1p63 ? std::numeric_limits<int64_t>::min()
                          : static_cast<int64_t>(d);
  }
  double as_double() const {
    return is_int() ? static_cast<double>(std::get<int64_t>(value_))
                    : std::get<double>(value_);
  }
  const std::string& as_string() const { return std::get<std::string>(value_); }

  // Object access. Set inserts or overwrites; Find returns null when absent (so
  // schema checks can chase paths without exceptions).
  Json& Set(const std::string& key, Json value);
  const Json* Find(const std::string& key) const;
  bool Has(const std::string& key) const { return Find(key) != nullptr; }

  // Array access.
  Json& Push(Json value);
  size_t size() const;
  const Json& at(size_t i) const { return std::get<Array>(value_)[i]; }

  // Serialization. indent > 0 pretty-prints with that many spaces per level.
  std::string Dump(int indent = 0) const;

  // Strict parse of one JSON document (trailing whitespace allowed, nothing else).
  // Returns false on any syntax error.
  static bool Parse(const std::string& text, Json* out);

  static std::string Escape(const std::string& s);

 private:
  explicit Json(Array a) : value_(std::move(a)) {}
  explicit Json(Object o) : value_(std::move(o)) {}

  void DumpTo(std::string* out, int indent, int depth) const;

  std::variant<std::nullptr_t, bool, int64_t, double, std::string, Array, Object> value_;
};

// ---- Typed fields ------------------------------------------------------------------
//
// ReadField reads `key` of an object into *out with one set of rules for every
// record: an absent key keeps *out (formats grow by adding keys); a present value of
// the wrong type fails, and so does a number that is not an integer inside an integral
// field's range (an integral double such as 3.0 or 1e18 is accepted). A uint64_t
// field is written two's-complement as int64 (Json(uint64_t)), so it reads any int64
// literal back bit for bit. On failure `error` (optional) names the key.

namespace json_internal {

template <class T>
struct IsSequence : std::false_type {};
template <class E>
struct IsSequence<std::vector<E>> : std::true_type {};
template <class E>
struct IsSequence<std::set<E>> : std::true_type {};

template <class T>
Json ToJson(const T& value) {
  if constexpr (IsSequence<T>::value) {
    Json array = Json::MakeArray();
    for (const auto& element : value) {
      array.Push(ToJson(element));
    }
    return array;
  } else {
    return Json(value);
  }
}

// Returns nullptr on success, else why `v` does not fit a T.
template <class T>
const char* Assign(const Json& v, T* out) {
  if constexpr (IsSequence<T>::value) {
    if (!v.is_array()) {
      return "is not an array";
    }
    out->clear();
    for (size_t i = 0; i < v.size(); ++i) {
      typename T::value_type element{};
      if (Assign(v.at(i), &element) != nullptr) {
        return "holds a mistyped element";
      }
      out->insert(out->end(), std::move(element));
    }
  } else if constexpr (std::is_same_v<T, bool>) {
    if (!v.is_bool()) {
      return "is not a bool";
    }
    *out = v.as_bool();
  } else if constexpr (std::is_same_v<T, std::string>) {
    if (!v.is_string()) {
      return "is not a string";
    }
    *out = v.as_string();
  } else if (!v.is_number()) {
    return "is not a number";
  } else if constexpr (std::is_floating_point_v<T>) {
    *out = v.as_double();
  } else if (v.is_int()) {
    const int64_t n = v.as_int();
    constexpr bool kTwosComplement = std::is_unsigned_v<T> && sizeof(T) == sizeof(n);
    if (!kTwosComplement && !std::in_range<T>(n)) {
      return "is not an integer in range";
    }
    *out = static_cast<T>(n);
  } else {
    // [min, 2^digits): both bounds are exact doubles, so the cast below is defined.
    constexpr double kLo = static_cast<double>(std::numeric_limits<T>::min());
    constexpr double kHi = 2.0 * static_cast<double>(std::numeric_limits<T>::max() / 2 + 1);
    const double d = v.as_double();
    if (!(d >= kLo && d < kHi) || std::trunc(d) != d) {
      return "is not an integer in range";
    }
    *out = static_cast<T>(d);
  }
  return nullptr;
}

}  // namespace json_internal

template <class T>
bool ReadField(const Json& doc, const char* key, T* out, std::string* error = nullptr) {
  const Json* v = doc.Find(key);
  const char* why = v == nullptr ? nullptr : json_internal::Assign(*v, out);
  if (why != nullptr && error != nullptr) {
    *error = "\"" + std::string(key) + "\" " + why;
  }
  return why == nullptr;
}

// ---- Field lists -------------------------------------------------------------------
//
// A persisted or wire record declares its fields once, as
//
//   template <class V, class... R>
//   static void VisitFields(V&& visit, R&... r) {
//     visit("wire_name", r.member...);
//   }
//
// EncodeFields writes every listed field and DecodeFields reads them back under the
// ReadField rules, stopping at the first bad field. A std::vector or std::set of
// scalars travels as a JSON array. The list is variadic so one walk can visit several
// records in step (DelayCounts::Add sums two). Other fields (enums, nested records)
// stay hand-written next to the call.

template <class Record>
Json EncodeFields(const Record& record) {
  Json doc = Json::MakeObject();
  Record::VisitFields(
      [&doc](const char* key, const auto& value) {
        doc.Set(key, json_internal::ToJson(value));
      },
      record);
  return doc;
}

template <class Record>
bool DecodeFields(const Json& doc, Record* record, std::string* error = nullptr) {
  if (!doc.is_object()) {
    if (error != nullptr) {
      *error = "is not a JSON object";
    }
    return false;
  }
  bool ok = true;
  Record::VisitFields(
      [&](const char* key, auto& field) { ok = ok && ReadField(doc, key, &field, error); },
      *record);
  return ok;
}

}  // namespace tsvd::campaign

#endif  // SRC_CAMPAIGN_JSON_H_
