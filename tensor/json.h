// The JSON text codec of the experiment documents. ScenarioSpec,
// LifetimeSpec, FleetStudySpec and SweepManifest all parse and print
// through this one module, so they share one grammar and one set of
// number rules (DESIGN.md §11 lists them).
//
// parse_object() builds a Value tree from the whole document in one pass.
// Numbers keep their source text, so 64-bit integers decode exactly.
// The grammar is RFC 8259 without `null`, string escapes or duplicate
// keys, nested at most kMaxDepth deep. Grammar errors read
// "<path>: malformed JSON (<what>)", where <path> names the member being
// parsed ("specs[2].train.lr"; empty at the root).
//
// The typed readers decode one member of an object. Each fails on a
// present-but-invalid member, naming it as "<prefix><name>: <what>" in
// *err (first failure wins), and keeps the destination when the member
// is absent, so decoders chain them and keep defaults.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace qavat {
namespace json {

/// Deepest container nesting parse_object() accepts. to_json() output nests at
/// most 5 deep (manifest > specs > spec > train > noise).
inline constexpr int kMaxDepth = 64;

/// One parsed JSON value.
struct Value {
  /// The value's JSON type.
  enum Kind { kBool, kNum, kStr, kArr, kObj } kind = kNum;
  bool b = false;                     ///< kBool: the value
  std::string text;                   ///< kNum: source text; kStr: value
  std::vector<Value> items;           ///< kArr: elements in order
  std::map<std::string, Value> obj;   ///< kObj: members (keys unique)

  /// Member `name` of an object, or nullptr when absent (or not an
  /// object).
  const Value* find(const char* name) const;
};

/// Parse a whole document, whose root must be an object, into *out.
/// Returns false, with *error (optional) set if it is empty, on any
/// grammar error, on characters after the root value or on a non-object
/// root; *out is left untouched on failure.
bool parse_object(const std::string& text, Value* out, std::string* error);

/// Record "<prefix><name>: <what>" into *err unless it already holds an
/// error; always returns false, so readers can `return fail_field(...)`.
bool fail_field(std::string* err, const char* prefix, const char* name,
                const std::string& what);

/// Read a finite double. Rejects a non-number and a value that
/// overflows a double.
bool read_num(const Value& o, const char* name, double* dst, std::string* err,
              const char* prefix = "");

/// Read a signed 64-bit integer. Rejects a non-number, a fraction or
/// exponent, and a value outside the range of index_t.
bool read_index(const Value& o, const char* name, index_t* dst,
                std::string* err, const char* prefix = "");

/// Read an unsigned 64-bit integer. Rejects everything read_index does,
/// a sign, and a value above 2^64 - 1.
bool read_u64(const Value& o, const char* name, std::uint64_t* dst,
              std::string* err, const char* prefix = "");

/// Read a `true`/`false` literal.
bool read_bool(const Value& o, const char* name, bool* dst, std::string* err,
               const char* prefix = "");

/// Check the required schema-version member `name` against `expected`.
/// Fails with "missing or not a number" or "version mismatch: expected
/// <expected>, got <text>"; only the exact integer text matches.
bool read_schema(const Value& o, const char* name, int expected,
                 std::string* err);

/// Enum-token reader: `tokens`/`values` are parallel lists; an absent
/// field keeps the default, an unknown token is named in the error.
template <typename E>
bool read_enum(const Value& o, const char* name,
               std::initializer_list<const char*> tokens,
               std::initializer_list<E> values, E* dst, std::string* err,
               const char* prefix = "") {
  const Value* v = o.find(name);
  if (v == nullptr) return true;
  if (v->kind != Value::kStr) {
    return fail_field(err, prefix, name, "expected a string");
  }
  auto tok = tokens.begin();
  auto val = values.begin();
  for (; tok != tokens.end(); ++tok, ++val) {
    if (v->text == *tok) {
      *dst = *val;
      return true;
    }
  }
  return fail_field(err, prefix, name, "unknown token '" + v->text + "'");
}

/// Append the member `"k":v` to `out`, quoting `v` when `quote`, and a
/// trailing comma unless `last`. `v` is written verbatim (no escaping).
void json_kv(std::string& out, const char* k, const std::string& v, bool quote,
             bool last = false);

/// Canonical double formatting for keys ("%.12g"): stable, short, no
/// locale.
std::string fmt_g(double v);

/// Round-trip-exact double formatting for JSON ("%.17g").
std::string fmt_exact(double v);

/// Decimal text of an index_t.
std::string lld(index_t v);

}  // namespace json
}  // namespace qavat
