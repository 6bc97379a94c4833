#include "tensor/json.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <type_traits>

namespace qavat {
namespace json {

namespace {

bool is_digit(char c) { return c >= '0' && c <= '9'; }

// Characters that may appear in a number token. The parser takes the
// longest run of them and then checks the whole run against the RFC 8259
// grammar, so "1-2" is one bad token rather than a 1 followed by junk.
bool is_number_char(char c) {
  return is_digit(c) || c == '-' || c == '+' || c == '.' || c == 'e' ||
         c == 'E';
}

// -? (0 | [1-9][0-9]*) (.[0-9]+)? ([eE][+-]?[0-9]+)?
bool is_rfc_number(const std::string& t) {
  std::size_t i = 0;
  const std::size_t n = t.size();
  auto digits = [&]() {
    const std::size_t start = i;
    while (i < n && is_digit(t[i])) ++i;
    return i > start;
  };
  if (i < n && t[i] == '-') ++i;
  if (i < n && t[i] == '0') {
    ++i;
  } else if (!digits()) {
    return false;
  }
  if (i < n && t[i] == '.') {
    ++i;
    if (!digits()) return false;
  }
  if (i < n && (t[i] == 'e' || t[i] == 'E')) {
    ++i;
    if (i < n && (t[i] == '+' || t[i] == '-')) ++i;
    if (!digits()) return false;
  }
  return i == n;
}

// Record "<path>: malformed JSON (<what>)" unless *err holds an error.
bool malformed(std::string* err, const std::string& path,
               const std::string& what) {
  if (err != nullptr && err->empty()) {
    *err = (path.empty() ? "" : path + ": ") + "malformed JSON (" + what + ")";
  }
  return false;
}

// Recursive-descent parser over [p, end). `path` is the dotted name of
// the value being parsed, for error messages only.
struct Parser {
  const char* p;
  const char* end;
  std::string* err;

  void skip_ws() {
    while (p < end && (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r')) {
      ++p;
    }
  }

  // Skip whitespace, then consume `c` if it is next.
  bool eat(char c) {
    skip_ws();
    if (p == end || *p != c) return false;
    ++p;
    return true;
  }

  bool literal(const char* word) {
    const std::size_t n = std::strlen(word);
    if (static_cast<std::size_t>(end - p) < n || std::memcmp(p, word, n) != 0) {
      return false;
    }
    p += n;
    return true;
  }

  bool string(const std::string& path, std::string* out) {
    if (!eat('"')) return malformed(err, path, "expected a string");
    const char* start = p;
    for (; p < end && *p != '"'; ++p) {
      // to_json never emits escapes; control characters are never legal.
      if (*p == '\\' || static_cast<unsigned char>(*p) < 0x20) {
        return malformed(err, path, "escape or control character in string");
      }
    }
    if (p == end) return malformed(err, path, "unterminated string");
    out->assign(start, static_cast<std::size_t>(p - start));
    ++p;
    return true;
  }

  bool value(const std::string& path, int depth, Value* out) {
    skip_ws();
    if (p == end) return malformed(err, path, "unexpected end of input");
    if ((*p == '{' || *p == '[') && depth >= kMaxDepth) {
      return malformed(err, path, "nesting deeper than " +
                                      std::to_string(kMaxDepth) + " levels");
    }
    if (eat('{')) {
      out->kind = Value::kObj;
      if (eat('}')) return true;
      do {
        std::string key;
        if (!string(path, &key)) return false;
        const std::string member = path.empty() ? key : path + "." + key;
        if (!eat(':')) return malformed(err, member, "expected ':'");
        Value child;
        if (!value(member, depth + 1, &child)) return false;
        if (!out->obj.emplace(key, std::move(child)).second) {
          return malformed(err, member, "duplicate key");
        }
      } while (eat(','));
      return eat('}') || malformed(err, path, "expected ',' or '}'");
    }
    if (eat('[')) {
      out->kind = Value::kArr;
      if (eat(']')) return true;
      do {
        out->items.emplace_back();
        const std::string item =
            path + "[" + std::to_string(out->items.size() - 1) + "]";
        if (!value(item, depth + 1, &out->items.back())) return false;
      } while (eat(','));
      return eat(']') || malformed(err, path, "expected ',' or ']'");
    }
    if (*p == '"') {
      out->kind = Value::kStr;
      return string(path, &out->text);
    }
    const bool is_true = literal("true");
    if (is_true || literal("false")) {
      out->kind = Value::kBool;
      out->b = is_true;
      return true;
    }
    if (!is_number_char(*p)) {
      return malformed(err, path, "unexpected character");
    }
    const char* start = p;
    while (p < end && is_number_char(*p)) ++p;
    out->kind = Value::kNum;
    out->text.assign(start, static_cast<std::size_t>(p - start));
    return is_rfc_number(out->text) ||
           malformed(err, path, "bad number '" + out->text + "'");
  }
};

// Shared body of read_index and read_u64. Integer fields take plain
// integer text only (no fraction or exponent) that fits T; unsigned
// fields also refuse a sign, which strtoull would silently wrap.
template <typename T>
bool read_integer(const Value& o, const char* name, T* dst, std::string* err,
                  const char* prefix) {
  const Value* v = o.find(name);
  if (v == nullptr) return true;
  if (v->kind != Value::kNum) {
    return fail_field(err, prefix, name, "expected an integer");
  }
  const bool is_unsigned = std::is_unsigned<T>::value;
  if (v->text.find_first_of(".eE") != std::string::npos ||
      (is_unsigned && v->text[0] == '-')) {
    return fail_field(err, prefix, name,
                      std::string(is_unsigned ? "expected an unsigned integer"
                                              : "expected an integer") +
                          ", got '" + v->text + "'");
  }
  errno = 0;
  const T x = is_unsigned ? static_cast<T>(std::strtoull(v->text.c_str(),
                                                         nullptr, 10))
                          : static_cast<T>(std::strtoll(v->text.c_str(),
                                                        nullptr, 10));
  if (errno == ERANGE) {
    return fail_field(err, prefix, name,
                      "integer out of range '" + v->text + "'");
  }
  *dst = x;
  return true;
}

}  // namespace

const Value* Value::find(const char* name) const {
  auto it = obj.find(name);
  return it == obj.end() ? nullptr : &it->second;
}

bool parse_object(const std::string& text, Value* out, std::string* error) {
  Parser ps{text.data(), text.data() + text.size(), error};
  Value root;
  if (!ps.value("", 0, &root)) return false;
  ps.skip_ws();
  if (ps.p != ps.end) return malformed(error, "", "trailing characters");
  if (root.kind != Value::kObj) {
    return malformed(error, "", "expected an object");
  }
  *out = std::move(root);
  return true;
}

bool fail_field(std::string* err, const char* prefix, const char* name,
                const std::string& what) {
  if (err != nullptr && err->empty()) {
    *err = std::string(prefix) + name + ": " + what;
  }
  return false;
}

bool read_num(const Value& o, const char* name, double* dst, std::string* err,
              const char* prefix) {
  const Value* v = o.find(name);
  if (v == nullptr) return true;
  if (v->kind != Value::kNum) {
    return fail_field(err, prefix, name, "expected a number");
  }
  const double d = std::strtod(v->text.c_str(), nullptr);
  if (!std::isfinite(d)) {
    return fail_field(err, prefix, name,
                      "number out of range '" + v->text + "'");
  }
  *dst = d;
  return true;
}

bool read_index(const Value& o, const char* name, index_t* dst,
                std::string* err, const char* prefix) {
  return read_integer(o, name, dst, err, prefix);
}

bool read_u64(const Value& o, const char* name, std::uint64_t* dst,
              std::string* err, const char* prefix) {
  return read_integer(o, name, dst, err, prefix);
}

bool read_bool(const Value& o, const char* name, bool* dst, std::string* err,
               const char* prefix) {
  const Value* v = o.find(name);
  if (v == nullptr) return true;
  if (v->kind != Value::kBool) {
    return fail_field(err, prefix, name, "expected true or false");
  }
  *dst = v->b;
  return true;
}

bool read_schema(const Value& o, const char* name, int expected,
                 std::string* err) {
  const Value* v = o.find(name);
  if (v == nullptr || v->kind != Value::kNum) {
    return fail_field(err, "", name, "missing or not a number");
  }
  if (v->text != std::to_string(expected)) {
    return fail_field(err, "", name,
                      "version mismatch: expected " + std::to_string(expected) +
                          ", got " + v->text);
  }
  return true;
}

void json_kv(std::string& out, const char* k, const std::string& v, bool quote,
             bool last) {
  out += '"';
  out += k;
  out += "\":";
  if (quote) out += '"';
  out += v;
  if (quote) out += '"';
  if (!last) out += ',';
}

std::string fmt_g(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

std::string fmt_exact(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string lld(index_t v) { return std::to_string(static_cast<long long>(v)); }

}  // namespace json
}  // namespace qavat
