#include "tensor/env.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <set>

namespace qavat {

namespace {

bool is_digit(char c) { return c >= '0' && c <= '9'; }

std::string fmt_real(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

std::string int_range(long long lo, long long hi) {
  if (hi == std::numeric_limits<long long>::max()) {
    return "an integer >= " + std::to_string(lo);
  }
  return "an integer in [" + std::to_string(lo) + ", " + std::to_string(hi) +
         "]";
}

std::string real_range(double lo, double hi) {
  if (std::isinf(hi)) return "a number >= " + fmt_real(lo);
  return "a number in [" + fmt_real(lo) + ", " + fmt_real(hi) + "]";
}

}  // namespace

bool parse_int(const char* text, long long lo, long long hi, long long* out) {
  if (*text == '\0') return false;
  long long v = 0;
  for (const char* p = text; *p != '\0'; ++p) {
    if (!is_digit(*p)) return false;
    const int d = *p - '0';
    // Checked before the multiply, so the accumulation never overflows.
    if (v > (std::numeric_limits<long long>::max() - d) / 10) return false;
    v = v * 10 + d;
  }
  if (v < lo || v > hi) return false;
  *out = v;
  return true;
}

bool parse_real(const char* text, double lo, double hi, double* out) {
  int digits = 0, dots = 0;
  for (const char* p = text; *p != '\0'; ++p) {
    if (is_digit(*p)) {
      ++digits;
    } else if (*p == '.' && dots == 0) {
      ++dots;
    } else {
      return false;
    }
  }
  if (digits == 0) return false;
  // The grammar above is a subset of strtod's, so it consumes all of it.
  const double v = std::strtod(text, nullptr);
  if (!std::isfinite(v) || v < lo || v > hi) return false;
  *out = v;
  return true;
}

void env_warn(const char* name, const std::string& value,
              const std::string& expected, const std::string& fallback) {
  static std::mutex mu;
  static std::set<std::string> warned;  // guarded by mu
  std::lock_guard<std::mutex> lk(mu);
  if (!warned.insert(name).second) return;
  std::fprintf(stderr, "qavat: ignoring %s=\"%s\" (expected %s); using %s\n",
               name, value.c_str(), expected.c_str(), fallback.c_str());
}

std::string env_text(const char* name, const char* def) {
  const char* v = std::getenv(name);
  return v != nullptr && v[0] != '\0' ? v : def;
}

long long env_int(const char* name, long long def, long long lo,
                  long long hi) {
  const std::string v = env_text(name);
  long long n = def;
  if (!v.empty() && !parse_int(v.c_str(), lo, hi, &n)) {
    env_warn(name, v, int_range(lo, hi), std::to_string(def));
  }
  return n;
}

double env_real(const char* name, double def, double lo, double hi) {
  const std::string v = env_text(name);
  double d = def;
  if (!v.empty() && !parse_real(v.c_str(), lo, hi, &d)) {
    env_warn(name, v, real_range(lo, hi), fmt_real(def));
  }
  return d;
}

bool env_flag(const char* name, bool def) {
  const std::string v = env_text(name);
  if (v == "0" || v == "1") return v == "1";
  if (!v.empty()) env_warn(name, v, "0 or 1", def ? "1" : "0");
  return def;
}

int env_choice(const char* name, std::initializer_list<const char*> tokens,
               int def) {
  const std::string v = env_text(name);
  std::string expected = "one of";
  int i = 0;
  for (const char* t : tokens) {
    if (v == t) return i;
    expected += std::string(i == 0 ? " " : ", ") + t;
    ++i;
  }
  if (!v.empty()) env_warn(name, v, expected, tokens.begin()[def]);
  return def;
}

}  // namespace qavat
