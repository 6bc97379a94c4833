// Tiny assertion harness for the tier-1 unit tests: CHECK records a
// failure and keeps going; the test main returns nonzero if anything
// failed so ctest reports it.
#pragma once

#include <cmath>
#include <cstdio>
#include <string>

namespace qavat {
namespace test {

inline int failures = 0;

#define CHECK(cond)                                                     \
  do {                                                                  \
    if (!(cond)) {                                                      \
      std::printf("FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond);       \
      ++qavat::test::failures;                                          \
    }                                                                   \
  } while (0)

#define CHECK_NEAR(a, b, tol)                                           \
  do {                                                                  \
    const double a_ = (a), b_ = (b), tol_ = (tol);                      \
    if (!(std::fabs(a_ - b_) <= tol_)) {                                \
      std::printf("FAIL %s:%d: |%s - %s| = |%g - %g| > %g\n", __FILE__, \
                  __LINE__, #a, #b, a_, b_, tol_);                      \
      ++qavat::test::failures;                                          \
    }                                                                   \
  } while (0)

/// `depth` copies of `open`, a 1, then `depth` copies of `close`: with
/// open = "{\"a\":" and close = "}", a document nested far deeper than
/// any decoder accepts, to probe that none exhausts its stack.
inline std::string nested_json(const char* open, const char* close,
                               int depth) {
  std::string s;
  for (int i = 0; i < depth; ++i) s += open;
  s += "1";
  for (int i = 0; i < depth; ++i) s += close;
  return s;
}

inline int finish(const char* name) {
  if (qavat::test::failures == 0) {
    std::printf("%s: all checks passed\n", name);
    return 0;
  }
  std::printf("%s: %d check(s) FAILED\n", name, qavat::test::failures);
  return 1;
}

}  // namespace test
}  // namespace qavat
