// The one reader of outside text (tensor/env.h): every value kind run
// through the same table of inputs, the flag and choice rules, the
// once-per-variable warning, and the knobs that read through it —
// including the claim backoff, whose huge values used to overflow the
// waiter's shift and divide by zero.
#include <unistd.h>

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "eval/evaluator.h"
#include "eval/store.h"
#include "tensor/env.h"
#include "tensor/parallel_for.h"
#include "tests/test_common.h"

using namespace qavat;
namespace fs = std::filesystem;

namespace {

// Everything fn writes to stderr (fd 2) while it runs.
std::string capture_stderr(const std::function<void()>& fn) {
  std::fflush(stderr);
  std::FILE* tmp = std::tmpfile();
  const int saved = ::dup(2);
  ::dup2(::fileno(tmp), 2);
  fn();
  std::fflush(stderr);
  ::dup2(saved, 2);
  ::close(saved);
  std::rewind(tmp);
  std::string out;
  char buf[256];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), tmp)) > 0) out.append(buf, n);
  std::fclose(tmp);
  return out;
}

void set(const char* name, const char* value) {
  if (value == nullptr) {
    ::unsetenv(name);
  } else {
    ::setenv(name, value, 1);
  }
}

// One row per input; nullptr is "unset". `value` is the reader's
// result: the parsed value when `valid`, else the default.
template <typename T>
struct Row {
  const char* text;
  bool valid;  // parses and lies in range
  T value;
};

// The shared input table, read as an integer >= 1 (QAVAT_CHIP_BATCH,
// default 8), an integer in [0, 2000] (QAVAT_CLAIM_BACKOFF_MS, default
// 25) and a real >= 0 (QAVAT_CLAIM_TTL_S, default 120).
void test_value_table() {
  const std::vector<Row<long long>> as_count = {
      {nullptr, false, 8}, {"", false, 8}, {"5", true, 5},
      {"abc", false, 8}, {"5x", false, 8}, {"-1", false, 8},
      {"1.5", false, 8}, {"9223372036854775807", true, LLONG_MAX},
      {"99999999999999999999", false, 8}, {"0", false, 8},
      {" 5", false, 8}, {"+5", false, 8}};
  for (const Row<long long>& r : as_count) {
    set("QAVAT_CHIP_BATCH", r.text);
    CHECK(chip_batch_from_env() == r.value);
    long long n = -7;
    if (r.text != nullptr) {
      CHECK(parse_int(r.text, 1, LLONG_MAX, &n) == r.valid);
      CHECK(n == (r.valid ? r.value : -7));
    }
  }
  ::unsetenv("QAVAT_CHIP_BATCH");

  const std::vector<Row<long long>> as_backoff = {
      {nullptr, false, 25}, {"", false, 25}, {"5", true, 5},
      {"abc", false, 25}, {"5x", false, 25}, {"-1", false, 25},
      {"1.5", false, 25}, {"9223372036854775807", false, 25},
      {"99999999999999999999", false, 25}, {"0", true, 0},
      {"2000", true, 2000}, {"2001", false, 25}};
  for (const Row<long long>& r : as_backoff) {
    set("QAVAT_CLAIM_BACKOFF_MS", r.text);
    CHECK(store_claim_backoff_ms() == r.value);
  }
  ::unsetenv("QAVAT_CLAIM_BACKOFF_MS");

  const std::vector<Row<double>> as_seconds = {
      {nullptr, false, 120}, {"", false, 120}, {"5", true, 5},
      {"abc", false, 120}, {"5x", false, 120}, {"-1", false, 120},
      {"1.5", true, 1.5},
      {"9223372036854775807", true, 9223372036854775807.0},
      {"99999999999999999999", true, 1e20}, {"0", true, 0},
      {".5", true, 0.5}, {"1e3", false, 120}, {"1.2.3", false, 120},
      {".", false, 120}, {"inf", false, 120}, {"nan", false, 120}};
  for (const Row<double>& r : as_seconds) {
    set("QAVAT_CLAIM_TTL_S", r.text);
    CHECK(store_claim_ttl_seconds() == r.value);
    double d = -7.0;
    if (r.text != nullptr) {
      CHECK(parse_real(r.text, 0.0, 1e300, &d) == r.valid);
      CHECK(d == (r.valid ? r.value : -7.0));
    }
  }
  ::unsetenv("QAVAT_CLAIM_TTL_S");

  // Integer edges: the largest long long parses, one more overflows; a
  // real too large for a double is not finite.
  long long n = 0;
  CHECK(parse_int("9223372036854775807", 0, LLONG_MAX, &n) &&
        n == LLONG_MAX);
  CHECK(!parse_int("9223372036854775808", 0, LLONG_MAX, &n));
  double d = 0.0;
  CHECK(!parse_real(std::string(400, '9').c_str(), 0.0, 1e300, &d));
  CHECK(!parse_real(std::string(400, '9').c_str(), 0.0,
                    std::numeric_limits<double>::infinity(), &d));
}

// The thread budget: an integer in [1, 512], else hardware_concurrency.
void test_threads() {
  const unsigned hc = std::thread::hardware_concurrency();
  const index_t def = hc > 0 ? static_cast<index_t>(hc) : 1;
  const std::vector<std::pair<const char*, index_t>> rows = {
      {"4", 4}, {"512", 512}, {"1", 1}, {"513", def}, {"0", def},
      {"4x", def}, {"-1", def}, {"1.5", def}, {"", def}};
  for (const auto& r : rows) {
    ::setenv("QAVAT_THREADS", r.first, 1);
    set_num_threads(0);  // unpin: the next read re-resolves the variable
    CHECK(num_threads() == r.second);
  }
  ::unsetenv("QAVAT_THREADS");
  set_num_threads(0);
}

// Flags are exactly "0" or "1"; anything else is the default.
void test_flags() {
  const std::vector<std::pair<const char*, bool>> store_rows = {
      {nullptr, true}, {"", true}, {"0", false}, {"1", true},
      {"false", true}, {"01", true}, {"yes", true}, {"0 ", true}};
  for (const auto& r : store_rows) {
    set("QAVAT_STORE", r.first);
    CHECK(store_enabled() == r.second);
  }
  ::setenv("QAVAT_STORE", "0", 1);
  const std::string fast = env_text("QAVAT_FAST");
  for (const auto& r : std::vector<std::pair<const char*, bool>>{
           {nullptr, false}, {"", false}, {"0", false}, {"1", true},
           {"false", false}, {"01", false}, {"true", false}}) {
    set("QAVAT_FAST", r.first);
    CHECK(env_flag("QAVAT_FAST", false) == r.second);
  }
  set("QAVAT_FAST", fast.empty() ? nullptr : fast.c_str());
}

// A choice is exactly one of its tokens.
void test_backend_tokens() {
  const std::vector<std::pair<const char*, EvalBackend>> rows = {
      {nullptr, EvalBackend::kWeightDomain},
      {"", EvalBackend::kWeightDomain},
      {"weight_domain", EvalBackend::kWeightDomain},
      {"circuit", EvalBackend::kCircuit},
      {"int8", EvalBackend::kInt8},
      {"Circuit", EvalBackend::kWeightDomain},
      {"int8 ", EvalBackend::kWeightDomain},
      {"circuitx", EvalBackend::kWeightDomain},
      {"abc", EvalBackend::kWeightDomain}};
  for (const auto& r : rows) {
    set("QAVAT_EVAL_BACKEND", r.first);
    CHECK(eval_backend_from_env() == r.second);
  }
  ::unsetenv("QAVAT_EVAL_BACKEND");
}

// Malformed values warn once per variable per process, in one format,
// even when several threads read the variable at once.
void test_warn_once() {
  ::setenv("QAVAT_CLAIM_TTL_S", "1x", 1);
  const std::string ttl = capture_stderr([] {
    CHECK(store_claim_ttl_seconds() == 120.0);
    CHECK(store_claim_ttl_seconds() == 120.0);
  });
  CHECK(ttl ==
        "qavat: ignoring QAVAT_CLAIM_TTL_S=\"1x\" (expected a number >= 0); "
        "using 120\n");
  ::unsetenv("QAVAT_CLAIM_TTL_S");

  ::setenv("QAVAT_CLAIM_BACKOFF_MS", "abc", 1);
  const std::string backoff = capture_stderr([] {
    std::vector<std::thread> readers;
    for (int t = 0; t < 4; ++t) {
      readers.emplace_back([] {
        for (int i = 0; i < 50; ++i) CHECK(store_claim_backoff_ms() == 25);
      });
    }
    for (std::thread& r : readers) r.join();
  });
  CHECK(backoff ==
        "qavat: ignoring QAVAT_CLAIM_BACKOFF_MS=\"abc\" (expected an integer "
        "in [0, 2000]); using 25\n");
  ::unsetenv("QAVAT_CLAIM_BACKOFF_MS");

  ::setenv("QAVAT_EVAL_BACKEND", "cirquit", 1);
  const std::string backend =
      capture_stderr([] { (void)eval_backend_from_env(); });
  CHECK(backend ==
        "qavat: ignoring QAVAT_EVAL_BACKEND=\"cirquit\" (expected one of "
        "weight_domain, circuit, int8); using weight_domain\n");
  ::unsetenv("QAVAT_EVAL_BACKEND");
}

// A huge base backoff used to overflow `ms << shift` and then divide by
// zero in the jitter: now it is out of range, so the default is used and
// the wait returns.
void test_huge_backoff() {
  ::setenv("QAVAT_CLAIM_BACKOFF_MS", "9223372036854775807", 1);
  CHECK(store_claim_backoff_ms() == 25);
  store_claim_backoff_wait(1);
  store_claim_backoff_wait(2);
  ::unsetenv("QAVAT_CLAIM_BACKOFF_MS");
}

// QAVAT_STORE_FAULT's ":N" is an integer >= 1; a bad entry is skipped
// instead of firing at the first operation.
void test_fault_count() {
  const fs::path dir =
      fs::temp_directory_path() /
      ("qavat_test_env_" + std::to_string(::getpid()));
  ::setenv("QAVAT_STORE_DIR", dir.c_str(), 1);
  ::setenv("QAVAT_STORE", "1", 1);
  for (const char* bad : {"enospc:0", "enospc:x", "enospc:-1", "enospc:",
                          "enospc:99999999999999999999", "enosp:1"}) {
    ::setenv("QAVAT_STORE_FAULT", bad, 1);
    store_fault_reload();
    CHECK(store_save_doubles("results", "test_env_fault", {1.0}));
  }
  ::setenv("QAVAT_STORE_FAULT", "enospc:2", 1);
  store_fault_reload();
  CHECK(store_save_doubles("results", "test_env_fault", {1.0}));
  CHECK(!store_save_doubles("results", "test_env_fault", {1.0}));
  ::unsetenv("QAVAT_STORE_FAULT");
  store_fault_reload();
  ::setenv("QAVAT_STORE", "0", 1);
  std::error_code ec;
  fs::remove_all(dir, ec);
}

}  // namespace

int main() {
  test_warn_once();  // first: each variable warns only once per process
  test_value_table();
  test_threads();
  test_flags();
  test_backend_tokens();
  test_huge_backoff();
  test_fault_count();
  return qavat::test::finish("test_env");
}
