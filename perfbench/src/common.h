// Shared plumbing of the qavat benchmark: the span tracer, the metric
// report, run-outcome accounting, wall-clock helpers, workload-seed
// derivation and private-store handling. Everything here sits OUTSIDE
// the library: spans wrap calls into the library's public entry points,
// they never reach inside it.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// ------------------------------------------------------------------ time

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median of `xs` (0 for an empty vector).
double median(std::vector<double> xs);

/// Time `fn` after one untimed warm-up call: repeat until at least
/// `min_reps` calls and `min_seconds` of measured time, and return the
/// median seconds per call.
double time_median(const std::function<void()>& fn, int min_reps,
                   double min_seconds);

// --------------------------------------------------------------- tracing

/// One recorded span: a call into one layer, with the span that caused it.
struct SpanRecord {
  std::string layer;  ///< layer name, e.g. "runner", "tensor"
  std::string name;   ///< what was called, e.g. "run_all.cold"
  double start_s = 0.0;  ///< seconds since the tracer was enabled
  double end_s = 0.0;
  int parent = -1;       ///< index of the enclosing span, -1 for a root
};

/// In-memory span recorder for the traced run. Spans are opened and
/// closed on the benchmark's main thread only (the library's own worker
/// threads are never traced), so a stack gives every span its parent.
/// Disabled, opening a span costs one branch.
class Tracer {
 public:
  void enable(bool on);
  bool enabled() const { return on_; }
  int open(const char* layer, std::string name);
  void close(int id);
  const std::vector<SpanRecord>& spans() const { return spans_; }
  /// Per-layer self time: each span's duration minus the time its direct
  /// children cover, summed by layer.
  std::map<std::string, double> self_seconds() const;
  /// Write every span as JSON; returns false on an I/O failure.
  bool write_json(const std::string& path) const;

 private:
  bool on_ = false;
  Clock::time_point t0_;
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
};

/// The process-wide tracer.
Tracer& tracer();

/// RAII span around one call into a layer; a no-op while tracing is off.
class Span {
 public:
  Span(const char* layer, std::string name)
      : id_(tracer().enabled() ? tracer().open(layer, std::move(name)) : -1) {}
  ~Span() {
    if (id_ >= 0) tracer().close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int id_;
};

// ---------------------------------------------------------------- report

/// Ordered name -> (value, unit) metric list, printed as the result JSON.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  /// `{"name": {"value": v, "unit": "u"}, ...}` with round-trip digits.
  std::string to_json() const;

 private:
  std::vector<std::string> order_;
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// Attempted/failed operation counts of one run. An operation is a
/// scenario, an eval or a fleet window; it fails if it throws or fails
/// its output check. Failures are also logged to stderr.
struct Outcome {
  long long attempted = 0;
  long long failed = 0;

  /// Count `n` operations, all failed when `ok` is false.
  void check(bool ok, long long n, const std::string& what);
};

// ------------------------------------------------------------------ seeds

/// Deterministic 31-bit seed for (`seed`, `tag`, `sub`): the workload
/// seed fans out into every spec seed through this one function.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag,
                          std::uint64_t sub = 0);

// ------------------------------------------------------------------ store

/// Point the artifact store at a fresh, empty private directory under the
/// run's scratch root (QAVAT_STORE_DIR) and enable it. Returns the path.
std::string use_fresh_store(const std::string& scratch_root,
                            const std::string& tag);

/// Disable the artifact store (QAVAT_STORE=0).
void disable_store();

/// Copy every file of `bucket` from store root `from` into store root
/// `to` (same fast/full namespace).
void copy_store_bucket(const std::string& from, const std::string& to,
                            const char* bucket);

/// On-disk path of the artifact for (bucket, key) under the active store.
std::string store_artifact_path(const char* bucket, const std::string& key);

/// Size in bytes of a file, 0 when it does not exist.
long long file_bytes(const std::string& path);

}  // namespace perfbench
