#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <system_error>

#include "eval/experiment.h"
#include "eval/store.h"

namespace fs = std::filesystem;

namespace perfbench {

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double time_median(const std::function<void()>& fn, int min_reps,
                   double min_seconds) {
  fn();  // warm-up: sizes scratch, faults pages, starts the pool
  std::vector<double> samples;
  double total = 0.0;
  while (static_cast<int>(samples.size()) < min_reps || total < min_seconds) {
    const auto t0 = Clock::now();
    fn();
    samples.push_back(seconds_since(t0));
    total += samples.back();
  }
  return median(std::move(samples));
}

// ---------------------------------------------------------------- tracer

Tracer& tracer() {
  static Tracer t;
  return t;
}

void Tracer::enable(bool on) {
  if (on && !on_ && spans_.empty()) t0_ = Clock::now();
  on_ = on;
}

int Tracer::open(const char* layer, std::string name) {
  SpanRecord r;
  r.layer = layer;
  r.name = std::move(name);
  r.start_s = seconds_since(t0_);
  r.parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back(std::move(r));
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void Tracer::close(int id) {
  spans_[static_cast<std::size_t>(id)].end_s = seconds_since(t0_);
  // Spans are strictly nested (RAII on one thread): the closing span is
  // the top of the stack.
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

std::map<std::string, double> Tracer::self_seconds() const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const SpanRecord& s : spans_) {
    if (s.parent >= 0) {
      child[static_cast<std::size_t>(s.parent)] += s.end_s - s.start_s;
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    self[s.layer] += std::max(0.0, (s.end_s - s.start_s) - child[i]);
  }
  return self;
}

bool Tracer::write_json(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  os << "{\"spans\":[";
  char buf[96];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::snprintf(buf, sizeof(buf), "\"start_s\":%.9f,\"end_s\":%.9f,\"parent\":%d",
                  s.start_s, s.end_s, s.parent);
    os << (i == 0 ? "\n" : ",\n") << "{\"id\":" << i << ",\"layer\":\""
       << s.layer << "\",\"name\":\"" << s.name << "\"," << buf << "}";
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

// ---------------------------------------------------------------- report

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  if (values_.find(name) == values_.end()) order_.push_back(name);
  values_[name] = {value, unit};
}

std::string Report::to_json() const {
  std::string o = "{";
  char buf[64];
  for (std::size_t i = 0; i < order_.size(); ++i) {
    const auto& v = values_.at(order_[i]);
    // Non-finite values are not JSON; they can only come from a broken
    // measurement, which the caller has already counted as a failure.
    const double x = std::isfinite(v.first) ? v.first : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", x);
    o += (i == 0 ? "\"" : ", \"") + order_[i] + "\": {\"value\": " + buf +
         ", \"unit\": \"" + v.second + "\"}";
  }
  return o + "}";
}

void Outcome::check(bool ok, long long n, const std::string& what) {
  attempted += n;
  if (!ok) {
    failed += n;
    std::fprintf(stderr, "[perfbench] CHECK FAILED: %s\n", what.c_str());
  }
}

// ----------------------------------------------------------------- seeds

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag,
                          std::uint64_t sub) {
  // splitmix64 finalizer over the mixed inputs; 31 bits keep every seed
  // exactly representable wherever the library stores it as a double.
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + tag * 0xBF58476D1CE4E5B9ull +
                    sub * 0x94D049BB133111EBull + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  z ^= z >> 31;
  return (z & 0x7fffffffull) | 1ull;
}

// ----------------------------------------------------------------- store

std::string use_fresh_store(const std::string& scratch_root,
                            const std::string& tag) {
  const fs::path dir = fs::path(scratch_root) / ("store-" + tag);
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  setenv("QAVAT_STORE_DIR", dir.c_str(), 1);
  setenv("QAVAT_STORE", "1", 1);
  return dir.string();
}

void disable_store() { setenv("QAVAT_STORE", "0", 1); }

void copy_store_bucket(const std::string& from, const std::string& to,
                       const char* bucket) {
  const std::string rel = "v" + std::to_string(qavat::kStoreSchemaVersion) +
                          (qavat::fast_mode() ? "/fast/" : "/full/") + bucket;
  const fs::path src = fs::path(from) / rel;
  const fs::path dst = fs::path(to) / rel;
  std::error_code ec;
  fs::create_directories(dst, ec);
  for (const auto& e : fs::directory_iterator(src, ec)) {
    if (!e.is_regular_file()) continue;
    fs::copy_file(e.path(), dst / e.path().filename(),
                  fs::copy_options::overwrite_existing, ec);
  }
}

std::string store_artifact_path(const char* bucket, const std::string& key) {
  return qavat::store_root() + "/v" +
         std::to_string(qavat::kStoreSchemaVersion) +
         (qavat::fast_mode() ? "/fast/" : "/full/") + bucket + "/" +
         qavat::store_key_filename(key);
}

long long file_bytes(const std::string& path) {
  std::error_code ec;
  const auto n = fs::file_size(path, ec);
  return ec ? 0 : static_cast<long long>(n);
}

}  // namespace perfbench
