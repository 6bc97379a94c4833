#include "eval/store.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <mutex>
#include <sstream>
#include <system_error>
#include <thread>
#include <vector>

#include "eval/experiment.h"  // fast_mode(): the budget namespace
#include "tensor/env.h"

namespace qavat {

namespace fs = std::filesystem;

namespace {

// Results are tiny text files; this cap only guards against reading a
// mislabeled giant file into memory.
constexpr std::uintmax_t kMaxDoublesFileBytes = 1u << 24;

// ------------------------------------------------------------ statistics

struct StatsImpl {
  std::atomic<long long> writes_failed{0};
  std::atomic<long long> loads_corrupt{0};
  std::atomic<long long> claims_reclaimed{0};
  std::atomic<long long> retrains_after_corruption{0};
  std::atomic<long long> tmp_swept{0};
  std::atomic<long long> faults_injected{0};
};

StatsImpl& stats() {
  static StatsImpl s;
  return s;
}

// Counter bump + single-shot stderr warning (the old warn_write_failure
// flag became the writes_failed counter; the 0->1 transition still
// warns so an unwritable store is loud even without a summary line).
void note_write_failure(const std::string& path) {
  if (stats().writes_failed.fetch_add(1) == 0) {
    std::fprintf(stderr,
                 "qavat: artifact store write failed (%s); persistence is off "
                 "for the unwritable paths (set QAVAT_STORE=0 to silence)\n",
                 path.c_str());
  }
}

// ------------------------------------------------------ fault injection

constexpr int kNumFaultKinds = 4;

struct ArmedFault {
  StoreFault kind;
  long long at = 1;    // fire on the at-th matching operation
  bool fired = false;  // each armed entry fires once
};

struct FaultState {
  std::mutex mu;
  bool parsed = false;
  std::vector<ArmedFault> armed;
  long long op_count[kNumFaultKinds] = {0, 0, 0, 0};
};

FaultState& fault_state() {
  static FaultState st;
  return st;
}

bool parse_fault_kind(const std::string& tok, StoreFault* kind) {
  if (tok == "kill_before_rename") *kind = StoreFault::kKillBeforeRename;
  else if (tok == "torn_write") *kind = StoreFault::kTornWrite;
  else if (tok == "enospc") *kind = StoreFault::kEnospc;
  else if (tok == "corrupt_read") *kind = StoreFault::kCorruptRead;
  else return false;
  return true;
}

// Parse QAVAT_STORE_FAULT under st.mu. A bad entry is skipped with the
// one-time warning (a typo must not silently disable the whole spec).
void parse_faults_locked(FaultState& st) {
  st.parsed = true;
  st.armed.clear();
  for (int i = 0; i < kNumFaultKinds; ++i) st.op_count[i] = 0;
  std::istringstream is(env_text("QAVAT_STORE_FAULT"));
  std::string entry;
  while (std::getline(is, entry, ',')) {
    if (entry.empty()) continue;
    const std::size_t colon = entry.find(':');
    ArmedFault f;
    if (!parse_fault_kind(entry.substr(0, colon), &f.kind) ||
        (colon != std::string::npos &&
         !parse_int(entry.c_str() + colon + 1, 1,
                    std::numeric_limits<long long>::max(), &f.at))) {
      env_warn("QAVAT_STORE_FAULT", entry,
               "kill_before_rename, torn_write, enospc or corrupt_read, "
               "optionally with :N for an integer N >= 1",
               "none");
      continue;
    }
    st.armed.push_back(f);
  }
}

// One potential fault site: counts the operation and reports whether an
// armed entry fires here.
bool fault_fire(StoreFault kind) {
  FaultState& st = fault_state();
  std::lock_guard<std::mutex> lk(st.mu);
  if (!st.parsed) parse_faults_locked(st);
  if (st.armed.empty()) return false;
  const long long n = ++st.op_count[static_cast<int>(kind)];
  for (ArmedFault& f : st.armed) {
    if (!f.fired && f.kind == kind && f.at == n) {
      f.fired = true;
      stats().faults_injected.fetch_add(1);
      return true;
    }
  }
  return false;
}

// ------------------------------------------------------------- layout

std::string schema_root() {
  return store_root() + "/v" + std::to_string(kStoreSchemaVersion);
}

std::string bucket_dir(const char* bucket) {
  std::string dir = schema_root();
  dir += fast_mode() ? "/fast/" : "/full/";
  dir += bucket;
  return dir;
}

std::string artifact_path(const char* bucket, const std::string& key) {
  return bucket_dir(bucket) + "/" + store_key_filename(key);
}

// A maintenance file is store machinery, not an artifact: in-flight (or
// orphaned) tmp writes, claim leases, and reclaim-rename leftovers.
bool is_tmp_file(const fs::path& p) {
  return p.filename().string().find(".tmp.") != std::string::npos;
}
bool is_claim_file(const fs::path& p) {
  const std::string name = p.filename().string();
  return name.size() >= 6 && (name.rfind(".claim") == name.size() - 6 ||
                              name.find(".claim.reclaim.") != std::string::npos);
}

// Age of a file in seconds via its mtime; negative when it vanished.
double file_age_seconds(const fs::path& p) {
  std::error_code ec;
  const auto mtime = fs::last_write_time(p, ec);
  if (ec) return -1.0;
  const auto now = fs::file_time_type::clock::now();
  return std::chrono::duration<double>(now - mtime).count();
}

void quarantine_file(const fs::path& path) {
  static std::atomic<long long> seq{0};
  std::error_code ec;
  const fs::path qdir = store_quarantine_dir();
  fs::create_directories(qdir, ec);
  std::ostringstream name;
  name << path.filename().string() << "." << ::getpid() << "."
       << seq.fetch_add(1);
  fs::rename(path, qdir / name.str(), ec);
  // Cross-device or raced rename: removing the bad artifact still
  // guarantees it is never served again.
  if (ec) fs::remove(path, ec);
}

// Remove maintenance files older than min_age under `root`. Claims are
// only swept when `claims` is set (the opportunistic per-process sweep
// leaves lease arbitration to store_try_claim's reclaim path).
void sweep_maintenance_files(const fs::path& root, double min_age,
                             bool claims, long long* tmp_removed,
                             long long* claims_removed) {
  std::error_code ec;
  if (!fs::exists(root, ec)) return;
  for (auto it = fs::recursive_directory_iterator(
           root, fs::directory_options::skip_permission_denied, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (!it->is_regular_file(ec)) continue;
    const fs::path& p = it->path();
    const bool tmp = is_tmp_file(p);
    const bool claim = !tmp && claims && is_claim_file(p);
    if (!tmp && !claim) continue;
    const double age = file_age_seconds(p);
    if (age < 0.0 || age < min_age) continue;
    std::error_code rec;
    if (fs::remove(p, rec) && !rec) {
      if (tmp) {
        if (tmp_removed != nullptr) ++*tmp_removed;
        stats().tmp_swept.fetch_add(1);
      } else if (claims_removed != nullptr) {
        ++*claims_removed;
      }
    }
  }
}

// Once per process, at the first store operation: sweep tmp droppings a
// crashed writer left behind, skipping anything younger than the claim
// TTL (it may be a live writer's in-flight file).
void opportunistic_sweep() {
  static std::once_flag once;
  std::call_once(once, [] {
    sweep_maintenance_files(schema_root(), store_claim_ttl_seconds(),
                            /*claims=*/false, nullptr, nullptr);
  });
}

// ------------------------------------------------------------- write path

// Publish `tmp` as `path` atomically; returns false (removing tmp) on
// failure. rename(2) replaces an existing destination in one step.
bool publish(const fs::path& tmp, const fs::path& path) {
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    fs::remove(tmp, ec);
    return false;
  }
  return true;
}

// Temp-file path unique per process inside the destination directory
// (rename is only atomic within a filesystem).
fs::path tmp_path_for(const fs::path& path) {
  std::ostringstream os;
  os << path.string() << ".tmp." << ::getpid();
  return os.str();
}

bool store_fsync_enabled() { return env_flag("QAVAT_STORE_FSYNC", false); }

void fsync_path(const fs::path& p) {
  const int fd = ::open(p.c_str(), O_RDONLY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

// Shared artifact writer: tmp file in the destination directory, all
// fault-injection points, optional durability (QAVAT_STORE_FSYNC=1:
// fsync the tmp before the rename and the directory after it, so a
// published artifact survives power loss — off by default to keep the
// warm path cheap), then the atomic publishing rename.
bool write_artifact(const fs::path& path, const std::string& bytes) {
  std::error_code ec;
  fs::create_directories(path.parent_path(), ec);
  if (fault_fire(StoreFault::kEnospc)) {
    note_write_failure(path.string());
    return false;
  }
  const fs::path tmp = tmp_path_for(path);
  std::size_t n = bytes.size();
  if (fault_fire(StoreFault::kTornWrite)) n /= 2;
  {
    std::ofstream os(tmp, std::ios::binary);
    if (!os) {
      note_write_failure(path.string());
      return false;
    }
    os.write(bytes.data(), static_cast<std::streamsize>(n));
    os.flush();
    if (!os) {
      note_write_failure(path.string());
      fs::remove(tmp, ec);
      return false;
    }
  }
  if (store_fsync_enabled()) fsync_path(tmp);
  if (fault_fire(StoreFault::kKillBeforeRename)) ::_exit(kFaultKillExitCode);
  if (!publish(tmp, path)) {
    note_write_failure(path.string());
    return false;
  }
  if (store_fsync_enabled()) fsync_path(path.parent_path());
  return true;
}

// -------------------------------------------------------------- read path

// Read a whole artifact into memory (the corrupt_read fault flips one
// byte here, downstream of the real file). False = missing/unreadable.
bool read_artifact(const fs::path& path, std::string* bytes) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return false;
  std::ostringstream ss;
  ss << is.rdbuf();
  *bytes = ss.str();
  if (fault_fire(StoreFault::kCorruptRead) && !bytes->empty()) {
    (*bytes)[bytes->size() / 2] ^= 0x5a;
  }
  return true;
}

bool parse_doubles(const std::string& bytes, std::vector<double>* out) {
  std::istringstream is(bytes);
  std::string tag;
  int version = 0;
  std::size_t n = 0;
  if (!(is >> tag >> version >> n) || tag != "qavat-doubles" ||
      version != kStoreSchemaVersion || n > (1u << 20)) {
    return false;
  }
  std::vector<double> values(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (!(is >> values[i])) return false;
  }
  *out = std::move(values);
  return true;
}

void set_outcome(StoreLoadOutcome* outcome, StoreLoadOutcome v) {
  if (outcome != nullptr) *outcome = v;
}

// Corrupt-load epilogue shared by both load paths: count, quarantine,
// report.
bool reject_corrupt(const fs::path& path, StoreLoadOutcome* outcome) {
  stats().loads_corrupt.fetch_add(1);
  quarantine_file(path);
  set_outcome(outcome, StoreLoadOutcome::kCorrupt);
  return false;
}

}  // namespace

bool store_enabled() { return env_flag("QAVAT_STORE", true); }

std::string store_root() {
  return env_text("QAVAT_STORE_DIR", "artifacts/store");
}

std::string store_quarantine_dir() { return store_root() + "/quarantine"; }

std::string store_key_filename(const std::string& key) {
  // Keys are space-free by contract, but be defensive: map anything
  // outside [A-Za-z0-9._[]-] to '-' so a key can never traverse
  // directories, then cap the length (ext4 limit 255) with a stable
  // FNV-1a suffix disambiguating the truncation.
  std::string name;
  name.reserve(key.size());
  for (char c : key) {
    const bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                      c == '[' || c == ']' || c == '-';
    name.push_back(safe ? c : '-');
  }
  constexpr std::size_t kMaxName = 200;
  if (name.size() > kMaxName || name != key) {
    char suffix[24];
    std::snprintf(suffix, sizeof(suffix), ".%016llx",
                  static_cast<unsigned long long>(fnv1a64(key)));
    if (name.size() > kMaxName) name.resize(kMaxName);
    name += suffix;
  }
  return name;
}

bool store_load_doubles(const char* bucket, const std::string& key,
                        std::vector<double>* out, StoreLoadOutcome* outcome) {
  set_outcome(outcome, StoreLoadOutcome::kMiss);
  if (!store_enabled()) return false;
  opportunistic_sweep();
  const fs::path path = artifact_path(bucket, key);
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  if (ec) return false;
  if (size > kMaxDoublesFileBytes) return reject_corrupt(path, outcome);
  std::string bytes;
  if (!read_artifact(path, &bytes)) return false;
  if (!parse_doubles(bytes, out)) return reject_corrupt(path, outcome);
  set_outcome(outcome, StoreLoadOutcome::kHit);
  return true;
}

bool store_save_doubles(const char* bucket, const std::string& key,
                        const std::vector<double>& values) {
  if (!store_enabled()) return false;
  opportunistic_sweep();
  std::ostringstream os;
  os << "qavat-doubles " << kStoreSchemaVersion << " " << values.size()
     << "\n";
  char buf[40];
  for (double v : values) {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    os << buf << "\n";
  }
  return write_artifact(artifact_path(bucket, key), os.str());
}

bool store_load_state(const char* bucket, const std::string& key,
                      StateDict* out, StoreLoadOutcome* outcome) {
  set_outcome(outcome, StoreLoadOutcome::kMiss);
  if (!store_enabled()) return false;
  opportunistic_sweep();
  const fs::path path = artifact_path(bucket, key);
  std::string bytes;
  if (!read_artifact(path, &bytes)) return false;
  std::istringstream is(bytes);
  if (!load_state_dict(is, out)) return reject_corrupt(path, outcome);
  set_outcome(outcome, StoreLoadOutcome::kHit);
  return true;
}

bool store_save_state(const char* bucket, const std::string& key,
                      const StateDict& sd) {
  if (!store_enabled()) return false;
  opportunistic_sweep();
  std::ostringstream os;
  save_state_dict(os, sd);
  return write_artifact(artifact_path(bucket, key), os.str());
}

bool store_has(const char* bucket, const std::string& key) {
  if (!store_enabled()) return false;
  std::error_code ec;
  return fs::exists(artifact_path(bucket, key), ec) && !ec;
}

bool store_claim_busy(const char* bucket, const std::string& key) {
  if (!store_enabled()) return false;
  const fs::path path = artifact_path(bucket, key) + ".claim";
  const double age = file_age_seconds(path);
  return age >= 0.0 && age < store_claim_ttl_seconds();
}

void store_drop_all() {
  std::error_code ec;
  fs::remove_all(schema_root(), ec);
}

// ------------------------------------------------------------ statistics

StoreStats store_stats() {
  StoreStats s;
  s.writes_failed = stats().writes_failed.load();
  s.loads_corrupt = stats().loads_corrupt.load();
  s.claims_reclaimed = stats().claims_reclaimed.load();
  s.retrains_after_corruption = stats().retrains_after_corruption.load();
  s.tmp_swept = stats().tmp_swept.load();
  s.faults_injected = stats().faults_injected.load();
  return s;
}

void store_stats_reset() {
  stats().writes_failed.store(0);
  stats().loads_corrupt.store(0);
  stats().claims_reclaimed.store(0);
  stats().retrains_after_corruption.store(0);
  stats().tmp_swept.store(0);
  stats().faults_injected.store(0);
}

void store_note_retrain_after_corruption() {
  stats().retrains_after_corruption.fetch_add(1);
}

// ------------------------------------------------- work-claim protocol

double store_claim_ttl_seconds() {
  return env_real("QAVAT_CLAIM_TTL_S", 120.0, 0.0,
                  std::numeric_limits<double>::infinity());
}

long long store_claim_backoff_ms() {
  return env_int("QAVAT_CLAIM_BACKOFF_MS", 25, 0, 2000);
}

struct StoreClaim::Impl {
  fs::path path;
  std::string token;          // identifies this lease in the file content
  std::atomic<bool> lost{false};  // claim file vanished (we were reclaimed)
  long long beat = 0;
  std::thread beater;
  std::mutex mu;
  std::condition_variable cv;
  bool stop = false;

  // Claim-file content: pid, host, token, heartbeat count.
  std::string render() const {
    char host[256] = "?";
    ::gethostname(host, sizeof(host) - 1);
    std::ostringstream os;
    os << "qavat-claim " << ::getpid() << " " << host << " " << token << " "
       << beat << "\n";
    return os.str();
  }

  // Does the claim file at `path` still carry this lease's token?
  bool token_matches() const {
    std::ifstream is(path);
    std::string tag, pid, host, tok;
    return static_cast<bool>(is >> tag >> pid >> host >> tok) &&
           tok == token;
  }

  enum class Create {
    kOk,      // file created and written: the lease is ours
    kExists,  // another claim file is already there (EEXIST)
    kError,   // claims cannot be created here (EACCES, ENOSPC, ...)
  };

  // Atomically create the claim file. A write failure after a
  // successful O_CREAT|O_EXCL (e.g. ENOSPC) unlinks the file again: a
  // half-written claim with no heartbeater would otherwise block every
  // claimant — including this process — for a full TTL per round.
  Create create_content() {
    const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_EXCL, 0644);
    if (fd < 0) return errno == EEXIST ? Create::kExists : Create::kError;
    const std::string s = render();
    const ssize_t written = ::write(fd, s.data(), s.size());
    ::close(fd);
    if (written != static_cast<ssize_t>(s.size())) {
      std::error_code ec;
      fs::remove(path, ec);
      return Create::kError;
    }
    return Create::kOk;
  }

  // Heartbeat refresh: rewrite the claim content (and thereby its
  // mtime) — but only after verifying the file still carries our
  // token. A holder stalled past its TTL may have been reclaimed and a
  // new lease created at the same path; truncating that (or recreating
  // a vanished file via O_CREAT) would resurrect a lease another
  // process now legitimately holds. On mismatch mark ourselves lost.
  void refresh_content() {
    if (!token_matches()) {
      lost.store(true);
      return;
    }
    const int fd = ::open(path.c_str(), O_WRONLY | O_TRUNC);
    if (fd < 0) {
      lost.store(true);
      return;
    }
    const std::string s = render();
    const ssize_t written = ::write(fd, s.data(), s.size());
    ::close(fd);
    // A short write garbles our own token; the next beat then marks
    // the lease lost — fail-soft to duplicate work, never a hang.
    (void)written;
  }

  void start_beater() {
    beater = std::thread([this] {
      const double ttl = store_claim_ttl_seconds();
      double period = ttl / 3.0;
      if (period < 0.05) period = 0.05;
      if (period > 10.0) period = 10.0;
      std::unique_lock<std::mutex> lk(mu);
      while (!cv.wait_for(lk, std::chrono::duration<double>(period),
                          [this] { return stop; })) {
        if (lost.load()) return;
        ++beat;
        refresh_content();
      }
    });
  }

  void stop_beater() {
    {
      std::lock_guard<std::mutex> lk(mu);
      stop = true;
    }
    cv.notify_all();
    if (beater.joinable()) beater.join();
  }
};

StoreClaim::StoreClaim() = default;
StoreClaim::~StoreClaim() { release(); }
StoreClaim::StoreClaim(StoreClaim&& other) noexcept = default;
StoreClaim& StoreClaim::operator=(StoreClaim&& other) noexcept {
  if (this != &other) {
    release();
    impl_ = std::move(other.impl_);
  }
  return *this;
}

void StoreClaim::release() {
  if (impl_ == nullptr) return;
  impl_->stop_beater();
  if (!impl_->lost.load()) {
    // Unlink only our own lease: after a stale reclaim another process
    // may have created a fresh claim at the same path. The
    // verify-then-remove pair is not atomic — a reclaim landing in
    // between deletes the successor's fresh lease — but the window is
    // microseconds, only reachable for a holder releasing right at the
    // TTL boundary (heartbeats keep a live lease far from stale), and
    // the worst case is one duplicated training whose publish is
    // idempotent. Tolerated rather than widening the protocol.
    if (impl_->token_matches()) {
      std::error_code ec;
      fs::remove(impl_->path, ec);
    }
  }
  impl_.reset();
}

StoreClaim store_try_claim(const char* bucket, const std::string& key,
                           StoreClaimStatus* status) {
  StoreClaim claim;
  StoreClaimStatus st = StoreClaimStatus::kBusy;
  if (!store_enabled()) {
    if (status != nullptr) *status = st;
    return claim;
  }
  opportunistic_sweep();
  const fs::path path = artifact_path(bucket, key) + ".claim";
  std::error_code ec;
  fs::create_directories(path.parent_path(), ec);

  // Token unique enough across the fleet: pid + a process-local counter
  // + steady-clock ticks (two processes can share a pid across hosts,
  // but not a tick count at nanosecond resolution in practice).
  static std::atomic<long long> token_seq{0};
  std::ostringstream tok;
  tok << std::hex << ::getpid() << "-" << token_seq.fetch_add(1) << "-"
      << std::chrono::steady_clock::now().time_since_epoch().count();

  for (int attempt = 0; attempt < 4; ++attempt) {
    // Not make_unique: Impl is private to StoreClaim and only this
    // friend function may lexically contain the new-expression.
    std::unique_ptr<StoreClaim::Impl> impl(new StoreClaim::Impl);
    impl->path = path;
    impl->token = tok.str();
    const StoreClaim::Impl::Create created = impl->create_content();
    if (created == StoreClaim::Impl::Create::kOk) {
      impl->start_beater();
      claim.impl_ = std::move(impl);
      st = StoreClaimStatus::kAcquired;
      break;
    }
    if (created == StoreClaim::Impl::Create::kError) {
      // Not EEXIST: the store cannot host claim files at all
      // (read-only root, EACCES, persistent ENOSPC). Report
      // kUnavailable so waiters fall back to computing locally instead
      // of spinning forever — the fail-soft contract.
      st = StoreClaimStatus::kUnavailable;
      break;
    }
    // EEXIST: is the existing lease stale? A live holder's heartbeat
    // keeps the mtime younger than the TTL.
    const double age = file_age_seconds(path);
    if (age < 0.0) continue;  // vanished between probes: retry create
    if (age < store_claim_ttl_seconds()) break;  // live holder: kBusy
    // Reclaim: atomically steal the stale file via rename, so exactly
    // one of several racing reclaimers wins; then retry the create.
    fs::path steal = path;
    steal += ".reclaim." + std::to_string(::getpid());
    fs::rename(path, steal, ec);
    if (!ec) {
      fs::remove(steal, ec);
      stats().claims_reclaimed.fetch_add(1);
    } else if (ec != std::errc::no_such_file_or_directory) {
      // Losing the reclaim race reads ENOENT; anything else means the
      // stale lease can never be cleared from here (read-only root) —
      // waiting on it would hang every claimant forever.
      st = StoreClaimStatus::kUnavailable;
      break;
    }
  }
  // Attempt exhaustion (repeated vanish/reclaim races) stays kBusy:
  // others are demonstrably making progress on this key.
  if (status != nullptr) *status = st;
  return claim;
}

void store_claim_backoff_wait(int attempt) {
  long long ms = store_claim_backoff_ms();
  if (ms < 1) ms = 1;
  const int shift = attempt < 6 ? attempt : 6;
  ms <<= shift;
  if (ms > 2000) ms = 2000;
  // ±25% jitter from a per-process LCG: waiters across a fleet must not
  // re-probe in lockstep.
  static std::atomic<unsigned> state{
      static_cast<unsigned>(::getpid()) * 2654435761u};
  unsigned s = state.fetch_add(1);
  s = s * 1103515245u + 12345u;
  ms = ms * 3 / 4 + static_cast<long long>(s % (ms / 2 + 1));
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

ClaimWait claim_or_load(const char* bucket, const std::string& key,
                        const std::function<bool(StoreLoadOutcome*)>& probe) {
  ClaimWait cw;
  for (int attempt = 0;; ++attempt) {
    StoreLoadOutcome outcome = StoreLoadOutcome::kMiss;
    if (probe(&outcome)) {
      cw.loaded = true;
      return cw;
    }
    if (outcome == StoreLoadOutcome::kCorrupt) cw.saw_corrupt = true;
    if (!store_enabled()) return cw;
    StoreClaimStatus status = StoreClaimStatus::kBusy;
    cw.claim = store_try_claim(bucket, key, &status);
    if (cw.claim.held()) return cw;
    if (status == StoreClaimStatus::kUnavailable) return cw;
    store_claim_backoff_wait(attempt);
  }
}

void store_fault_reload() {
  FaultState& st = fault_state();
  std::lock_guard<std::mutex> lk(st.mu);
  parse_faults_locked(st);
}

// ---------------------------------------------------------- maintenance

StoreGcResult store_gc(double min_age_s, bool evict_quarantine) {
  StoreGcResult res;
  sweep_maintenance_files(schema_root(), min_age_s, /*claims=*/true,
                          &res.tmp_removed, &res.claims_removed);
  if (evict_quarantine) {
    std::error_code ec;
    const fs::path qdir = store_quarantine_dir();
    if (fs::exists(qdir, ec)) {
      for (auto it = fs::directory_iterator(qdir, ec);
           !ec && it != fs::directory_iterator(); it.increment(ec)) {
        if (!it->is_regular_file(ec)) continue;
        const double age = file_age_seconds(it->path());
        if (age < 0.0 || age < min_age_s) continue;
        std::error_code rec;
        if (fs::remove(it->path(), rec) && !rec) ++res.quarantine_removed;
      }
    }
  }
  return res;
}

StoreVerifyResult store_verify_all(bool quarantine_bad) {
  StoreVerifyResult res;
  std::error_code ec;
  const fs::path root = schema_root();
  if (!fs::exists(root, ec)) return res;
  for (auto it = fs::recursive_directory_iterator(
           root, fs::directory_options::skip_permission_denied, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (!it->is_regular_file(ec)) continue;
    const fs::path& p = it->path();
    if (is_tmp_file(p) || is_claim_file(p)) continue;
    std::string bytes;
    bool ok = read_artifact(p, &bytes);
    if (ok) {
      // Sniff the format from the leading bytes: state-dict envelopes
      // start with the "QVSD" magic, double vectors with the
      // "qavat-doubles" header line.
      if (bytes.rfind("QVSD", 0) == 0) {
        StateDict sd;
        std::istringstream is(bytes);
        ok = load_state_dict(is, &sd);
      } else if (bytes.rfind("qavat-doubles", 0) == 0) {
        std::vector<double> v;
        ok = parse_doubles(bytes, &v);
      } else {
        ok = false;
      }
    }
    if (ok) {
      ++res.ok;
    } else {
      ++res.corrupt;
      res.corrupt_paths.push_back(p.string());
      if (quarantine_bad) {
        stats().loads_corrupt.fetch_add(1);
        quarantine_file(p);
      }
    }
  }
  return res;
}

long long store_evict_older_than(double seconds) {
  long long removed = 0;
  std::error_code ec;
  const fs::path root = schema_root();
  if (!fs::exists(root, ec)) return removed;
  for (auto it = fs::recursive_directory_iterator(
           root, fs::directory_options::skip_permission_denied, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (!it->is_regular_file(ec)) continue;
    const fs::path& p = it->path();
    if (is_tmp_file(p) || is_claim_file(p)) continue;
    const double age = file_age_seconds(p);
    if (age < 0.0 || age < seconds) continue;
    std::error_code rec;
    if (fs::remove(p, rec) && !rec) ++removed;
  }
  return removed;
}

}  // namespace qavat
