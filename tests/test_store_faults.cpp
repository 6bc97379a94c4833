// Crash-safety tests for the artifact store's robustness layer
// (DESIGN.md §14): the work-claim lease protocol (atomic acquisition,
// exactly-one-winner under thread contention, stale-lease reclaim,
// token-checked release), the QAVAT_STORE_FAULT injection points
// (enospc, torn_write, corrupt_read, kill_before_rename — the last via
// a real fork()ed child dying mid-publish), quarantine-and-retrain
// healing through trained_model, the orphaned-tmp sweep, and the
// gc/verify/evict maintenance entry points the qavat-store CLI wraps.
// Runs against a private temp store (QAVAT_STORE_DIR set before any
// store call). Test order matters: the opportunistic-sweep test must
// own the process's first store operation, and the fork test runs
// before anything that starts compute threads.
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "data/synth.h"
#include "eval/experiment.h"
#include "eval/store.h"
#include "tensor/serialize.h"
#include "tests/test_common.h"

using namespace qavat;
namespace fs = std::filesystem;

namespace {

fs::path g_store_dir;

fs::path bucket_dir(const char* bucket) {
  return g_store_dir / "v1" / (fast_mode() ? "fast" : "full") / bucket;
}

fs::path artifact_path(const char* bucket, const std::string& key) {
  return bucket_dir(bucket) / store_key_filename(key);
}

void set_mtime_ago(const fs::path& p, std::chrono::seconds ago) {
  fs::last_write_time(p, fs::file_time_type::clock::now() - ago);
}

void plant_file(const fs::path& p, const std::string& bytes) {
  fs::create_directories(p.parent_path());
  std::ofstream os(p, std::ios::binary);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

long long quarantine_count() {
  long long n = 0;
  std::error_code ec;
  for (auto it = fs::directory_iterator(store_quarantine_dir(), ec);
       !ec && it != fs::directory_iterator(); it.increment(ec)) {
    if (it->is_regular_file(ec)) ++n;
  }
  return n;
}

StateDict sample_state() {
  StateDict sd;
  Tensor t({3, 4});
  for (index_t i = 0; i < t.size(); ++i) t[i] = 0.25f * static_cast<float>(i);
  sd.add_tensor("w", t);
  sd.add_scalar("scale", 0.12345678901234567);
  return sd;
}

// The process's FIRST store operation runs the opportunistic
// maintenance sweep: orphaned .tmp files older than the claim TTL are
// removed; younger ones (a live writer mid-publish) are spared.
void test_opportunistic_tmp_sweep() {
  const fs::path dir = bucket_dir("results");
  const fs::path old_tmp = dir / "orphan.tmp.1234";
  const fs::path young_tmp = dir / "inflight.tmp.5678";
  plant_file(old_tmp, "half-written");
  plant_file(young_tmp, "half-written");
  set_mtime_ago(old_tmp, std::chrono::seconds(3600));

  // First store op of the process triggers the once-per-process sweep.
  CHECK(store_save_doubles("results", "faults_sweep_probe", {1.0}));
  CHECK(!fs::exists(old_tmp));
  CHECK(fs::exists(young_tmp));
  CHECK(store_stats().tmp_swept >= 1);
  fs::remove(young_tmp);
}

void test_claim_basics() {
  const std::string key = "faults_claim_basics";
  const fs::path claim_file(artifact_path("results", key).string() +
                            ".claim");
  StoreClaimStatus st = StoreClaimStatus::kUnavailable;
  StoreClaim a = store_try_claim("results", key, &st);
  CHECK(a.held());
  CHECK(st == StoreClaimStatus::kAcquired);
  CHECK(fs::exists(claim_file));
  // A live lease (fresh heartbeat) blocks a second claimant — reported
  // as kBusy (backing off is productive), not kUnavailable.
  StoreClaim b = store_try_claim("results", key, &st);
  CHECK(!b.held());
  CHECK(st == StoreClaimStatus::kBusy);
  // Release removes the claim file; the key is claimable again.
  a.release();
  CHECK(!fs::exists(claim_file));
  StoreClaim c = store_try_claim("results", key);
  CHECK(c.held());
  // Move semantics transfer ownership; the destructor releases.
  StoreClaim d = std::move(c);
  CHECK(d.held() && !c.held());
}

// A claim whose holder stopped heartbeating (crashed) goes stale after
// the TTL and is reclaimed by the next claimant — while a fresh lease
// with the same content is left alone.
void test_stale_reclaim() {
  const std::string key = "faults_stale_reclaim";
  const fs::path claim(artifact_path("results", key).string() + ".claim");
  plant_file(claim, "qavat-claim 999999 deadhost deadbeef 0\n");
  set_mtime_ago(claim, std::chrono::seconds(3600));  // long past the TTL

  const long long reclaimed0 = store_stats().claims_reclaimed;
  StoreClaim a = store_try_claim("results", key);
  CHECK(a.held());
  CHECK(store_stats().claims_reclaimed == reclaimed0 + 1);
  a.release();

  // Same planted file with a fresh mtime is treated as live.
  plant_file(claim, "qavat-claim 999999 deadhost deadbeef 0\n");
  StoreClaim b = store_try_claim("results", key);
  CHECK(!b.held());
  CHECK(store_stats().claims_reclaimed == reclaimed0 + 1);
  fs::remove(claim);
}

// A store where claim files can never be created (here the bucket path
// is a plain file, so open() fails with ENOTDIR — the same shape as
// EACCES, a read-only root, or a persistently full disk) must report
// kUnavailable instead of masquerading as a live holder; waiters fall
// back to local compute instead of spinning forever.
void test_claim_unavailable() {
  plant_file(bucket_dir("faults_blocked_bucket"), "not a directory");
  StoreClaimStatus st = StoreClaimStatus::kAcquired;
  StoreClaim c = store_try_claim("faults_blocked_bucket", "anykey", &st);
  CHECK(!c.held());
  CHECK(st == StoreClaimStatus::kUnavailable);
  fs::remove(bucket_dir("faults_blocked_bucket"));
}

// A holder stalled past its TTL whose lease was reclaimed (simulated
// here by replacing the claim-file content with a foreign token) must
// not resurrect its lease: heartbeats verify the token before
// rewriting, mark the claim lost on mismatch, and release() refuses to
// delete the new holder's file.
void test_heartbeat_respects_reclaim() {
  ::setenv("QAVAT_CLAIM_TTL_S", "3", 1);  // heartbeat period 1 s
  const std::string key = "faults_hb_reclaim";
  const fs::path claim(artifact_path("results", key).string() + ".claim");
  StoreClaim a = store_try_claim("results", key);
  CHECK(a.held());
  // Replace the lease right after acquisition — well before the first
  // beat at t=1 s, so no in-flight refresh races the plant.
  plant_file(claim, "qavat-claim 4242 otherhost foreigntok 99\n");
  std::this_thread::sleep_for(std::chrono::milliseconds(1300));
  // At least one beat ran; the foreign lease must be untouched…
  std::ifstream is(claim);
  std::string tag, pid, host, tok;
  CHECK(static_cast<bool>(is >> tag >> pid >> host >> tok));
  CHECK(tok == "foreigntok");
  is.close();
  // …and survive our release.
  a.release();
  CHECK(fs::exists(claim));
  fs::remove(claim);
  ::unsetenv("QAVAT_CLAIM_TTL_S");
}

// Eight threads race claim-compute-publish-release on one key through
// the store primitives: exactly one computes, everyone converges on the
// published artifact, bit-identically.
void test_concurrent_claims_one_winner() {
  const std::string key = "faults_concurrent_claims";
  const std::vector<double> payload = {1.5, -2.25, 3.0625};
  std::atomic<int> computed{0};
  std::atomic<bool> mismatch{false};

  auto worker = [&] {
    for (int attempt = 0;; ++attempt) {
      std::vector<double> got;
      if (store_load_doubles("results", key, &got)) {
        if (got != payload) mismatch.store(true);
        return;
      }
      StoreClaim claim = store_try_claim("results", key);
      if (claim.held()) {
        // Double-check after winning the claim (a previous holder may
        // have published between our probe and the acquisition).
        if (!store_load_doubles("results", key, &got)) {
          computed.fetch_add(1);
          CHECK(store_save_doubles("results", key, payload));
        }
        return;  // claim releases at scope exit
      }
      store_claim_backoff_wait(attempt);
    }
  };
  std::vector<std::thread> threads;
  for (int i = 0; i < 8; ++i) threads.emplace_back(worker);
  for (auto& t : threads) t.join();

  CHECK(computed.load() == 1);
  CHECK(!mismatch.load());
  std::vector<double> final_got;
  CHECK(store_load_doubles("results", key, &final_got));
  CHECK(final_got == payload);
}

void test_enospc_fault() {
  ::setenv("QAVAT_STORE_FAULT", "enospc:1", 1);
  store_fault_reload();
  const StoreStats s0 = store_stats();
  // First write fails as if the disk were full; the store degrades
  // gracefully (false return, counter) rather than aborting.
  CHECK(!store_save_doubles("results", "faults_enospc", {4.0}));
  CHECK(store_stats().writes_failed == s0.writes_failed + 1);
  CHECK(store_stats().faults_injected == s0.faults_injected + 1);
  std::vector<double> got;
  CHECK(!store_load_doubles("results", "faults_enospc", &got));
  // The fault is one-shot: the retry lands.
  CHECK(store_save_doubles("results", "faults_enospc", {4.0}));
  CHECK(store_load_doubles("results", "faults_enospc", &got));
  CHECK(got == std::vector<double>{4.0});
  ::unsetenv("QAVAT_STORE_FAULT");
  store_fault_reload();
}

void test_torn_write_quarantines() {
  ::setenv("QAVAT_STORE_FAULT", "torn_write:1", 1);
  store_fault_reload();
  const std::string key = "faults_torn_write";
  // The torn publish "succeeds" — that is the point: the corruption is
  // only discovered at load time, where it must quarantine, not crash.
  CHECK(store_save_state("models", key, sample_state()));
  ::unsetenv("QAVAT_STORE_FAULT");
  store_fault_reload();

  const StoreStats s0 = store_stats();
  const long long q0 = quarantine_count();
  StateDict out;
  StoreLoadOutcome outcome = StoreLoadOutcome::kHit;
  CHECK(!store_load_state("models", key, &out, &outcome));
  CHECK(outcome == StoreLoadOutcome::kCorrupt);
  CHECK(store_stats().loads_corrupt == s0.loads_corrupt + 1);
  CHECK(quarantine_count() == q0 + 1);
  CHECK(!fs::exists(artifact_path("models", key)));  // moved aside
  // The slot is a plain miss now; a clean rewrite heals it.
  outcome = StoreLoadOutcome::kHit;
  CHECK(!store_load_state("models", key, &out, &outcome));
  CHECK(outcome == StoreLoadOutcome::kMiss);
  CHECK(store_save_state("models", key, sample_state()));
  CHECK(store_load_state("models", key, &out));
}

void test_corrupt_read_fault() {
  const std::string key = "faults_corrupt_read";
  CHECK(store_save_state("models", key, sample_state()));
  ::setenv("QAVAT_STORE_FAULT", "corrupt_read:1", 1);
  store_fault_reload();
  const SerializeReadStats r0 = serialize_read_stats();
  const long long q0 = quarantine_count();
  StateDict out;
  StoreLoadOutcome outcome = StoreLoadOutcome::kHit;
  // One flipped byte in the read-back bytes must fail the envelope
  // checksum — detected, counted, quarantined.
  CHECK(!store_load_state("models", key, &out, &outcome));
  CHECK(outcome == StoreLoadOutcome::kCorrupt);
  CHECK(serialize_read_stats().envelopes_failed > r0.envelopes_failed);
  CHECK(quarantine_count() == q0 + 1);
  ::unsetenv("QAVAT_STORE_FAULT");
  store_fault_reload();
}

// A worker killed between the tmp write and the publishing rename (the
// classic crash window) leaves a tmp file and a held claim — both must
// be recoverable: the claim goes stale and is reclaimed, the tmp file
// is swept by gc.
void test_kill_before_rename() {
  const std::string key = "faults_kill_mid_publish";
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::setenv("QAVAT_STORE_FAULT", "kill_before_rename:1", 1);
    store_fault_reload();
    StoreClaim claim = store_try_claim("results", key);
    if (!claim.held()) ::_exit(7);
    store_save_doubles("results", key, {5.0, 6.0});  // dies inside
    ::_exit(9);  // unreachable when the fault fires
  }
  CHECK(pid > 0);
  int status = 0;
  CHECK(::waitpid(pid, &status, 0) == pid);
  CHECK(WIFEXITED(status) && WEXITSTATUS(status) == kFaultKillExitCode);

  // The artifact was never published; the dead child's claim survives.
  std::vector<double> got;
  CHECK(!store_load_doubles("results", key, &got));
  const fs::path claim(artifact_path("results", key).string() + ".claim");
  CHECK(fs::exists(claim));
  // A live-TTL claimant is blocked (the lease looks fresh)…
  StoreClaim blocked = store_try_claim("results", key);
  CHECK(!blocked.held());
  // …but with the TTL elapsed (0 makes every lease instantly stale) the
  // next claimant reclaims it and work proceeds.
  ::setenv("QAVAT_CLAIM_TTL_S", "0", 1);
  const long long reclaimed0 = store_stats().claims_reclaimed;
  StoreClaim taken = store_try_claim("results", key);
  CHECK(taken.held());
  CHECK(store_stats().claims_reclaimed == reclaimed0 + 1);
  CHECK(store_save_doubles("results", key, {5.0, 6.0}));
  taken.release();
  ::unsetenv("QAVAT_CLAIM_TTL_S");
  CHECK(store_load_doubles("results", key, &got));

  // The dead child's tmp dropping is swept by gc (age floor 0).
  const StoreGcResult gc = store_gc(0.0, false);
  CHECK(gc.tmp_removed >= 1);
}

// End-to-end healing: corrupt persisted model artifacts force a
// retrain (counted as retrains_after_corruption), reproduce the
// original numbers deterministically, and leave healed artifacts.
void test_retrain_after_corruption() {
  SynthDigitsConfig dcfg;
  dcfg.n_train = 96;
  dcfg.n_test = 48;
  SplitDataset data = make_synth_digits(dcfg);
  const ModelKind kind = ModelKind::kLeNet5s;
  ModelConfig mcfg = default_model_config(kind, 4, 2);
  TrainConfig tcfg;
  tcfg.epochs = 1;
  tcfg.train_noise = VariabilityConfig::within_only(
      VarianceModel::kWeightProportional, 0.3);

  const index_t runs0 = training_runs();
  TrainedModel cold = trained_model(
      training_units(kind, mcfg, ScenarioAlgo::kQAVAT, data, tcfg), data);
  CHECK(cold.trained);
  CHECK(training_runs() == runs0 + 2);  // pretrain + fine-tune

  // Truncate every persisted training artifact. This suite's
  // hand-planted "faults_*" artifacts are nobody's retrain
  // responsibility and must stay intact (the final verify sweep asserts
  // nothing in the store is corrupt).
  clear_experiment_caches();
  index_t damaged = 0;
  for (const auto& entry : fs::recursive_directory_iterator(
           bucket_dir("models"))) {
    if (!entry.is_regular_file()) continue;
    if (entry.path().filename().string().rfind("faults_", 0) == 0) continue;
    fs::resize_file(entry.path(), entry.file_size() / 2);
    ++damaged;
  }
  CHECK(damaged >= 2);

  const StoreStats s0 = store_stats();
  const long long q0 = quarantine_count();
  TrainedModel healed = trained_model(
      training_units(kind, mcfg, ScenarioAlgo::kQAVAT, data, tcfg), data);
  CHECK(healed.trained);
  CHECK(training_runs() == runs0 + 4);
  CHECK(healed.clean_test_acc == cold.clean_test_acc);  // deterministic
  CHECK(store_stats().loads_corrupt >= s0.loads_corrupt + 2);
  CHECK(store_stats().retrains_after_corruption >=
        s0.retrains_after_corruption + 2);
  CHECK(quarantine_count() >= q0 + 2);  // evidence preserved

  // Artifacts healed: a cold-memory rerun is a pure store hit.
  clear_experiment_caches();
  TrainedModel warm = trained_model(
      training_units(kind, mcfg, ScenarioAlgo::kQAVAT, data, tcfg), data);
  CHECK(!warm.trained);
  CHECK(warm.from_store);
  CHECK(training_runs() == runs0 + 4);
}

void test_gc_verify_evict() {
  // Everything surviving the suite so far must validate.
  StoreVerifyResult v = store_verify_all(false);
  for (const std::string& p : v.corrupt_paths) {
    std::printf("unexpected corrupt artifact: %s\n", p.c_str());
  }
  CHECK(v.corrupt == 0);
  CHECK(v.ok >= 3);

  // A planted unreadable artifact is found, reported and (with the
  // flag) quarantined.
  const fs::path bad = bucket_dir("models") / "planted_garbage";
  plant_file(bad, "QVSD this is not a state dict");
  v = store_verify_all(false);
  CHECK(v.corrupt == 1);
  CHECK(v.corrupt_paths.size() == 1 && fs::exists(bad));
  const long long q0 = quarantine_count();
  v = store_verify_all(true);
  CHECK(v.corrupt == 1);
  CHECK(!fs::exists(bad));
  CHECK(quarantine_count() == q0 + 1);
  CHECK(store_verify_all(false).corrupt == 0);

  // gc removes old claims/tmp but spares artifacts; --evict-quarantine
  // empties the quarantine.
  const fs::path stale_claim = bucket_dir("results") / "gc_probe.claim";
  const fs::path stale_tmp = bucket_dir("results") / "gc_probe.tmp.42";
  plant_file(stale_claim, "qavat-claim 1 host tok 0\n");
  plant_file(stale_tmp, "junk");
  set_mtime_ago(stale_claim, std::chrono::seconds(3600));
  set_mtime_ago(stale_tmp, std::chrono::seconds(3600));
  const StoreGcResult gc = store_gc(1800.0, false);
  CHECK(gc.claims_removed >= 1);
  CHECK(gc.tmp_removed >= 1);
  CHECK(!fs::exists(stale_claim) && !fs::exists(stale_tmp));
  CHECK(store_verify_all(false).ok >= 3);  // artifacts untouched
  // The age floor guards quarantine too; a zero-age pass empties it.
  CHECK(quarantine_count() > 0);
  const StoreGcResult gcq = store_gc(0.0, true);
  CHECK(gcq.quarantine_removed >= 1);
  CHECK(quarantine_count() == 0);

  // evict removes only artifacts older than the horizon.
  const fs::path victim = artifact_path("results", "faults_enospc");
  CHECK(fs::exists(victim));
  set_mtime_ago(victim, std::chrono::seconds(3600));
  CHECK(store_evict_older_than(1800.0) >= 1);
  CHECK(!fs::exists(victim));
  std::vector<double> got;
  CHECK(store_load_doubles("results", "faults_sweep_probe", &got));  // young
}

// End-to-end fail-soft: with the store rooted at a path that can never
// hold files (a plain file), the read-through caches must compute
// locally — before the kUnavailable status existed, claim_or_load spun
// forever here, probing a miss and re-trying a claim that could never
// be created.
void test_unwritable_store_computes_locally() {
  const fs::path bogus_root = g_store_dir / "not_a_dir";
  plant_file(bogus_root, "plain file, not a store root");
  ::setenv("QAVAT_STORE_DIR", bogus_root.c_str(), 1);
  bool computed = false;
  const EvalStats got = with_eval_cache(
      "faults_unwritable_store",
      [] {
        EvalStats s;
        s.per_chip_acc = {42.5};
        return s;
      },
      &computed);
  CHECK(computed);
  CHECK(got.per_chip_acc == std::vector<double>{42.5});
  ::setenv("QAVAT_STORE_DIR", g_store_dir.c_str(), 1);
  fs::remove(bogus_root);
}

void test_fsync_mode_roundtrip() {
  // QAVAT_STORE_FSYNC=1 changes durability, never results.
  ::setenv("QAVAT_STORE_FSYNC", "1", 1);
  CHECK(store_save_doubles("results", "faults_fsync", {7.75}));
  std::vector<double> got;
  CHECK(store_load_doubles("results", "faults_fsync", &got));
  CHECK(got == std::vector<double>{7.75});
  ::unsetenv("QAVAT_STORE_FSYNC");
}

}  // namespace

int main() {
  // Private store for this binary; set before any store access. Short
  // backoff so contention tests spin fast.
  g_store_dir = fs::temp_directory_path() /
                ("qavat_test_store_faults_" + std::to_string(::getpid()));
  ::setenv("QAVAT_STORE_DIR", g_store_dir.c_str(), 1);
  ::setenv("QAVAT_STORE", "1", 1);
  ::setenv("QAVAT_CLAIM_BACKOFF_MS", "5", 1);
  CHECK(store_enabled());
  store_stats_reset();

  test_opportunistic_tmp_sweep();  // must own the first store operation
  test_claim_basics();
  test_claim_unavailable();
  test_stale_reclaim();
  test_concurrent_claims_one_winner();
  test_enospc_fault();
  test_torn_write_quarantines();
  test_corrupt_read_fault();
  test_kill_before_rename();  // fork: before anything spawning threads
  test_retrain_after_corruption();
  test_gc_verify_evict();
  test_heartbeat_respects_reclaim();  // ~1.3 s sleep: keep it late
  test_unwritable_store_computes_locally();
  test_fsync_mode_roundtrip();

  std::error_code ec;
  fs::remove_all(g_store_dir, ec);
  return qavat::test::finish("test_store_faults");
}
