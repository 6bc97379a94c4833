// On-disk artifact store. Persists trained-model state dicts and
// Monte-Carlo result vectors under schema-versioned, budget-namespaced
// paths so bench binaries share work across processes: a warm second run
// of any bench loads its models and results instead of recomputing them,
// bit-identically (results round-trip through %.17g text, tensors
// through exact binary — DESIGN.md §11).
//
// Layout: <root>/v<schema>/<fast|full>/<bucket>/<key file>, where root
// is QAVAT_STORE_DIR (default "artifacts/store"), the schema directory
// pins kStoreSchemaVersion, and fast/full mirrors QAVAT_FAST — so a
// smoke-budget run can never collide with (or poison) full-budget
// artifacts, whatever the key says. QAVAT_STORE=0 disables all
// persistence. Writes go to a temp file in the destination directory and
// are published with an atomic rename, so readers never observe a
// partial file. Every operation is fail-soft — a missing, truncated,
// corrupt or unwritable artifact reads as a miss and the caller
// recomputes; a corrupt artifact is additionally moved to
// <root>/quarantine/ so it is retrained instead of re-served.
//
// The store is also the fleet coordination substrate (DESIGN.md §14):
// store_try_claim() implements a lease-based work-claim protocol
// (atomic `<key>.claim` files carrying pid/host/heartbeat, TTL-based
// stale reclaim, exponential backoff for waiters) so N processes — or
// hosts sharing a filesystem — can chew one scenario manifest without
// duplicating training. QAVAT_STORE_FAULT injects deterministic faults
// (kill-mid-publish, torn writes, ENOSPC, read corruption) at the
// points listed under StoreFault so the recovery paths are testable.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "tensor/serialize.h"

namespace qavat {

/// Directory-layout schema version (the "v1" path component); bump
/// together with any incompatible change to what the buckets hold.
inline constexpr int kStoreSchemaVersion = 1;

/// Exit code a process dies with when the kill_before_rename fault
/// fires (the fault calls _exit with this value after the tmp write,
/// before the publishing rename), so tests can tell an injected kill
/// from a real crash.
inline constexpr int kFaultKillExitCode = 42;

/// The QAVAT_STORE flag (default 1; tensor/env.h rules). Re-read from
/// the environment on every call so tests can toggle it.
bool store_enabled();

/// Store root: QAVAT_STORE_DIR, or "artifacts/store" (relative to the
/// working directory) when unset/empty.
std::string store_root();

/// Quarantine directory (<root>/quarantine) corrupt artifacts are moved
/// into on load failure. Outside the v<schema> subtree, so
/// store_drop_all never deletes the evidence; `qavat-store gc
/// --evict-quarantine` empties it.
std::string store_quarantine_dir();

/// Filename a key maps to inside a bucket: the key itself when it is
/// filesystem-safe and short, otherwise a sanitized prefix plus an
/// FNV-1a hash suffix (stable across processes).
std::string store_key_filename(const std::string& key);

/// What a load probe actually observed, for callers that must tell a
/// plain miss from a corrupt artifact (the latter was quarantined and
/// the recompute counts as a retrain-after-corruption).
enum class StoreLoadOutcome {
  kHit,      ///< artifact present and valid
  kMiss,     ///< no artifact (or store disabled)
  kCorrupt,  ///< artifact present but failed validation; quarantined
};

/// Load a persisted double vector (e.g. the evals bucket). Returns false on
/// disabled store, missing key or malformed file; a malformed file is
/// moved to quarantine and reported via *outcome (optional).
bool store_load_doubles(const char* bucket, const std::string& key,
                        std::vector<double>* out,
                        StoreLoadOutcome* outcome = nullptr);

/// Persist a double vector with round-trip-exact (%.17g) text encoding
/// and an atomic rename. Returns false (counting writes_failed, with a
/// once-per-process stderr warning) when the store is disabled or the
/// write fails.
bool store_save_doubles(const char* bucket, const std::string& key,
                        const std::vector<double>& values);

/// Load a persisted state dict (models bucket). Returns false on
/// disabled store, missing key or malformed/corrupt file; a corrupt
/// file is moved to quarantine and reported via *outcome (optional).
bool store_load_state(const char* bucket, const std::string& key,
                      StateDict* out, StoreLoadOutcome* outcome = nullptr);

/// Persist a state dict (binary, checksummed) with an atomic rename.
/// Returns false when the store is disabled or the write fails.
bool store_save_state(const char* bucket, const std::string& key,
                      const StateDict& sd);

/// Cheap existence probe: true when an artifact file is published for
/// (bucket, key). No content validation, no quarantine side effects —
/// run_all's lane picker and `qavat-sweep --dry-run` use it to
/// classify units without paying a full load (a published-but-corrupt
/// artifact reads "present" here and is handled by the load path's
/// quarantine-and-recompute when actually consumed). False when the
/// store is disabled.
bool store_has(const char* bucket, const std::string& key);

/// Non-destructive work-claim probe: true when a claim file exists for
/// (bucket, key) whose age is younger than the TTL — i.e. a live holder
/// is producing the artifact right now and skipping to other work is
/// productive. An absent or stale claim (reclaimable immediately), or a
/// disabled store, reads false. Never creates, refreshes or reclaims
/// anything — the lane picker's look-before-you-claim primitive.
bool store_claim_busy(const char* bucket, const std::string& key);

/// Delete every artifact under this schema's namespace
/// (<root>/v<schema>/, both fast and full). Used by
/// clear_experiment_caches(drop_disk=true); never touches anything
/// outside the versioned subtree (quarantine survives).
void store_drop_all();

// ------------------------------------------------------------ statistics

/// Snapshot of the store's per-category operation counters (atomic,
/// process-wide). Replaces the old single-shot write warning: the first
/// failed write still warns on stderr once, but every category stays
/// countable and is printed in the `[qavat-store]` session summary.
struct StoreStats {
  long long writes_failed = 0;      ///< artifact writes that failed
  long long loads_corrupt = 0;      ///< loads rejected + quarantined
  long long claims_reclaimed = 0;   ///< stale leases taken over
  long long retrains_after_corruption = 0;  ///< recomputes forced by a
                                            ///< corrupt artifact
  long long tmp_swept = 0;          ///< orphaned .tmp files removed
  long long faults_injected = 0;    ///< QAVAT_STORE_FAULT firings
};

/// Current counter values.
StoreStats store_stats();

/// Zero every counter (tests).
void store_stats_reset();

/// Count one recompute that was forced by a corrupt artifact (called by
/// the read-through caches when a claim-or-load round saw kCorrupt and
/// then recomputed the unit).
void store_note_retrain_after_corruption();

// ------------------------------------------------- work-claim protocol

/// Why store_try_claim() returned without the lease (or with it) —
/// waiters must tell "someone else is producing this" (keep backing
/// off) from "claims cannot exist here" (stop waiting and compute
/// locally, preserving the store's fail-soft contract).
enum class StoreClaimStatus {
  kAcquired,     ///< the returned claim is held
  kBusy,         ///< a live holder's lease was observed (or the store
                 ///< is disabled); backing off is productive
  kUnavailable,  ///< the claim file can never be created here (EACCES,
                 ///< read-only root, persistent ENOSPC, ...); waiting
                 ///< would hang forever
};

/// RAII lease on the right to produce one artifact. Obtained via
/// store_try_claim(); while held, a background heartbeat thread
/// refreshes the claim file every TTL/3 so live holders are never
/// reclaimed, however long training takes. Every refresh first
/// verifies the file still carries this claim's token — a holder that
/// stalled past its TTL and was reclaimed marks itself lost instead of
/// truncating the new holder's lease. The destructor (or release())
/// removes the claim file under the same token check.
class StoreClaim {
 public:
  StoreClaim();
  ~StoreClaim();
  /// Moveable, not copyable (a lease has one owner).
  StoreClaim(StoreClaim&& other) noexcept;
  StoreClaim& operator=(StoreClaim&& other) noexcept;

  /// True while this object owns the lease.
  bool held() const { return impl_ != nullptr; }

  /// Drop the lease now (idempotent; also run by the destructor).
  void release();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  friend StoreClaim store_try_claim(const char* bucket,
                                    const std::string& key,
                                    StoreClaimStatus* status);
};

/// Try to acquire the work-claim lease for (bucket, key): atomically
/// create `<key file>.claim` (O_CREAT|O_EXCL) carrying pid, host and a
/// heartbeat counter. If a claim file already exists but its mtime is
/// older than the TTL (QAVAT_CLAIM_TTL_S, default 120 s — a crashed
/// holder stops heartbeating), the stale lease is reclaimed via an
/// atomic rename (exactly one of several racing reclaimers wins) and
/// acquisition is retried. Returns a non-held claim when another live
/// process holds the lease or the store is disabled; `*status`
/// (optional) additionally distinguishes a live holder (kBusy) from a
/// store where claims can never be created (kUnavailable — any open()
/// failure other than EEXIST, or a stale reclaim rename that fails for
/// a reason other than losing the race). Callers loop: probe the
/// artifact, try_claim, on kBusy back off with
/// store_claim_backoff_wait(), and on kUnavailable fall through to
/// computing locally.
StoreClaim store_try_claim(const char* bucket, const std::string& key,
                           StoreClaimStatus* status = nullptr);

/// What claim_or_load() exited with. `loaded`: the probe hit (another
/// producer published, or the artifact was already there) — nothing to
/// compute. Otherwise the caller computes the unit itself, with `claim`
/// held or — store disabled or claims unavailable — without a lease.
/// `saw_corrupt` records whether any probe hit a corrupt (now
/// quarantined) artifact, so the caller can count the recompute with
/// store_note_retrain_after_corruption().
struct ClaimWait {
  StoreClaim claim;          ///< the production lease, when acquired
  bool loaded = false;       ///< a probe hit; nothing to compute
  bool saw_corrupt = false;  ///< a probe quarantined a corrupt artifact
};

/// The one claim-or-load round trip every read-through cache (models,
/// evals, fleet snapshots) runs: loop probing the artifact
/// (`probe` returns true on a valid hit and reports what it observed
/// through its StoreLoadOutcome*) and trying to claim the right to
/// produce it, backing off with store_claim_backoff_wait() while another
/// process holds the lease. Fail-soft: it never blocks on a store that
/// cannot deliver — a disabled store or a kUnavailable claim (read-only
/// root, EACCES, persistent ENOSPC) falls through to local compute
/// instead of spinning forever.
ClaimWait claim_or_load(const char* bucket, const std::string& key,
                        const std::function<bool(StoreLoadOutcome*)>& probe);

/// Sleep for the waiter backoff of round `attempt`: exponential
/// (QAVAT_CLAIM_BACKOFF_MS base, default 25 ms, doubling per round,
/// capped at 2 s) with ±25% per-process jitter so a fleet of waiters
/// doesn't stampede the filesystem in lockstep.
void store_claim_backoff_wait(int attempt);

/// Lease TTL in seconds (QAVAT_CLAIM_TTL_S, a real >= 0, default 120;
/// 0 makes every existing claim immediately stale). Re-read from the
/// environment on every call.
double store_claim_ttl_seconds();

/// Base waiter backoff in milliseconds (QAVAT_CLAIM_BACKOFF_MS, an
/// integer in [0, 2000], default 25). Re-read from the environment on
/// every call.
long long store_claim_backoff_ms();

// ------------------------------------------------------ fault injection

/// Deterministic fault-injection points, armed via
/// QAVAT_STORE_FAULT="kind:N[,kind:N...]" where N (>= 1, default 1) is
/// the 1-based count of the matching operation at which the fault fires,
/// once per entry (repeat an entry to fire again later); a bad entry
/// warns and is skipped. Parsed lazily at first store
/// operation; call store_fault_reload() after changing the variable
/// mid-process.
enum class StoreFault {
  kKillBeforeRename,  ///< _exit(kFaultKillExitCode) after the tmp write,
                      ///< before the publishing rename (crash mid-write)
  kTornWrite,         ///< publish only the first half of the payload
                      ///< (torn write survives the atomic rename)
  kEnospc,            ///< fail the tmp write as if the disk were full
  kCorruptRead,       ///< flip one byte of the bytes read back from disk
                      ///< (bit-rot / short read; fails the checksum)
};

/// Re-parse QAVAT_STORE_FAULT and reset all trigger counters (tests
/// toggle faults between phases with setenv + this call).
void store_fault_reload();

// ---------------------------------------------------------- maintenance

/// What one store_gc() pass removed.
struct StoreGcResult {
  long long tmp_removed = 0;         ///< orphaned .tmp.<pid> files
  long long claims_removed = 0;      ///< stale .claim / .reclaim files
  long long quarantine_removed = 0;  ///< quarantined artifacts evicted
};

/// Garbage-collect the schema subtree: remove `.tmp.` files and
/// `.claim`/`.reclaim` files older than `min_age_s` seconds (pass the
/// claim TTL to keep live writers/leases safe), and — with
/// `evict_quarantine` — every quarantined artifact older than the same
/// age. Also runs opportunistically once per process at the first store
/// operation, with min_age = the claim TTL, so a crashed writer's tmp
/// droppings never accumulate forever.
StoreGcResult store_gc(double min_age_s, bool evict_quarantine);

/// What a store_verify_all() walk found.
struct StoreVerifyResult {
  long long ok = 0;                        ///< artifacts that validate
  long long corrupt = 0;                   ///< artifacts that do not
  std::vector<std::string> corrupt_paths;  ///< paths of the corrupt ones
};

/// Walk every artifact under the schema subtree and validate it
/// end-to-end (envelope magic/version/size/checksum for state dicts,
/// header + full value parse for double vectors; the format is sniffed
/// from the leading bytes). With `quarantine_bad`, corrupt artifacts
/// are moved to quarantine so the next consumer retrains instead of
/// tripping over them.
StoreVerifyResult store_verify_all(bool quarantine_bad);

/// Delete every artifact (not claims/tmp — store_gc owns those) older
/// than `seconds` under the schema subtree; returns the number removed.
long long store_evict_older_than(double seconds);

}  // namespace qavat
