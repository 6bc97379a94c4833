// qavat-store: maintenance CLI for the on-disk artifact store — the
// operational counterpart of eval/store.h for a fleet sharing one store
// over a filesystem.
//
//   qavat-store inspect [--root DIR]
//       Summarize the store: per budget/bucket artifact counts and
//       bytes, in-flight/orphaned tmp files, live/stale claim leases,
//       quarantined artifacts.
//   qavat-store verify [--root DIR] [--quarantine]
//       Walk every artifact and validate it end-to-end (envelope magic,
//       version, size, trailing checksum for state dicts; header + full
//       value parse for double vectors). Nonzero exit if anything is
//       corrupt; --quarantine moves the corrupt files aside so the next
//       consumer retrains instead of tripping over them.
//   qavat-store gc [--root DIR] [--min-age S] [--evict-quarantine]
//       Remove orphaned .tmp files and stale .claim leases older than
//       --min-age seconds (default: the claim TTL, QAVAT_CLAIM_TTL_S),
//       and with --evict-quarantine the quarantined artifacts too.
//   qavat-store evict [--root DIR] --older-than S
//       Delete artifacts older than S seconds (cache eviction; claims
//       and tmp files are gc's business).
//
// --root overrides QAVAT_STORE_DIR; with neither, the default store
// root artifacts/store (relative to the working directory) is used.
// S must be a non-negative decimal ("3600", "0", "1.5"); anything else
// prints usage and exits 2.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "eval/store.h"
#include "tensor/env.h"

namespace fs = std::filesystem;
using namespace qavat;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <inspect|verify|gc|evict> [--root DIR]\n"
               "  inspect                      summarize artifacts, claims, "
               "tmp and quarantine\n"
               "  verify [--quarantine]        validate every artifact "
               "checksum; exit 1 on corruption\n"
               "  gc [--min-age S] [--evict-quarantine]\n"
               "                               remove orphaned tmp + stale "
               "claims (default age: claim TTL)\n"
               "  evict --older-than S         delete artifacts older than S "
               "seconds\n",
               argv0);
  return 2;
}

bool file_is_tmp(const std::string& name) {
  return name.find(".tmp.") != std::string::npos;
}

bool file_is_claim(const std::string& name) {
  return (name.size() >= 6 && name.rfind(".claim") == name.size() - 6) ||
         name.find(".claim.reclaim.") != std::string::npos;
}

struct BucketSummary {
  long long files = 0;
  long long bytes = 0;
};

int cmd_inspect() {
  const fs::path root = store_root();
  std::error_code ec;
  if (!fs::exists(root, ec)) {
    std::printf("store %s: empty (no such directory)\n", root.c_str());
    return 0;
  }
  // Keyed by "<budget>/<bucket>" relative to the schema directory.
  std::map<std::string, BucketSummary> buckets;
  long long tmp_files = 0, claim_files = 0, stale_claims = 0;
  const double ttl = store_claim_ttl_seconds();
  const fs::path schema =
      root / ("v" + std::to_string(kStoreSchemaVersion));
  if (fs::exists(schema, ec)) {
    for (auto it = fs::recursive_directory_iterator(
             schema, fs::directory_options::skip_permission_denied, ec);
         !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
      if (!it->is_regular_file(ec)) continue;
      const fs::path& p = it->path();
      const std::string name = p.filename().string();
      if (file_is_tmp(name)) {
        ++tmp_files;
        continue;
      }
      if (file_is_claim(name)) {
        ++claim_files;
        const auto mtime = fs::last_write_time(p, ec);
        if (!ec) {
          const auto now = fs::file_time_type::clock::now();
          const double age =
              std::chrono::duration<double>(now - mtime).count();
          if (age >= ttl) ++stale_claims;
        }
        continue;
      }
      const std::string rel =
          fs::relative(p.parent_path(), schema, ec).string();
      BucketSummary& b = buckets[ec ? std::string("?") : rel];
      ++b.files;
      b.bytes += static_cast<long long>(it->file_size(ec));
    }
  }
  long long quarantined = 0;
  const fs::path qdir = store_quarantine_dir();
  if (fs::exists(qdir, ec)) {
    for (auto it = fs::directory_iterator(qdir, ec);
         !ec && it != fs::directory_iterator(); it.increment(ec)) {
      if (it->is_regular_file(ec)) ++quarantined;
    }
  }
  std::printf("store %s (schema v%d)\n", root.c_str(), kStoreSchemaVersion);
  long long total_files = 0, total_bytes = 0;
  for (const auto& kv : buckets) {
    std::printf("  %-28s %8lld artifacts %12lld bytes\n", kv.first.c_str(),
                kv.second.files, kv.second.bytes);
    total_files += kv.second.files;
    total_bytes += kv.second.bytes;
  }
  std::printf("  total: %lld artifacts, %lld bytes\n", total_files,
              total_bytes);
  std::printf("  tmp files: %lld, claims: %lld (%lld stale at TTL %.0fs), "
              "quarantined: %lld\n",
              tmp_files, claim_files, stale_claims, ttl, quarantined);
  return 0;
}

int cmd_verify(bool quarantine_bad) {
  const StoreVerifyResult r = store_verify_all(quarantine_bad);
  for (const std::string& p : r.corrupt_paths) {
    std::printf("CORRUPT %s%s\n", p.c_str(),
                quarantine_bad ? " (quarantined)" : "");
  }
  std::printf("verify %s: %lld ok, %lld corrupt\n", store_root().c_str(),
              r.ok, r.corrupt);
  return r.corrupt == 0 ? 0 : 1;
}

int cmd_gc(double min_age, bool evict_quarantine) {
  const StoreGcResult r = store_gc(min_age, evict_quarantine);
  std::printf("gc %s: removed %lld tmp, %lld stale claims, %lld quarantined "
              "(min age %.0fs)\n",
              store_root().c_str(), r.tmp_removed, r.claims_removed,
              r.quarantine_removed, min_age);
  return 0;
}

int cmd_evict(double older_than) {
  const long long n = store_evict_older_than(older_than);
  std::printf("evict %s: removed %lld artifacts older than %.0fs\n",
              store_root().c_str(), n, older_than);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  const std::string cmd = argv[1];
  bool quarantine_flag = false, evict_quarantine = false;
  double min_age = -1.0, older_than = -1.0;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      ::setenv("QAVAT_STORE_DIR", argv[++i], 1);
    } else if (arg == "--quarantine") {
      quarantine_flag = true;
    } else if (arg == "--evict-quarantine") {
      evict_quarantine = true;
    } else if ((arg == "--min-age" || arg == "--older-than") &&
               i + 1 < argc) {
      // A lax parse would read "abc" as 0, and an evict or gc at age 0
      // removes every artifact or lease.
      if (!parse_real(argv[++i], 0.0, std::numeric_limits<double>::max(),
                      arg == "--min-age" ? &min_age : &older_than)) {
        std::fprintf(stderr,
                     "qavat-store: %s expects a non-negative number of "
                     "seconds, got '%s'\n",
                     arg.c_str(), argv[i]);
        return usage(argv[0]);
      }
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return usage(argv[0]);
    }
  }
  if (cmd == "inspect") return cmd_inspect();
  if (cmd == "verify") return cmd_verify(quarantine_flag);
  if (cmd == "gc") {
    return cmd_gc(min_age >= 0.0 ? min_age : store_claim_ttl_seconds(),
                  evict_quarantine);
  }
  if (cmd == "evict") {
    if (older_than < 0.0) {
      std::fprintf(stderr, "evict requires --older-than S\n");
      return usage(argv[0]);
    }
    return cmd_evict(older_than);
  }
  return usage(argv[0]);
}
