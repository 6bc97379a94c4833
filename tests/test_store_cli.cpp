// qavat-store CLI smoke, promoted from ci/build_and_test.sh shell steps
// into a ctest-registered test so every local ctest run covers the
// operator tooling too. Drives the real binary (path in argv[1])
// end-to-end against a private store this test populates through the
// library: inspect, verify on a clean store, corruption detection +
// --quarantine healing, gc of backdated tmp/claim litter, age-based
// eviction and rejection of malformed ages — asserting exit codes at
// every step.
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "eval/store.h"
#include "tensor/serialize.h"
#include "tests/test_common.h"

using namespace qavat;
namespace fs = std::filesystem;

namespace {

std::string g_cli;   // path to the qavat-store binary
std::string g_root;  // private store root

// Run `qavat-store <args> --root <root>` and return its exit code
// (-1 if it did not exit normally).
int cli(const std::string& args) {
  const std::string cmd = g_cli + " " + args + " --root '" + g_root + "'";
  const int status = std::system(cmd.c_str());
  if (status == -1 || !WIFEXITED(status)) return -1;
  return WEXITSTATUS(status);
}

// Every regular artifact file under the store root (claims, tmp files
// and quarantine excluded) — the files verify/evict operate on.
std::vector<fs::path> artifact_files() {
  std::vector<fs::path> out;
  std::error_code ec;
  for (auto it = fs::recursive_directory_iterator(
           g_root, fs::directory_options::skip_permission_denied, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (!it->is_regular_file(ec)) continue;
    const std::string name = it->path().filename().string();
    if (name.find(".claim") != std::string::npos) continue;
    if (name.find(".tmp.") != std::string::npos) continue;
    if (it->path().string().find("quarantine") != std::string::npos) continue;
    out.push_back(it->path());
  }
  return out;
}

void backdate(const fs::path& p, int seconds_ago) {
  std::error_code ec;
  fs::last_write_time(
      p, fs::file_time_type::clock::now() - std::chrono::seconds(seconds_ago),
      ec);
  CHECK(!ec);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s <path-to-qavat-store>\n", argv[0]);
    return 2;
  }
  g_cli = argv[1];
  g_root = (fs::temp_directory_path() /
            ("qavat-test-store-cli-" + std::to_string(::getpid())))
               .string();
  ::setenv("QAVAT_STORE_DIR", g_root.c_str(), 1);
  ::setenv("QAVAT_STORE", "1", 1);
  std::error_code ec;
  fs::remove_all(g_root, ec);

  // Populate through the library: one doubles artifact, one state dict.
  CHECK(store_save_doubles("results", "cli_smoke_result", {1.0, 2.0, 3.0}));
  StateDict sd;
  sd.add_scalar("alpha", 0.5);
  sd.add_scalar("beta", 2.25);
  CHECK(store_save_state("models", "cli_smoke_model", sd));
  CHECK(store_has("results", "cli_smoke_result"));
  CHECK(store_has("models", "cli_smoke_model"));

  // inspect and verify succeed on a clean store.
  CHECK(cli("inspect") == 0);
  CHECK(cli("verify") == 0);

  // Corrupt one artifact in place: verify must flag it (exit 1), and
  // --quarantine must move it aside so the NEXT verify is clean again.
  std::vector<fs::path> files = artifact_files();
  CHECK(files.size() == 2);
  {
    std::ofstream f(files[0], std::ios::binary | std::ios::trunc);
    f << "garbage, not an artifact envelope";
  }
  CHECK(cli("verify") == 1);
  CHECK(cli("verify --quarantine") == 1);
  CHECK(cli("verify") == 0);
  CHECK(artifact_files().size() == 1);

  // gc removes backdated tmp litter and stale claims, leaves the
  // healthy artifact alone.
  const fs::path bucket_dir = artifact_files()[0].parent_path();
  const fs::path tmp = bucket_dir / "orphan.tmp.999";
  const fs::path claim = (artifact_files()[0].string() + ".claim");
  {
    std::ofstream(tmp) << "torn write";
    std::ofstream(claim) << "pid=0 host=gone";
  }
  backdate(tmp, 7200);
  backdate(claim, 7200);
  CHECK(cli("gc") == 0);
  CHECK(!fs::exists(tmp, ec));
  CHECK(!fs::exists(claim, ec));
  CHECK(artifact_files().size() == 1);

  // evict removes artifacts older than the cutoff — and only those.
  CHECK(store_save_doubles("results", "cli_smoke_fresh", {4.0}));
  // Backdate the ORIGINAL artifact (the fresh one keeps its mtime).
  for (const fs::path& p : artifact_files()) {
    if (p.string().find("cli_smoke_fresh") == std::string::npos) {
      backdate(p, 7200);
    }
  }
  CHECK(cli("evict --older-than 3600") == 0);
  CHECK(artifact_files().size() == 1);
  CHECK(store_has("results", "cli_smoke_fresh"));
  CHECK(cli("verify") == 0);

  // A malformed age is a usage error (exit 2) that touches nothing: a
  // lenient parse would read it as 0 and evict every artifact, or gc a
  // live lease out from under its producer.
  const std::vector<fs::path> kept = artifact_files();
  const fs::path live_claim = kept[0].string() + ".claim";
  std::ofstream(live_claim) << "pid=1 host=live";
  for (const char* bad :
       {"evict --older-than abc", "evict --older-than -1",
        "evict --older-than 5x", "gc --min-age abc"}) {
    CHECK(cli(bad) == 2);
    CHECK(artifact_files() == kept);
    CHECK(fs::exists(live_claim, ec));
  }
  fs::remove(live_claim, ec);

  // Bad usage exits nonzero.
  CHECK(cli("evict") != 0);
  CHECK(cli("frobnicate") != 0);

  fs::remove_all(g_root, ec);
  return qavat::test::finish("test_store_cli");
}
