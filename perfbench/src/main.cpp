// qavat_perfbench — the repository benchmark program (run it through
// perfbench/run.py, which builds it, pins the environment and enforces
// the time limit):
//
//   qavat_perfbench --workload <name> --seed <n> --seconds <s>
//                   --trace <0|1> --scratch <dir>
//
// --trace 0 prints the end-to-end metrics of one workload; --trace 1
// prints the per-layer metrics: the workload's cold and warm units
// traced (the warm unit also untraced, so the tracing overhead shows),
// then the layer replay.
// The last stdout line is the result JSON; everything else goes to
// stderr. Exit code 0 only when the run completed (checks may still have
// failed: they are counted in the result).
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "eval/experiment.h"
#include "replay.h"
#include "tensor/int_ops.h"
#include "tensor/parallel_for.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch;
};

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--scratch") {
      a->scratch = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && !a->scratch.empty();
}

std::string cpu_model() {
  std::ifstream is("/proc/cpuinfo");
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto p = line.find(':');
      return p == std::string::npos ? line : line.substr(p + 2);
    }
  }
  return "unknown";
}

bool cpu_has_vnni() {
  std::ifstream is("/proc/cpuinfo");
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("flags", 0) == 0) {
      return line.find(" avx512_vnni") != std::string::npos;
    }
  }
  return false;
}

double peak_rss_mb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: qavat_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> --scratch <dir>\n");
    return 2;
  }
  Outcome outcome;
  std::unique_ptr<Workload> w =
      make_workload(args.workload, args.seed, args.scratch, outcome);
  if (w == nullptr) {
    std::fprintf(stderr, "qavat_perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  if (!qavat::fast_mode()) {
    std::fprintf(stderr, "qavat_perfbench: QAVAT_FAST=1 must be set\n");
    return 2;
  }
  std::filesystem::create_directories(args.scratch);
  {
    // Host facts, for the run record: the int8 kernel depends on VNNI.
    char host[512];
    std::snprintf(host, sizeof(host),
                  "{\"nproc\": %u, \"threads\": %lld, \"cpu\": \"%s\", "
                  "\"avx512_vnni\": %s, \"int8_kernel\": \"%s\", "
                  "\"compiler\": \"g++ %s\", \"build_type\": \"%s\"}",
                  std::thread::hardware_concurrency(),
                  static_cast<long long>(qavat::num_threads()),
                  cpu_model().c_str(), cpu_has_vnni() ? "true" : "false",
                  qavat::detail::int8_kernel_name(), __VERSION__,
                  PERFBENCH_BUILD_TYPE);
    std::fprintf(stderr, "[perfbench] host: %s\n", host);
    std::ofstream(args.scratch + "/host.json") << host << "\n";
  }

  Report report;
  if (!args.trace) {
    std::vector<double> setup_s, cold_s, warm_s;
    for (int i = 0; i < w->setup_reps(); ++i) {
      const auto t0 = Clock::now();
      w->setup();
      setup_s.push_back(seconds_since(t0));
    }
    double work = 0.0;
    double measured = 0.0;
    while (static_cast<int>(cold_s.size()) < w->min_cold_reps() ||
           measured < args.seconds) {
      w->prepare_cold();
      const auto t0 = Clock::now();
      work = w->cold();
      cold_s.push_back(seconds_since(t0));
      measured += cold_s.back();
      std::fprintf(stderr, "[perfbench] %s: cold rep %zu: %.4f s\n",
                   args.workload.c_str(), cold_s.size(), cold_s.back());
    }
    for (int i = 0; i < w->warm_reps(); ++i) {
      w->prepare_warm();
      const auto t0 = Clock::now();
      w->warm();
      warm_s.push_back(seconds_since(t0));
    }
    std::fprintf(stderr, "[perfbench] %s: setup reps=%zu cold reps=%zu warm reps=%zu\n",
                 args.workload.c_str(), setup_s.size(), cold_s.size(),
                 warm_s.size());
    report.set("cold_s", median(cold_s), "s");
    report.set("warm_s", median(warm_s), "s");
    report.set("work_per_s", work / median(cold_s), "1/s");
    report.set("setup_s", median(setup_s), "s");
    report.set("peak_rss_mb", peak_rss_mb(), "MB");
    const double attempted =
        static_cast<double>(std::max(1LL, outcome.attempted));
    report.set("ok_frac",
               static_cast<double>(outcome.attempted - outcome.failed) / attempted,
               "frac");
  } else {
    // The cold unit runs once, traced: its untraced twin is cold_s of a
    // --trace 0 run with the same seed. The warm unit runs untraced and
    // traced here, so the overhead also shows within one process.
    w->setup();
    w->prepare_cold();
    tracer().enable(true);
    auto t0 = Clock::now();
    {
      Span span("workload", args.workload + ".cold");
      w->cold();
    }
    const double cold = seconds_since(t0);
    tracer().enable(false);
    w->prepare_warm();
    t0 = Clock::now();
    w->warm();
    const double warm_untraced = seconds_since(t0);
    tracer().enable(true);
    w->prepare_warm();
    t0 = Clock::now();
    {
      Span span("workload", args.workload + ".warm");
      w->warm();
    }
    const double warm = seconds_since(t0);
    run_replay(args.seed, args.scratch, report, outcome);
    tracer().enable(false);
    report.set("trace.cold_s", cold, "s");
    report.set("trace.warm_s", warm, "s");
    report.set("trace.untraced_warm_s", warm_untraced, "s");
    report.set("trace.overhead_frac", warm / warm_untraced - 1.0, "frac");
    report.set("trace.spans", static_cast<double>(tracer().spans().size()),
               "count");
    const auto self = tracer().self_seconds();
    for (const char* layer :
         {"data", "train", "runner", "store", "models", "tensor", "quant",
          "variability", "lifetime", "selftune", "pim", "evaluator", "fleet"}) {
      auto it = self.find(layer);
      report.set(std::string("self_s.") + layer,
                 it == self.end() ? 0.0 : it->second, "s");
    }
    report.set("host.nproc", std::thread::hardware_concurrency(), "count");
    report.set("host.avx512_vnni", cpu_has_vnni() ? 1.0 : 0.0, "bool");
    const std::string trace_path = args.scratch + "/trace.json";
    if (!tracer().write_json(trace_path)) {
      std::fprintf(stderr, "[perfbench] could not write %s\n",
                   trace_path.c_str());
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              outcome.failed == 0 && outcome.attempted > 0 ? "true" : "false",
              std::max(1LL, outcome.attempted), outcome.failed,
              report.to_json().c_str());
  std::fflush(stdout);
  return 0;
}
