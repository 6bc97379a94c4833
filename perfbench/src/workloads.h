// The benchmark's three workloads. Each one drives the library only
// through public entry points (Session, FleetEvaluator, the store) and
// checks its own outputs; the runner in main.cpp times the phases:
//
//   setup()         dataset synthesis plus any set-up training (setup_s)
//   prepare_cold()  untimed reset: fresh private store, fresh Session
//   cold()          the timed unit (cold_s); returns the work items done
//   prepare_warm()  untimed, before each warm unit: stage the store
//   warm()          serve the unit again from the store (warm_s)
//
// README.md says why each workload exists and which layers it stresses.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "eval/fleet.h"
#include "eval/runner.h"

namespace perfbench {

class Workload {
 public:
  virtual ~Workload() = default;
  virtual void setup() = 0;
  virtual void prepare_cold() {}
  virtual double cold() = 0;
  virtual void prepare_warm() {}
  virtual void warm() = 0;
  /// Set-ups per run; setup_s is their median.
  virtual int setup_reps() const = 0;
  /// Cold units per run at least, however short --seconds is: the
  /// reported cold_s is their median.
  virtual int min_cold_reps() const = 0;
  /// Warm units per run; warm_s is their median.
  virtual int warm_reps() const = 0;
};

/// Names accepted by make_workload, in BENCHMARK.json order.
std::vector<std::string> workload_names();

/// The named workload with its specs generated from `seed`; private
/// stores live under `scratch`; checks count into `outcome`. nullptr for
/// an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& scratch,
                                        Outcome& outcome);

/// The built-in table1 manifest with every spec seed derived from
/// `seed`: init and train seeds per (model, bits) row — so QAT
/// pretraining stays shared across algorithms exactly as in the default
/// grid — and the Monte-Carlo seed per (row, sigma).
std::vector<qavat::ScenarioSpec> table1_specs(std::uint64_t seed);

/// The built-in fleet_mixed study with its scenario and lifetime seeds
/// derived from `seed`.
qavat::FleetStudySpec fleet_mixed_spec(std::uint64_t seed);

/// Clean test accuracy a LeNet-5s model must exceed: 2.5x the 10-class
/// chance level; fast-budget LeNet-5s models reach 0.45-0.9 on the digits.
inline constexpr double kLeNetFloor = 0.25;

}  // namespace perfbench
