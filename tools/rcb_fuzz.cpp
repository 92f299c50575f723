// rcb_fuzz — scenario-fuzzing harness with differential oracles and
// automatic shrinking.
//
//   rcb_fuzz --seed=1 --cases=500                # deterministic sweep
//   rcb_fuzz --seed=1 --cases=200 --out=fuzz-out # write minimized failures
//   rcb_fuzz --canary                            # harness self-check
//
// Samples `cases` scenarios from the full scenario space (every protocol,
// every adversary, faults on/off, CCA drift, battery mode) and runs each
// through the oracle set: digest determinism, energy-ledger conservation
// and adversary budget accounting, event-driven vs dense slotwise engine
// crosscheck at the scenario's channel count (C=1 included), and
// metamorphic monotonicity.  A violation is delta-debugged
// to a minimal failing case and emitted as a replayable scenario JSON plus
// an RCB_REPRO record for `rcb_replay --verify`.
//
// Exit codes: 0 clean sweep (or canary caught AND shrunk to <= 1/4 size),
// 1 usage error, 2 oracle violations found (or canary missed).
#include <iostream>
#include <string>

#include "rcb/cli/flags.hpp"
#include "rcb/testing/fuzzer.hpp"
#include "rcb/testing/shrink.hpp"

namespace rcb {
namespace {

int run_tool(int argc, const char* const* argv) {
  FlagSet flags(
      "rcb_fuzz: scenario fuzzer with differential oracles and automatic "
      "shrinking");
  flags.add_int("seed", 1, "master seed for the scenario generator");
  flags.add_int("cases", 200, "number of scenarios to generate and check");
  flags.add_string("out", "", "directory minimized failures are written to");
  flags.add_bool("canary", false,
                 "inject a known ledger-accounting mutation and verify the "
                 "harness detects and shrinks it (harness self-check)");
  flags.add_int("shrink_evals", 150,
                "evaluation budget for delta-debugging each failure");
  flags.add_int("crosscheck_trials", 60,
                "paired engine runs per statistical crosscheck");
  flags.add_double("family_alpha", 1e-6,
                   "per-scenario family-wise false-positive rate for the "
                   "statistical gates (Bonferroni-split across comparisons)");
  flags.add_bool("quiet", false, "suppress progress output");
  if (!flags.parse(argc, argv)) return 1;

  FuzzOptions opt;
  opt.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  opt.cases = static_cast<std::uint64_t>(flags.get_int("cases"));
  opt.out_dir = flags.get_string("out");
  opt.canary = flags.get_bool("canary");
  opt.shrink_evaluations =
      static_cast<std::size_t>(flags.get_int("shrink_evals"));
  opt.oracles.crosscheck_trials =
      static_cast<std::size_t>(flags.get_int("crosscheck_trials"));
  opt.oracles.family_alpha = flags.get_double("family_alpha");
  if (!flags.get_bool("quiet")) opt.log = &std::cerr;

  const FuzzReport report = run_fuzz(opt);

  if (opt.canary) {
    if (!report.canary_caught) {
      std::cerr << "FAIL: canary mutation not detected — oracle set is "
                   "vacuous\n";
      return 2;
    }
    const bool shrunk_enough =
        report.canary_shrunk_size * 4 <= report.canary_original_size;
    std::cerr << "canary caught; scenario size " << report.canary_original_size
              << " -> " << report.canary_shrunk_size << " ("
              << (shrunk_enough ? "<= 1/4, OK" : "NOT <= 1/4") << ")\n";
    return shrunk_enough ? 0 : 2;
  }

  std::cerr << report.cases_run << " scenarios checked, "
            << report.failures.size() << " violation(s)\n";
  for (const FuzzFailure& f : report.failures) {
    std::cerr << "VIOLATION case " << f.case_index << " [" << f.oracle
              << "] " << f.detail << "\n  minimized: "
              << scenario_to_json(f.minimized) << "\n";
    if (!f.scenario_path.empty()) {
      std::cerr << "  minimized scenario: " << f.scenario_path
                << "\n  repro record:       " << f.record_path << "\n";
    }
  }
  return report.failures.empty() ? 0 : 2;
}

}  // namespace
}  // namespace rcb

int main(int argc, char** argv) { return rcb::run_tool(argc, argv); }
