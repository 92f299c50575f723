// Output checks against the method: what the paper and the program's own
// design promise, never a stored copy of an earlier run's output.
#include <cmath>
#include <cstdio>

#include "bench.hpp"
#include "rcb/stats/regression.hpp"

namespace perfbench {
namespace {

/// One-sided significance of the delivery check.
constexpr double kDeliveryAlpha = 0.01;

/// Band on the Theorem 1 exponent (README: "Output checks").
constexpr double kSlopeLow = 0.40;
constexpr double kSlopeHigh = 0.60;

std::string fmt(const char* format, double a, double b = 0.0,
                double c = 0.0) {
  char buf[160];
  std::snprintf(buf, sizeof buf, format, a, b, c);
  return buf;
}

/// Clopper-Pearson: `successes` of `n` is consistent with a success
/// probability >= 1 - eps at level alpha, i.e. the one-sided upper
/// confidence bound on p reaches 1 - eps.  Equivalently, with
/// F ~ Bin(n, eps) failures, P(F >= n - successes) >= alpha.
bool delivery_consistent(std::uint64_t successes, std::uint64_t n,
                         double eps) {
  const std::uint64_t f = n - successes;
  if (f == 0) return true;
  const double log_eps = std::log(eps);
  const double log_keep = std::log1p(-eps);
  const double nn = static_cast<double>(n);
  double below = 0.0;  // P(F < f)
  for (std::uint64_t i = 0; i < f; ++i) {
    const double ii = static_cast<double>(i);
    below += std::exp(std::lgamma(nn + 1) - std::lgamma(ii + 1) -
                      std::lgamma(nn - ii + 1) + ii * log_eps +
                      (nn - ii) * log_keep);
  }
  return 1.0 - below >= kDeliveryAlpha;
}

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace

std::uint64_t trial_events(const rcb::Scenario& s,
                           const rcb::TrialOutcome& out) {
  const double nodes = s.is_duel() ? 2.0 : static_cast<double>(s.n);
  return static_cast<std::uint64_t>(std::llround(out.mean_cost * nodes));
}

WorkCounters count_work(const TimedSweep& sweep) {
  WorkCounters w;
  w.digest = 0xcbf29ce484222325ull;
  for (const rcb::SweepResult& p : sweep.points) {
    w.trials += p.records.size();
    w.failed += p.failed_trials;
    for (const rcb::CheckpointRecord& rec : p.records) {
      if (rec.status != "ok") continue;
      w.events += trial_events(p.scenario, rec.outcome);
      w.slots += static_cast<std::uint64_t>(rec.outcome.latency);
    }
    w.digest = fnv_mix(w.digest, p.aggregate_digest);
  }
  return w;
}

void check_sweep(const WorkloadPlan& plan, const TimedSweep& sweep,
                 CheckLog& log) {
  log.expect(sweep.ok, "sweep completed" +
                           (sweep.ok ? std::string() : ": " + sweep.error));
  if (!sweep.ok || sweep.points.size() != plan.cells.size()) return;

  std::vector<double> e1_budgets;
  std::vector<double> e1_costs;
  for (std::size_t i = 0; i < plan.cells.size(); ++i) {
    const Cell& cell = plan.cells[i];
    const rcb::SweepResult& p = sweep.points[i];
    const std::string& tag = cell.label;
    log.expect(!p.interrupted && p.records.size() == cell.scenario.trials,
               tag + ": all " + std::to_string(cell.scenario.trials) +
                   " trials recorded (" + std::to_string(p.records.size()) +
                   ")");
    log.expect(p.timed_out == 0, tag + ": no trial timed out");
    if (cell.expect_failure) {
      log.expect(p.failed_trials == p.records.size(),
                 tag + ": every trial fails on the slot cap (" +
                     std::to_string(p.failed_trials) + " of " +
                     std::to_string(p.records.size()) + ")");
      continue;
    }
    log.expect(p.failed_trials == 0, tag + ": no trial failed");

    std::uint64_t ok = 0;
    std::uint64_t delivered = 0;
    double max_cost_sum = 0.0;
    double worst_spend = 0.0;
    for (const rcb::CheckpointRecord& rec : p.records) {
      if (rec.status != "ok") continue;
      ++ok;
      delivered += rec.outcome.success ? 1 : 0;
      max_cost_sum += rec.outcome.max_cost;
      worst_spend = std::max(worst_spend, rec.outcome.adversary_cost);
    }
    const double budget = static_cast<double>(cell.scenario.budget);
    log.expect(ok > 0 && delivery_consistent(delivered, ok, cell.scenario.eps),
               tag + fmt(": delivered %.0f of %.0f, consistent with >= 1-eps "
                         "(eps=%g, Clopper-Pearson, 99%%)",
                         static_cast<double>(delivered),
                         static_cast<double>(ok), cell.scenario.eps));
    log.expect(worst_spend <= budget,
               tag + fmt(": adversary cost <= T (max %.0f, T=%.0f)",
                         worst_spend, budget));
    if (cell.scenario.protocol == "one_to_one" &&
        cell.scenario.adversary == "full_duel" && ok > 0) {
      e1_budgets.push_back(budget);
      e1_costs.push_back(max_cost_sum / static_cast<double>(ok));
    }
  }

  if (e1_budgets.size() >= 3) {
    const rcb::PowerLawFit fit = rcb::fit_power_law(e1_budgets, e1_costs);
    log.expect(fit.exponent >= kSlopeLow && fit.exponent <= kSlopeHigh,
               fmt("Theorem 1 exponent of one_to_one mean max-cost vs T: "
                   "%.3f, band [%.2f, %.2f]",
                   fit.exponent, kSlopeLow, kSlopeHigh));
  }
}

void check_same_digests(const TimedSweep& a, const TimedSweep& b,
                        const std::string& what, CheckLog& log) {
  bool same = a.ok && b.ok && a.points.size() == b.points.size();
  for (std::size_t i = 0; same && i < a.points.size(); ++i) {
    same = a.points[i].aggregate_digest == b.points[i].aggregate_digest &&
           a.points[i].records.size() == b.points[i].records.size();
  }
  log.expect(same, what + ": per-point aggregate digests equal");
}

}  // namespace perfbench
