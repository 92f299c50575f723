// Shared declarations of the end-to-end benchmark (see ../README.md).
//
// The benchmark drives the simulator only through its public entry points:
// supervised sweeps (run_supervised_sweep_points), the shard coordinator
// (run_shard_coordinator) and, in the traced run, the protocol entry points
// with forwarding adversaries.  Nothing here is compiled into the library.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "rcb/runtime/scenario.hpp"
#include "rcb/runtime/supervisor.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Nanoseconds on the steady clock.  On Linux this is CLOCK_MONOTONIC, so
/// stamps taken in worker processes compare with the parent's.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Workloads

/// One sweep point of a workload: a scenario and how many of its trials one
/// round holds.
struct Cell {
  std::string label;
  rcb::Scenario scenario;  ///< `trials` = rounds * per_round
  std::uint64_t per_round = 0;
  /// The slot-cap point: every trial fails on the packed-key slot cap, on
  /// a fixed seed.  It is excluded from warm-ups, replays and the
  /// per-point statistical checks, and is the only point allowed to fail.
  bool expect_failure = false;
};

struct WorkloadPlan {
  std::string name;
  std::vector<Cell> cells;
  std::size_t executors = 1;
  bool journal = false;
  bool sharded = false;
  std::uint64_t rounds = 1;
  /// Set-ups per untraced run; setup_s is their median.  More where one
  /// set-up is short enough for timer and file-system noise to show.
  int setups = 3;
  /// Trials of each non-failing cell replayed by the traced run.
  std::uint64_t traced_trials_per_cell = 1;
};

/// Builds `name`'s cells for a run of `seconds` at `seed`; `quick` uses the
/// small trial counts of the benchmark's self-test.  Returns false for an
/// unknown name.
bool make_plan(const std::string& name, std::uint64_t seed, int seconds,
               bool quick, WorkloadPlan& plan);

// ---------------------------------------------------------------------------
// Timed sweeps

/// A trial as the timing TrialRunner saw it.
struct TrialTiming {
  std::size_t cell = 0;
  std::uint64_t trial = 0;
  double ms = 0.0;
};

/// One timed stretch of a sweep: a round, or the whole sharded sweep.
struct Segment {
  double wall_s = 0.0;
  double busy_s = 0.0;  ///< summed wall time of its trials
  std::uint64_t trials = 0;
  std::uint64_t events = 0;
  double trial_ms_p50 = 0.0;
};

/// Result of one timed in-process or sharded sweep.
struct TimedSweep {
  bool ok = false;
  std::string error;
  std::vector<rcb::SweepResult> points;  ///< one per cell
  /// Wall time from the first trial's start to the sweep's return, summed
  /// over segments.
  double wall_s = 0.0;
  /// Everything before the first trial started, inside the sweep call
  /// (checkpoint creation, task submission; spawn and attach when sharded).
  double pre_trial_s = 0.0;
  std::vector<TrialTiming> trials;
  std::vector<Segment> segments;
  std::size_t executors = 1;
};

/// Per-cell half-open trial ranges; empty means every cell's full range.
using Ranges = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

/// Round `round` of every cell: trials [round, round + 1) * per_round.
Ranges round_ranges(const WorkloadPlan& plan, std::uint64_t round);

/// The warm-up: trial 0 of every cell but the slot-cap cell, which gets an
/// empty range (it only creates its checkpoint).
Ranges warmup_ranges(const WorkloadPlan& plan);

/// Runs the plan's cells on `pool` through run_supervised_sweep_points with
/// a TrialRunner that times run_scenario_trial.  `journal_dir` empty turns
/// the journal off; otherwise each cell journals under
/// `journal_dir/cell_<i>`.  The result holds one segment.
TimedSweep run_timed_sweep(const WorkloadPlan& plan, rcb::ThreadPool& pool,
                           const std::string& journal_dir,
                           const Ranges& ranges = {});

/// Runs the plan round by round, one run_timed_sweep per round (journals
/// under `journal_dir/round_<r>`), and folds the rounds into one result
/// with one segment per round; the folded per-point digests are those of
/// a single sweep over the full ranges.  With `paired_off`, every round is
/// run a second time right after, journal off, into *paired_off, so the
/// two differ only in the journal and in host noise of adjacent seconds.
TimedSweep run_rounds(const WorkloadPlan& plan, rcb::ThreadPool& pool,
                      const std::string& journal_dir,
                      TimedSweep* paired_off = nullptr);

/// Runs the plan's cells through the shard coordinator over two
/// socket-attached worker processes of one thread each (this binary,
/// re-entered with --attach); `root` is the sweep root.
TimedSweep run_sharded_sweep(const WorkloadPlan& plan, const std::string& root);

/// Worker-process entry point of the sharded sweep: serves shard attempts
/// for the coordinator at host:port and, on exit, writes the start time and
/// duration of every trial it ran to `stamps_path`.
int run_attach_worker(const std::string& host_port,
                      const std::string& stamps_path);

/// Re-merges the shard journals under `root` and returns the wall time of
/// merge_shard_journals in ms (negative on a failed merge).
double time_shard_merge(const WorkloadPlan& plan, const std::string& root);

// ---------------------------------------------------------------------------
// Output checks

struct CheckLog {
  std::vector<std::string> passed;
  std::vector<std::string> failed;
  void expect(bool ok, const std::string& what) {
    (ok ? passed : failed).push_back(what);
  }
  bool ok() const { return failed.empty(); }
};

/// Checks one finished sweep against the method: every trial present,
/// failures only (and always) on the slot-cap cell, delivery consistent
/// with >= 1 - eps (Clopper-Pearson), adversary cost <= T, and for duel
/// workloads the Theorem 1 exponent band.
void check_sweep(const WorkloadPlan& plan, const TimedSweep& sweep,
                 CheckLog& log);

/// Per-point aggregate digests of `a` and `b` are equal.
void check_same_digests(const TimedSweep& a, const TimedSweep& b,
                        const std::string& what, CheckLog& log);

/// Work done by a sweep, identical across runs of the same seed.
struct WorkCounters {
  std::uint64_t trials = 0;
  std::uint64_t failed = 0;
  std::uint64_t events = 0;  ///< sends + listens of every node, ok trials
  std::uint64_t slots = 0;   ///< simulated slots (latency), ok trials
  std::uint64_t digest = 0;  ///< FNV-1a over the per-point digests
};
WorkCounters count_work(const TimedSweep& sweep);

/// Sends + listens of all nodes in one trial (the paper's energy).
std::uint64_t trial_events(const rcb::Scenario& s,
                           const rcb::TrialOutcome& out);

// ---------------------------------------------------------------------------
// Traced run

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Replays the plan's first traced_trials_per_cell trials of every
/// non-failing cell through the protocol entry points with forwarding
/// adversaries, checks them against `untraced`, and appends the layer
/// metrics the replay measures.  Spans go to `spans_path`.
void traced_replay(const WorkloadPlan& plan, const TimedSweep& untraced,
                   const std::string& spans_path, std::vector<Metric>& out,
                   CheckLog& log);

}  // namespace perfbench
