// Timed sweeps: in-process through run_supervised_sweep_points, and sharded
// through the shard coordinator with socket-attached workers.
#include <sys/resource.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>

#include "bench.hpp"
#include "rcb/runtime/coordinator.hpp"
#include "rcb/runtime/shard.hpp"
#include "rcb/runtime/transport_socket.hpp"
#include "rcb/stats/summary.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

constexpr std::size_t kShardWorkers = 2;

/// Cells are told apart by their scenario seed (workloads.cpp makes them
/// distinct), which is what a TrialRunner sees.
std::size_t cell_of_seed(const WorkloadPlan& plan, std::uint64_t seed) {
  for (std::size_t i = 0; i < plan.cells.size(); ++i) {
    if (plan.cells[i].scenario.seed == seed) return i;
  }
  return plan.cells.size();
}

/// Attempt 0 is run_scenario_trial itself; later attempts reseed exactly
/// as the supervisor's default runner does.
rcb::TrialOutcome run_attempt(const rcb::Scenario& s, std::uint64_t trial,
                              std::uint32_t attempt) {
  if (attempt == 0) return rcb::run_scenario_trial(s, trial);
  rcb::Scenario reseeded = s;
  reseeded.seed = rcb::reseed_for_attempt(s.seed, attempt);
  return rcb::run_scenario_trial(reseeded, trial);
}

/// Collects (seed, trial, start, duration) of every trial a runner ran,
/// including trials that end in a contract failure.
class TrialClock {
 public:
  struct Stamp {
    std::uint64_t seed = 0;
    std::uint64_t trial = 0;
    std::int64_t start_ns = 0;
    std::int64_t dur_ns = 0;
  };

  rcb::TrialOutcome run(const rcb::Scenario& s, std::uint64_t trial,
                        std::uint32_t attempt) {
    const std::int64_t t0 = now_ns();
    try {
      rcb::TrialOutcome out = run_attempt(s, trial, attempt);
      record(s.seed, trial, t0);
      return out;
    } catch (...) {
      record(s.seed, trial, t0);
      throw;
    }
  }

  std::vector<Stamp> stamps() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return stamps_;
  }

 private:
  void record(std::uint64_t seed, std::uint64_t trial, std::int64_t t0) {
    const std::int64_t t1 = now_ns();
    std::lock_guard<std::mutex> lock(mutex_);
    stamps_.push_back(Stamp{seed, trial, t0, t1 - t0});
  }

  mutable std::mutex mutex_;
  std::vector<Stamp> stamps_;
};

/// Turns the runner's stamps into the sweep's timings: the timed phase runs
/// from the first trial's start to the sweep's return and is one segment.
/// Call after out.points is set.
void fill_timings(const WorkloadPlan& plan,
                  const std::vector<TrialClock::Stamp>& stamps,
                  std::int64_t call_ns, std::int64_t return_ns,
                  TimedSweep& out) {
  std::int64_t first = return_ns;
  std::vector<double> ms;
  ms.reserve(stamps.size());
  out.trials.reserve(stamps.size());
  for (const TrialClock::Stamp& st : stamps) {
    first = std::min(first, st.start_ns);
    ms.push_back(static_cast<double>(st.dur_ns) * 1e-6);
    out.trials.push_back(
        TrialTiming{cell_of_seed(plan, st.seed), st.trial, ms.back()});
  }
  out.pre_trial_s = static_cast<double>(first - call_ns) * 1e-9;
  out.wall_s = static_cast<double>(return_ns - first) * 1e-9;

  Segment seg;
  seg.wall_s = out.wall_s;
  seg.trial_ms_p50 = rcb::quantile(ms, 0.5);
  for (double t : ms) seg.busy_s += t * 1e-3;
  for (const rcb::SweepResult& p : out.points) {
    seg.trials += p.records.size();
    for (const rcb::CheckpointRecord& rec : p.records) {
      if (rec.status == "ok") {
        seg.events += trial_events(p.scenario, rec.outcome);
      }
    }
  }
  out.segments = {seg};
}

}  // namespace

Ranges round_ranges(const WorkloadPlan& plan, std::uint64_t round) {
  Ranges r;
  for (const Cell& cell : plan.cells) {
    r.emplace_back(round * cell.per_round, (round + 1) * cell.per_round);
  }
  return r;
}

Ranges warmup_ranges(const WorkloadPlan& plan) {
  Ranges r;
  for (const Cell& cell : plan.cells) {
    const std::uint64_t n = cell.scenario.trials;
    if (cell.expect_failure) {
      r.emplace_back(n, n);  // creates the checkpoint, runs nothing
    } else {
      r.emplace_back(0, 1);
    }
  }
  return r;
}

TimedSweep run_timed_sweep(const WorkloadPlan& plan, rcb::ThreadPool& pool,
                           const std::string& journal_dir,
                           const Ranges& ranges) {
  TimedSweep out;
  out.executors = pool.num_threads();
  std::vector<rcb::SweepPoint> points;
  for (std::size_t i = 0; i < plan.cells.size(); ++i) {
    rcb::SweepPoint p;
    p.scenario = plan.cells[i].scenario;
    if (!journal_dir.empty()) {
      p.checkpoint_dir = journal_dir + "/cell_" + std::to_string(i);
      std::error_code ec;
      fs::remove_all(p.checkpoint_dir, ec);
    }
    if (!ranges.empty()) {
      p.trial_begin = ranges[i].first;
      p.trial_end = ranges[i].second;
    }
    points.push_back(std::move(p));
  }

  TrialClock clock;
  const rcb::TrialRunner runner = [&clock](const rcb::Scenario& s,
                                           std::uint64_t trial,
                                           std::uint32_t attempt) {
    return clock.run(s, trial, attempt);
  };
  const std::int64_t call_ns = now_ns();
  out.points = rcb::run_supervised_sweep_points(
      points, rcb::SupervisorOptions{}, pool, runner);
  const std::int64_t return_ns = now_ns();

  out.ok = true;
  for (std::size_t i = 0; i < out.points.size(); ++i) {
    if (!out.points[i].ok) {
      out.ok = false;
      out.error = plan.cells[i].label + ": " + out.points[i].error;
      break;
    }
  }
  fill_timings(plan, clock.stamps(), call_ns, return_ns, out);
  return out;
}

namespace {

/// Appends one round to `acc`: records, timings and a segment.
void fold_round(TimedSweep& acc, TimedSweep&& round) {
  acc.ok = acc.ok && round.ok;
  if (!round.ok) acc.error = round.error;
  acc.executors = round.executors;
  acc.wall_s += round.wall_s;
  acc.pre_trial_s += round.pre_trial_s;
  acc.trials.insert(acc.trials.end(), round.trials.begin(), round.trials.end());
  acc.segments.push_back(round.segments.front());
  acc.points.resize(round.points.size());
  for (std::size_t i = 0; i < round.points.size(); ++i) {
    rcb::SweepResult& to = acc.points[i];
    rcb::SweepResult& from = round.points[i];
    to.ok = from.ok;
    to.scenario = from.scenario;
    to.interrupted = to.interrupted || from.interrupted;
    to.executed += from.executed;
    to.timed_out += from.timed_out;
    to.failed_trials += from.failed_trials;
    to.records.insert(to.records.end(),
                      std::make_move_iterator(from.records.begin()),
                      std::make_move_iterator(from.records.end()));
  }
}

/// Rounds cover disjoint, ascending trial ranges, so the concatenated
/// records are in trial order and fold to the full sweep's digest.
void finish_rounds(TimedSweep& acc) {
  for (rcb::SweepResult& p : acc.points) {
    p.aggregate_digest = rcb::aggregate_digest(p.records);
  }
}

}  // namespace

TimedSweep run_rounds(const WorkloadPlan& plan, rcb::ThreadPool& pool,
                      const std::string& journal_dir,
                      TimedSweep* paired_off) {
  TimedSweep out;
  out.ok = true;
  if (paired_off != nullptr) {
    *paired_off = TimedSweep{};
    paired_off->ok = true;
  }
  for (std::uint64_t r = 0; r < plan.rounds && out.ok; ++r) {
    const Ranges ranges = round_ranges(plan, r);
    fold_round(out, run_timed_sweep(plan, pool,
                                    journal_dir.empty()
                                        ? ""
                                        : journal_dir + "/round_" +
                                              std::to_string(r),
                                    ranges));
    if (paired_off != nullptr) {
      fold_round(*paired_off, run_timed_sweep(plan, pool, "", ranges));
    }
  }
  finish_rounds(out);
  if (paired_off != nullptr) finish_rounds(*paired_off);
  return out;
}

// ---------------------------------------------------------------------------
// Sharded sweep

int run_attach_worker(const std::string& host_port,
                      const std::string& stamps_path) {
  rcb::AttachWorkerOptions aopt;
  if (const std::string err =
          rcb::parse_host_port(host_port, aopt.host, aopt.port);
      !err.empty()) {
    std::fprintf(stderr, "--attach: %s\n", err.c_str());
    return 2;
  }
  // A worker whose coordinator is gone for this long gives up rather than
  // outliving the benchmark.
  aopt.give_up_sec = 20.0;
  TrialClock clock;
  aopt.runner = [&clock](const rcb::Scenario& s, std::uint64_t trial,
                         std::uint32_t attempt) {
    return clock.run(s, trial, attempt);
  };
  const int code = rcb::run_attached_worker(aopt);

  const std::string tmp = stamps_path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::trunc);
    rusage self{};
    getrusage(RUSAGE_SELF, &self);
    os << self.ru_maxrss << '\n';
    for (const TrialClock::Stamp& st : clock.stamps()) {
      os << st.seed << ' ' << st.trial << ' ' << st.start_ns << ' '
         << st.dur_ns << '\n';
    }
    if (!os) return 1;
  }
  std::error_code ec;
  fs::rename(tmp, stamps_path, ec);
  return ec ? 1 : code;
}

TimedSweep run_sharded_sweep(const WorkloadPlan& plan,
                             const std::string& root) {
  TimedSweep out;
  out.executors = kShardWorkers;
  std::error_code ec;
  fs::remove_all(root, ec);
  fs::create_directories(root, ec);

  rcb::ShardSpec spec;
  spec.worker_threads = 1;
  for (const Cell& cell : plan.cells) spec.points.push_back(cell.scenario);
  // One shard per cell per round, round by round.  Workers take shards in
  // plan order, so every stretch of the run holds every cell, as a round
  // does in process, and no cell's trials bunch up in one stretch of host
  // noise.
  for (std::uint64_t r = 0; r < plan.rounds; ++r) {
    const Ranges ranges = round_ranges(plan, r);
    for (std::size_t i = 0; i < ranges.size(); ++i) {
      spec.shards.push_back(
          rcb::ShardAssignment{i, ranges[i].first, ranges[i].second});
    }
  }

  std::atomic<std::uint16_t> port{0};
  rcb::CoordinatorOptions copt;
  copt.root = root + "/sweep";
  copt.transport = rcb::TransportKind::kSocket;
  copt.workers = kShardWorkers;
  copt.spawn_workers = true;
  copt.listen_host = "127.0.0.1";
  copt.listen_port = 0;
  copt.on_listen = [&port](std::uint16_t p) { port = p; };
  // Workers are this binary re-entered in --attach mode, so their trials
  // are timed by the same TrialClock.
  copt.attach_argv = [&](std::size_t i) {
    return std::vector<std::string>{
        "/proc/self/exe", "--attach",
        "127.0.0.1:" + std::to_string(port.load()), "--stamps",
        root + "/stamps_" + std::to_string(i) + ".txt"};
  };

  const std::int64_t call_ns = now_ns();
  rcb::CoordinatorResult res = rcb::run_shard_coordinator(spec, copt);
  const std::int64_t return_ns = now_ns();
  if (!res.ok) {
    out.error = "shard coordinator: " + res.error;
    return out;
  }
  if (res.worker_restarts != 0) {
    out.error = "shard coordinator restarted " +
                std::to_string(res.worker_restarts) + " worker(s)";
    return out;
  }
  out.points = std::move(res.points);

  // Workers write their stamps on exit; the coordinator has reaped them.
  std::vector<TrialClock::Stamp> stamps;
  for (std::size_t i = 0; i < kShardWorkers; ++i) {
    std::ifstream is(root + "/stamps_" + std::to_string(i) + ".txt");
    if (!is) {
      out.error = "missing trial stamps of worker " + std::to_string(i);
      return out;
    }
    long rss_kib = 0;
    is >> rss_kib;
    std::printf("info worker %zu peak_rss_mib %.2f\n", i,
                static_cast<double>(rss_kib) / 1024.0);
    TrialClock::Stamp st;
    while (is >> st.seed >> st.trial >> st.start_ns >> st.dur_ns) {
      stamps.push_back(st);
    }
  }
  fill_timings(plan, stamps, call_ns, return_ns, out);
  out.ok = true;
  return out;
}

double time_shard_merge(const WorkloadPlan& plan, const std::string& root) {
  const rcb::ShardSpecLoadResult loaded =
      rcb::load_shard_spec(root + "/sweep");
  if (!loaded.ok || loaded.spec.points.size() != plan.cells.size()) {
    return -1.0;
  }
  const Clock::time_point t0 = Clock::now();
  const rcb::ShardMergeResult merged =
      rcb::merge_shard_journals(root + "/sweep", loaded.spec);
  const Clock::time_point t1 = Clock::now();
  return merged.ok ? seconds_between(t0, t1) * 1e3 : -1.0;
}

}  // namespace perfbench
