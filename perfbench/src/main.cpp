// rcb_perfbench: one run of one workload of the end-to-end benchmark.
//
//   rcb_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--quick] [--work-dir <dir>]
//
// Prints one line per metric ("metric <name> <value> <unit>"), one per
// output check, a "work {...}" line with the simulated-work counters, and
// as its last line the result object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Exit status: 0 when every check passed, 1 when a check failed, 2 on bad
// arguments or a run that could not complete.
//
// Internal mode, used by the sharded workload's coordinator:
//   rcb_perfbench --attach <host:port> --stamps <file>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <thread>

#include "bench.hpp"
#include "rcb/runtime/thread_pool.hpp"
#include "rcb/stats/summary.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
  bool quick = false;
  std::string work_dir = ".bench_build/work";
  std::string attach;
  std::string stamps;
};

bool parse_uint(const std::string& text, std::uint64_t& out) {
  const char* end = text.data() + text.size();
  const auto r = std::from_chars(text.data(), end, out);
  return r.ec == std::errc() && r.ptr == end && !text.empty();
}

bool parse_args(int argc, char** argv, Args& a, std::string& err) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--quick") {
      a.quick = true;
      continue;
    }
    if (i + 1 >= argc) {
      err = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[++i];
    std::uint64_t v = 0;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      // Cell seeds are 10^6 * (seed + 1) + small offsets and must stay
      // exact in the journal's JSON doubles (< 2^53).
      if (!parse_uint(value, v) || v > (1ull << 32)) {
        err = "--seed must be an integer in [0, 2^32]";
        return false;
      }
      a.seed = v;
    } else if (flag == "--seconds") {
      if (!parse_uint(value, v) || v < 1 || v > 3600) {
        err = "--seconds must be an integer in [1, 3600]";
        return false;
      }
      a.seconds = static_cast<int>(v);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        err = "--trace must be 0 or 1";
        return false;
      }
      a.trace = value == "1" ? 1 : 0;
    } else if (flag == "--work-dir") {
      a.work_dir = value;
    } else if (flag == "--attach") {
      a.attach = value;
    } else if (flag == "--stamps") {
      a.stamps = value;
    } else {
      err = "unknown flag " + flag;
      return false;
    }
  }
  if (!a.attach.empty()) {
    if (a.stamps.empty()) err = "--attach needs --stamps";
    return err.empty();
  }
  if (a.workload.empty() || a.seconds == 0 || a.trace < 0) {
    err = "--workload, --seed, --seconds and --trace are required";
    return false;
  }
  return true;
}

double median(std::vector<double> v) {
  return rcb::quantile(v, 0.5);
}

/// Peak resident set of this process so far.
double peak_rss_mib() {
  rusage self{};
  getrusage(RUSAGE_SELF, &self);
  return static_cast<double>(self.ru_maxrss) / 1024.0;
}

std::string number(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

std::string fresh_dir(const std::string& path) {
  std::error_code ec;
  fs::remove_all(path, ec);
  fs::create_directories(path, ec);
  return path;
}

/// Everything before the first timed trial, done once: build and validate
/// the scenarios, start the pool, and run a warm-up sweep of one trial per
/// point that creates its own checkpoints when the workload journals.
struct Setup {
  WorkloadPlan plan;
  std::unique_ptr<rcb::ThreadPool> pool;
  double seconds = 0.0;
  std::string error;
};

Setup set_up(const Args& a, const std::string& dir) {
  Setup s;
  const Clock::time_point t0 = Clock::now();
  make_plan(a.workload, a.seed, a.seconds, a.quick, s.plan);
  for (const Cell& cell : s.plan.cells) {
    if (const std::string err = rcb::validate_scenario(cell.scenario);
        !err.empty()) {
      s.error = cell.label + ": " + err;
      return s;
    }
  }
  s.pool = std::make_unique<rcb::ThreadPool>(s.plan.executors);
  const TimedSweep warm =
      run_timed_sweep(s.plan, *s.pool, s.plan.journal ? fresh_dir(dir) : "",
                      warmup_ranges(s.plan));
  if (!warm.ok) s.error = "warm-up: " + warm.error;
  s.seconds = seconds_between(t0, Clock::now());
  return s;
}

/// The in-process reference of duel_sweep: the same points on one executor
/// with the journal off.  The cells are split over two one-executor pools
/// running side by side (balanced by the timed run's per-cell time), which
/// keeps each point a one-executor sweep and halves the wall time.
TimedSweep one_executor_reference(const WorkloadPlan& plan,
                                  const TimedSweep& timed) {
  std::vector<double> cost(plan.cells.size(), 0.0);
  for (const TrialTiming& t : timed.trials) {
    if (t.cell < cost.size()) cost[t.cell] += t.ms;
  }
  std::vector<std::size_t> order(plan.cells.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t x, std::size_t y) { return cost[x] > cost[y]; });
  WorkloadPlan half[2] = {plan, plan};
  half[0].cells.clear();
  half[1].cells.clear();
  std::vector<std::pair<int, std::size_t>> where(plan.cells.size());
  double load[2] = {0.0, 0.0};
  for (std::size_t i : order) {
    const int h = load[0] <= load[1] ? 0 : 1;
    load[h] += cost[i];
    where[i] = {h, half[h].cells.size()};
    half[h].cells.push_back(plan.cells[i]);
  }
  TimedSweep part[2];
  std::thread other([&] {
    try {
      rcb::ThreadPool pool(1);
      part[1] = run_timed_sweep(half[1], pool, "");
    } catch (const std::exception& e) {
      part[1].ok = false;
      part[1].error = e.what();
    }
  });
  {
    rcb::ThreadPool pool(1);
    part[0] = run_timed_sweep(half[0], pool, "");
  }
  other.join();

  TimedSweep ref;
  ref.ok = part[0].ok && part[1].ok;
  ref.error = part[0].error + part[1].error;
  if (!ref.ok) return ref;
  for (std::size_t i = 0; i < plan.cells.size(); ++i) {
    ref.points.push_back(part[where[i].first].points[where[i].second]);
  }
  return ref;
}

double per_trial_us(double seconds, std::uint64_t trials) {
  return trials > 0 ? seconds * 1e6 / static_cast<double>(trials) : 0.0;
}

/// Runtime-layer metrics of the traced run.  `on` is the workload's own
/// configuration; `off` the same rounds with the journal off, each run
/// right after its journal-on twin (null when the workload does not
/// journal, `on` then being journal-off itself).  Per-round figures are
/// reported as medians over rounds.
void runtime_metrics(const TimedSweep& on, const TimedSweep* off,
                     std::vector<Metric>& out) {
  const TimedSweep& quiet = off != nullptr ? *off : on;
  const double executors = static_cast<double>(quiet.executors);
  std::vector<double> supervisor, journal;
  for (std::size_t r = 0; r < quiet.segments.size(); ++r) {
    const Segment& seg = quiet.segments[r];
    supervisor.push_back(
        per_trial_us(seg.wall_s * executors - seg.busy_s, seg.trials));
    if (off != nullptr && r < on.segments.size()) {
      journal.push_back(per_trial_us(
          (on.segments[r].wall_s - seg.wall_s) * executors, seg.trials));
    }
  }
  out.push_back({"runtime.supervisor_us_per_trial", median(supervisor),
                 "us/trial"});
  out.push_back({"runtime.journal_us_per_trial",
                 journal.empty() ? 0.0 : median(journal), "us/trial"});
}

double busy_share(const TimedSweep& s) {
  double busy = 0.0;
  for (const Segment& seg : s.segments) busy += seg.busy_s;
  return busy / (s.wall_s * static_cast<double>(s.executors));
}

struct Outcome {
  std::vector<Metric> metrics;
  CheckLog log;
  WorkCounters work;
  std::string error;  ///< the run could not complete
};

/// Whole-run figures: trials and events over the summed timed walls of the
/// segments, and the median of every trial's time.  This host's vCPUs flip
/// between two speeds about 1.45x apart every few seconds; a median over
/// rounds flips with them once half the rounds are fast, while pooled
/// figures move smoothly with the share of fast time.
void end_to_end(const WorkloadPlan& plan, const TimedSweep& timed,
                double setup_s, double rss_mib, Outcome& o) {
  double trials = 0.0;
  double events = 0.0;
  std::vector<double> rate, p50, ms;
  for (const Segment& seg : timed.segments) {
    trials += static_cast<double>(seg.trials);
    events += static_cast<double>(seg.events);
    rate.push_back(static_cast<double>(seg.trials) / seg.wall_s);
    p50.push_back(seg.trial_ms_p50);
  }
  std::vector<std::vector<double>> cell_ms(plan.cells.size());
  for (const TrialTiming& t : timed.trials) {
    ms.push_back(t.ms);
    if (t.cell < cell_ms.size()) cell_ms[t.cell].push_back(t.ms);
  }
  for (std::size_t i = 0; i < plan.cells.size(); ++i) {
    std::printf("info cell %zu trial_ms p10 %.4g p50 %.4g p90 %.4g\n", i,
                rcb::quantile(cell_ms[i], 0.1), rcb::quantile(cell_ms[i], 0.5),
                rcb::quantile(cell_ms[i], 0.9));
  }
  std::printf("info segments %zu wall_s %s trials_per_s", timed.segments.size(),
              number(timed.wall_s).c_str());
  for (double r : rate) std::printf(" %.4g", r);
  std::printf(" trial_ms_p50");
  for (double m : p50) std::printf(" %.4g", m);
  std::printf("\n");
  o.metrics = {
      {"trials_per_s", trials / timed.wall_s, "trials/s"},
      {"events_per_s", events / timed.wall_s, "events/s"},
      {"trial_ms_p50", rcb::quantile(ms, 0.5), "ms"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mib", rss_mib, "MiB"},
  };
  // The 90th percentile has >= 10 trials beyond it only from 100 trials
  // on; it is printed for reading and is not one of the gated metrics.
  if (ms.size() >= 100) {
    std::printf("info trial_ms_p90 %s ms (%zu trials)\n",
                number(rcb::quantile(ms, 0.9)).c_str(), ms.size());
  }
}

Outcome run_in_process(const Args& a, int n_setups, const std::string& dir) {
  Outcome o;
  std::vector<double> setups;
  Setup s;
  for (int k = 0; k < n_setups; ++k) {
    s = Setup{};  // the previous pool joins before the next one starts
    s = set_up(a, dir + "/warmup");
    if (!s.error.empty()) {
      o.error = s.error;
      return o;
    }
    setups.push_back(s.seconds);
  }
  const WorkloadPlan& plan = s.plan;
  const std::string journal = plan.journal ? fresh_dir(dir + "/journal") : "";
  // The traced run pairs every journaled round with a journal-off twin.
  const bool paired = a.trace == 1 && plan.journal;
  TimedSweep journal_off;
  const TimedSweep timed = run_rounds(plan, *s.pool, journal,
                                      paired ? &journal_off : nullptr);
  // Peak memory of set-up and the timed phase, before any reference run.
  const double rss_mib = peak_rss_mib();
  check_sweep(plan, timed, o.log);
  if (!timed.ok) {
    o.error = timed.error;
    return o;
  }
  o.work = count_work(timed);

  if (a.trace == 0) {
    if (plan.journal) {
      check_same_digests(timed, one_executor_reference(plan, timed),
                         "duel_sweep vs one-executor journal-off run", o.log);
    }
    end_to_end(plan, timed, median(setups), rss_mib, o);
    return o;
  }

  if (paired) {
    check_same_digests(timed, journal_off, "journal on vs off", o.log);
  }
  traced_replay(plan, timed,
                dir + "/spans_" + plan.name + "_" + std::to_string(a.seed) +
                    ".jsonl",
                o.metrics, o.log);
  o.metrics.push_back({"runtime.trial_busy_share", busy_share(timed), "ratio"});
  runtime_metrics(timed, paired ? &journal_off : nullptr, o.metrics);
  o.metrics.push_back({"runtime.shard_overhead_us_per_trial", 0.0, "us/trial"});
  o.metrics.push_back({"runtime.shard_merge_ms", 0.0, "ms"});
  return o;
}

Outcome run_sharded(const Args& a, int n_setups, const std::string& dir) {
  Outcome o;
  WorkloadPlan plan;
  std::vector<double> setups;
  // Warm-up coordinator runs on a small spec measure the same set-up (spec,
  // listener, spawn, attach, first trial) as the main run, which is the
  // last of the n_setups.
  for (int k = 0; k + 1 < n_setups; ++k) {
    const Clock::time_point t0 = Clock::now();
    make_plan(a.workload, a.seed, a.seconds, a.quick, plan);
    WorkloadPlan small = plan;
    small.cells = {plan.cells[1]};  // the first cell after the slot cap
    small.rounds = 1;
    small.cells[0].per_round = 8;
    small.cells[0].scenario.trials = 8;
    const double build_s = seconds_between(t0, Clock::now());
    const TimedSweep warm =
        run_sharded_sweep(small, dir + "/warmup");
    if (!warm.ok) {
      o.error = "warm-up: " + warm.error;
      return o;
    }
    setups.push_back(build_s + warm.pre_trial_s);
  }
  const Clock::time_point t0 = Clock::now();
  make_plan(a.workload, a.seed, a.seconds, a.quick, plan);
  for (const Cell& cell : plan.cells) {
    if (const std::string err = rcb::validate_scenario(cell.scenario);
        !err.empty()) {
      o.error = cell.label + ": " + err;
      return o;
    }
  }
  const double build_s = seconds_between(t0, Clock::now());
  const std::string root = dir + "/sharded";
  const TimedSweep sharded = run_sharded_sweep(plan, root);
  // The coordinator's, before the in-process run.  The workers' peaks are
  // printed as info only: on identical work the larger of the two reads
  // either about 31.5 or 39-41 MiB from run to run.
  const double rss_mib = peak_rss_mib();
  check_sweep(plan, sharded, o.log);
  if (!sharded.ok) {
    o.error = sharded.error;
    return o;
  }
  setups.push_back(build_s + sharded.pre_trial_s);
  o.work = count_work(sharded);

  // duel_sweep's configuration in process: two executors, journal on (the
  // traced run pairs each round with a journal-off twin).
  rcb::ThreadPool pool(2);
  TimedSweep journal_off;
  const TimedSweep sweep =
      run_rounds(plan, pool, fresh_dir(dir + "/journal"),
                 a.trace == 1 ? &journal_off : nullptr);
  check_same_digests(sharded, sweep, "duel_sharded merged vs duel_sweep",
                     o.log);

  if (a.trace == 0) {
    end_to_end(plan, sharded, median(setups), rss_mib, o);
    return o;
  }

  check_same_digests(sweep, journal_off, "journal on vs off", o.log);
  traced_replay(plan, sweep,
                dir + "/spans_" + plan.name + "_" + std::to_string(a.seed) +
                    ".jsonl",
                o.metrics, o.log);
  o.metrics.push_back(
      {"runtime.trial_busy_share", busy_share(sharded), "ratio"});
  runtime_metrics(sweep, &journal_off, o.metrics);
  o.metrics.push_back(
      {"runtime.shard_overhead_us_per_trial",
       per_trial_us(sharded.wall_s - sweep.wall_s, o.work.trials), "us/trial"});
  const double merge_ms = time_shard_merge(plan, root);
  o.log.expect(merge_ms >= 0.0, "merge_shard_journals re-merges the output");
  o.metrics.push_back({"runtime.shard_merge_ms", merge_ms, "ms"});
  return o;
}

/// Metric order of the printed result (the order of BENCHMARK.json).
const std::vector<std::string>& metric_order(int trace) {
  static const std::vector<std::string> e2e = {
      "trials_per_s", "events_per_s", "trial_ms_p50", "setup_s",
      "peak_rss_mib"};
  static const std::vector<std::string> layers = {
      "rng.presample_ns_per_event",
      "sim.repetition_ns_per_event",
      "sim.sort_sweep_ns_per_event",
      "sim.keys_per_repetition_max",
      "sim.mc_engine_ns_per_event",
      "adversary.plan_ns_per_call",
      "adversary.mc_consult_ns_per_slot",
      "adversary.mc_bulk_slot_share",
      "adversary.mc_declines",
      "protocols.update_ns_per_node_rep",
      "protocols.duel_us_per_phase",
      "protocols.duel_phases_per_trial",
      "runtime.trial_busy_share",
      "runtime.supervisor_us_per_trial",
      "runtime.journal_us_per_trial",
      "runtime.shard_overhead_us_per_trial",
      "runtime.shard_merge_ms",
      "trace.overhead_share"};
  return trace == 1 ? layers : e2e;
}

int run(const Args& a) {
  WorkloadPlan probe;
  if (!make_plan(a.workload, a.seed, a.seconds, a.quick, probe)) {
    std::fprintf(stderr, "unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }
  const std::string dir = fresh_dir(a.work_dir + "/" + a.workload);
  std::printf("# workload %s seed %llu seconds %d trace %d%s rounds %llu\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace, a.quick ? " quick" : "",
              static_cast<unsigned long long>(probe.rounds));
  for (const Cell& c : probe.cells) {
    std::printf("# cell %-58s trials %zu seed %llu\n", c.label.c_str(),
                c.scenario.trials,
                static_cast<unsigned long long>(c.scenario.seed));
  }

  const int n_setups = a.trace == 1 || a.quick ? 1 : probe.setups;
  Outcome o = probe.sharded ? run_sharded(a, n_setups, dir)
                            : run_in_process(a, n_setups, dir);
  for (const std::string& p : o.log.passed) {
    std::printf("check PASS %s\n", p.c_str());
  }
  for (const std::string& f : o.log.failed) {
    std::printf("check FAIL %s\n", f.c_str());
  }
  if (!o.error.empty()) {
    std::fprintf(stderr, "run failed: %s\n", o.error.c_str());
    return 2;
  }

  std::string metrics;
  for (const std::string& name : metric_order(a.trace)) {
    const auto it =
        std::find_if(o.metrics.begin(), o.metrics.end(),
                     [&](const Metric& m) { return m.name == name; });
    if (it == o.metrics.end() || !std::isfinite(it->value)) {
      std::fprintf(stderr, "metric %s was not measured\n", name.c_str());
      return 2;
    }
    std::printf("metric %s %s %s\n", name.c_str(), number(it->value).c_str(),
                it->unit.c_str());
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + name + "\": {\"value\": " + number(it->value) +
               ", \"unit\": \"" + it->unit + "\"}";
  }
  std::printf(
      "work {\"trials\": %llu, \"failed\": %llu, \"events\": %llu, "
      "\"slots\": %llu, \"digest\": \"%016llx\"}\n",
      static_cast<unsigned long long>(o.work.trials),
      static_cast<unsigned long long>(o.work.failed),
      static_cast<unsigned long long>(o.work.events),
      static_cast<unsigned long long>(o.work.slots),
      static_cast<unsigned long long>(o.work.digest));
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      o.log.ok() ? "true" : "false",
      static_cast<unsigned long long>(o.work.trials),
      static_cast<unsigned long long>(o.work.failed), metrics.c_str());
  std::fflush(stdout);
  return o.log.ok() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args a;
  std::string err;
  if (!perfbench::parse_args(argc, argv, a, err)) {
    std::fprintf(stderr, "rcb_perfbench: %s\n", err.c_str());
    return 2;
  }
  if (!a.attach.empty()) {
    return perfbench::run_attach_worker(a.attach, a.stamps);
  }
  return perfbench::run(a);
}
