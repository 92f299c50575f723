// The traced run: per-layer times measured from outside the program.
//
// Every traced trial re-executes a trial of the untraced sweep through the
// protocol's public entry point, exactly as run_scenario_trial sets it up
// (the trial's Rng stream, a fresh engine workspace, the scenario's
// adversary), but with the adversary wrapped in a forwarding adversary that
// times each consultation and keeps its own tally of the jamming it
// returned.  BroadcastN trials are stepped through BroadcastNEngine, and
// every repetition is replayed through presample_node_events and
// run_repetition from a copy of the trial's Rng taken after plan(), which
// is the Rng state run_repetition starts from.
//
// Spans (name, start, end, parent, cell, trial) are kept in memory and
// written as JSON lines when the replay ends.
#include <bit>
#include <cstdio>
#include <fstream>

#include "bench.hpp"
#include "rcb/adversary/slot_adversary.hpp"
#include "rcb/adversary/strategies.hpp"
#include "rcb/adversary/two_uniform.hpp"
#include "rcb/common/mathutil.hpp"
#include "rcb/protocols/broadcast_engine.hpp"
#include "rcb/protocols/combined.hpp"
#include "rcb/protocols/mc_broadcast.hpp"
#include "rcb/protocols/one_to_one.hpp"
#include "rcb/sim/engine_kernels.hpp"
#include "rcb/sim/engine_workspace.hpp"
#include "rcb/stats/summary.hpp"

namespace perfbench {
namespace {

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;
  std::size_t cell = 0;
  std::uint64_t trial = 0;
};

class SpanLog {
 public:
  std::int64_t open(const char* name, std::int64_t parent, std::size_t cell,
                    std::uint64_t trial) {
    spans_.push_back(Span{name, now_ns(), 0, parent, cell, trial});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }
  void close(std::int64_t id) {
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  }
  void add(const char* name, std::int64_t start, std::int64_t end,
           std::int64_t parent, std::size_t cell, std::uint64_t trial) {
    spans_.push_back(Span{name, start, end, parent, cell, trial});
  }
  std::int64_t duration(std::int64_t id) const {
    const Span& s = spans_[static_cast<std::size_t>(id)];
    return s.end_ns - s.start_ns;
  }

  bool write(const std::string& path) const {
    std::ofstream os(path, std::ios::trunc);
    const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    for (const Span& s : spans_) {
      os << "{\"name\":\"" << s.name << "\",\"start_ns\":"
         << (s.start_ns - origin) << ",\"end_ns\":" << (s.end_ns - origin)
         << ",\"parent\":" << s.parent << ",\"cell\":" << s.cell
         << ",\"trial\":" << s.trial << "}\n";
    }
    return static_cast<bool>(os);
  }

 private:
  std::vector<Span> spans_;
};

/// Where the current trial's spans hang.
struct SpanScope {
  SpanLog* log = nullptr;
  std::int64_t parent = -1;
  std::size_t cell = 0;
  std::uint64_t trial = 0;
};

// ---------------------------------------------------------------------------
// Forwarding adversaries.  Each forwards to the adversary the scenario
// factory made, times the call, and tallies the jamming it returned.  Their
// own Budget is a copy that no protocol of these workloads draws from (only
// spoofed nacks are charged through DuelAdversary::budget(), and no cell
// spoofs); the tally check below would catch a divergence.

class TracedRepetitionAdversary final : public rcb::RepetitionAdversary {
 public:
  TracedRepetitionAdversary(rcb::RepetitionAdversary& inner, SpanScope& scope)
      : rcb::RepetitionAdversary(inner.budget()), inner_(inner),
        scope_(scope) {}

  rcb::JamSchedule plan(const rcb::RepetitionContext& ctx,
                        rcb::Rng& rng) override {
    const std::int64_t t0 = now_ns();
    rcb::JamSchedule s = inner_.plan(ctx, rng);
    const std::int64_t t1 = now_ns();
    scope_.log->add("adversary.plan", t0, t1, scope_.parent, scope_.cell,
                    scope_.trial);
    plan_ns += t1 - t0;
    ++calls;
    jammed_tally += s.jammed_count();
    rng_after_plan = rng;
    last_schedule = s;
    planned = true;
    return s;
  }

  std::int64_t plan_ns = 0;
  std::uint64_t calls = 0;
  std::uint64_t jammed_tally = 0;
  bool planned = false;
  rcb::Rng rng_after_plan;
  rcb::JamSchedule last_schedule = rcb::JamSchedule::none();

 private:
  rcb::RepetitionAdversary& inner_;
  SpanScope& scope_;
};

class TracedDuelAdversary final : public rcb::DuelAdversary {
 public:
  TracedDuelAdversary(rcb::DuelAdversary& inner, SpanScope& scope)
      : rcb::DuelAdversary(inner.budget()), inner_(inner), scope_(scope) {}

  rcb::DuelPlan plan(const rcb::DuelPhaseContext& ctx,
                     rcb::Rng& rng) override {
    const std::int64_t t0 = now_ns();
    rcb::DuelPlan p = inner_.plan(ctx, rng);
    const std::int64_t t1 = now_ns();
    scope_.log->add("adversary.plan", t0, t1, scope_.parent, scope_.cell,
                    scope_.trial);
    plan_ns += t1 - t0;
    ++calls;
    jammed_tally += p.alice_view.jammed_count() + p.bob_view.jammed_count();
    return p;
  }

  std::int64_t plan_ns = 0;
  std::uint64_t calls = 0;
  std::uint64_t jammed_tally = 0;

 private:
  rcb::DuelAdversary& inner_;
  SpanScope& scope_;
};

/// Per-slot consultations are far too many for one span each; their time
/// and counts are kept as counters at the same boundary instead.
class TracedMcAdversary final : public rcb::McSlotAdversary {
 public:
  explicit TracedMcAdversary(rcb::McSlotAdversary& inner) : inner_(inner) {}

  std::uint64_t jam_mask(
      rcb::SlotIndex slot, std::uint32_t num_channels,
      std::span<const rcb::McSlotActivity> history) override {
    const std::int64_t t0 = now_ns();
    const std::uint64_t m = inner_.jam_mask(slot, num_channels, history);
    consult_ns += now_ns() - t0;
    jammed_tally += static_cast<std::uint64_t>(
        std::popcount(m & valid_mask(num_channels)));
    return m;
  }

  bool jam_run_masks(rcb::SlotIndex begin, rcb::SlotIndex end,
                     std::uint32_t num_channels,
                     std::span<const rcb::McSlotActivity> history,
                     rcb::McJamRunSink& sink) override {
    const std::int64_t t0 = now_ns();
    const bool answered =
        inner_.jam_run_masks(begin, end, num_channels, history, sink);
    consult_ns += now_ns() - t0;
    if (!answered) {
      ++declines;
      return false;
    }
    bulk_slots += end - begin;
    for (const auto& seg : sink.segments()) {
      jammed_tally += static_cast<std::uint64_t>(std::popcount(
                          seg.decision & valid_mask(num_channels))) *
                      seg.length;
    }
    return true;
  }

  rcb::SlotCount history_window() const override {
    return inner_.history_window();
  }

  std::int64_t consult_ns = 0;
  std::uint64_t bulk_slots = 0;
  std::uint64_t declines = 0;
  std::uint64_t jammed_tally = 0;

 private:
  static std::uint64_t valid_mask(std::uint32_t c) {
    return c >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << c) - 1;
  }
  rcb::McSlotAdversary& inner_;
};

// ---------------------------------------------------------------------------
// Per-layer accumulators over every traced trial.

struct LayerTotals {
  // BroadcastN repetitions.
  std::int64_t presample_ns = 0;
  std::int64_t repetition_ns = 0;
  std::int64_t step_ns = 0;
  std::uint64_t replay_events = 0;
  std::uint64_t keys_max = 0;
  std::vector<double> cell_keys;  ///< keys of each repetition, current cell
  std::uint64_t node_reps = 0;
  // Single-channel and duel plan() calls.
  std::int64_t plan_ns = 0;
  std::uint64_t plan_calls = 0;
  std::int64_t broadcast_plan_ns = 0;
  // Duel protocol calls.
  std::int64_t duel_ns = 0;
  std::uint64_t duel_plans = 0;
  std::uint64_t duel_trials = 0;
  // Multi-channel.
  std::int64_t mc_ns = 0;
  std::int64_t mc_consult_ns = 0;
  std::uint64_t mc_events = 0;
  std::uint64_t mc_slots = 0;
  std::uint64_t mc_bulk_slots = 0;
  std::uint64_t mc_declines = 0;
  // Whole traced trials, against the same trials run untraced through
  // run_scenario_trial on the same thread just before.
  double traced_ms = 0.0;
  double untraced_ms = 0.0;
};

/// The four outcome fields a traced trial must reproduce.
struct TracedOutcome {
  double max_cost = 0.0;
  double mean_cost = 0.0;
  double adversary_cost = 0.0;
  double latency = 0.0;
  std::uint64_t jammed_tally = 0;
};

/// BroadcastNEngine's per-node action for the coming repetition, computed
/// from the engine's public state exactly as BroadcastNEngine::step does.
/// The replayed cost check below fails if the two ever diverge.
std::vector<rcb::NodeAction> broadcast_actions(
    const rcb::BroadcastNEngine& engine) {
  const rcb::BroadcastNParams& params = engine.params();
  const double slots = static_cast<double>(rcb::pow2(engine.epoch()));
  const double lf = params.listen_factor(engine.epoch());
  std::vector<rcb::NodeAction> actions(engine.n());
  for (std::size_t u = 0; u < actions.size(); ++u) {
    const rcb::BroadcastNodeState& node = engine.nodes()[u];
    if (node.status == rcb::BroadcastStatus::kTerminated ||
        node.status == rcb::BroadcastStatus::kDead ||
        node.status == rcb::BroadcastStatus::kCrashed) {
      continue;
    }
    const bool knows_m = node.status != rcb::BroadcastStatus::kUninformed;
    actions[u] = rcb::NodeAction{
        rcb::clamp_probability(node.S / slots),
        knows_m ? rcb::Payload::kMessage : rcb::Payload::kNoise,
        rcb::clamp_probability(node.S * lf / slots)};
  }
  return actions;
}

TracedOutcome trace_broadcast(const rcb::Scenario& s, std::uint64_t trial,
                              SpanScope& scope, LayerTotals& tot,
                              CheckLog& log, const std::string& tag) {
  rcb::Rng rng = rcb::Rng::stream(s.seed, trial);
  rcb::engine_workspace_begin_trial();
  const auto inner = rcb::make_broadcast_adversary(s);
  TracedRepetitionAdversary adv(*inner, scope);
  rcb::BroadcastNParams params = rcb::BroadcastNParams::sim();
  if (s.max_epoch_extra > 0) {
    params.max_epoch = params.first_epoch + s.max_epoch_extra;
  }
  params.node_energy_budget = s.battery;
  rcb::BroadcastNEngine engine(s.n, params, nullptr);
  const rcb::detail::SkipBlockFn skip_block = rcb::detail::skip_block_fn();
  const std::int64_t trial_span = scope.parent;

  bool costs_match = true;
  std::vector<rcb::Cost> before(s.n);
  for (;;) {
    const std::vector<rcb::NodeAction> actions = broadcast_actions(engine);
    const rcb::SlotCount num_slots = rcb::pow2(engine.epoch());
    for (std::uint32_t u = 0; u < s.n; ++u) before[u] = engine.nodes()[u].cost;

    adv.planned = false;
    const std::int64_t plan_before = adv.plan_ns;
    const std::int64_t step = scope.log->open("protocols.step", trial_span,
                                              scope.cell, scope.trial);
    scope.parent = step;
    const bool more = engine.step(adv, rng);
    scope.log->close(step);
    scope.parent = trial_span;
    if (!adv.planned) break;  // finished without running a repetition

    // Replay 1: presampling alone, into this thread's engine workspace.
    rcb::EngineWorkspace& ws = rcb::engine_workspace();
    rcb::Rng r1 = adv.rng_after_plan;
    const std::int64_t p0 = scope.log->open(
        "rng.presample_node_events", trial_span, scope.cell, scope.trial);
    ws.events.clear();
    for (std::uint32_t u = 0; u < s.n; ++u) {
      rcb::engine_kernels::presample_node_events(u, actions[u], num_slots, r1,
                                                 ws, nullptr, skip_block);
    }
    scope.log->close(p0);
    const std::uint64_t keys = ws.events.size();

    // Replay 2: the whole repetition.
    rcb::Rng r2 = adv.rng_after_plan;
    const std::int64_t r0 = scope.log->open("sim.run_repetition", trial_span,
                                            scope.cell, scope.trial);
    const rcb::RepetitionResult rep = rcb::run_repetition(
        num_slots, actions, adv.last_schedule, r2, nullptr, params.cca,
        nullptr);
    scope.log->close(r0);

    for (std::uint32_t u = 0; u < s.n; ++u) {
      const rcb::Cost spent = rep.obs[u].sends + rep.obs[u].listens;
      if (engine.nodes()[u].cost - before[u] != spent) costs_match = false;
    }
    tot.presample_ns += scope.log->duration(p0);
    tot.repetition_ns += scope.log->duration(r0);
    tot.step_ns += scope.log->duration(step);
    tot.broadcast_plan_ns += adv.plan_ns - plan_before;
    tot.replay_events += keys;
    tot.keys_max = std::max<std::uint64_t>(tot.keys_max, keys);
    tot.cell_keys.push_back(static_cast<double>(keys));
    tot.node_reps += s.n;
    if (!more) break;
  }
  log.expect(costs_match, tag + ": replayed sends + listens equal the "
                                "engine's per-repetition cost deltas");
  tot.plan_ns += adv.plan_ns;
  tot.plan_calls += adv.calls;

  const rcb::BroadcastNResult r = engine.result();
  return TracedOutcome{static_cast<double>(r.max_cost), r.mean_cost,
                       static_cast<double>(r.adversary_cost),
                       static_cast<double>(r.latency), adv.jammed_tally};
}

TracedOutcome trace_mc(const rcb::Scenario& s, std::uint64_t trial,
                       SpanScope& scope, LayerTotals& tot) {
  rcb::Rng rng = rcb::Rng::stream(s.seed, trial);
  rcb::engine_workspace_begin_trial();
  const auto inner = rcb::make_mc_adversary(s, trial);
  TracedMcAdversary adv(*inner);
  rcb::OneToOneParams params = rcb::OneToOneParams::sim(s.eps);
  if (s.max_epoch_extra > 0) {
    params.max_epoch = params.first_epoch() + s.max_epoch_extra;
  }
  const std::int64_t id = scope.log->open(
      "protocols.run_mc_broadcast", scope.parent, scope.cell, scope.trial);
  const rcb::BroadcastNResult r =
      rcb::run_mc_broadcast(s.n, s.channels, params, adv, rng, nullptr);
  scope.log->close(id);

  std::uint64_t events = 0;
  for (const rcb::BroadcastNodeOutcome& node : r.nodes) events += node.cost;
  tot.mc_ns += scope.log->duration(id);
  tot.mc_consult_ns += adv.consult_ns;
  tot.mc_events += events;
  tot.mc_slots += r.latency;
  tot.mc_bulk_slots += adv.bulk_slots;
  tot.mc_declines += adv.declines;
  return TracedOutcome{static_cast<double>(r.max_cost), r.mean_cost,
                       static_cast<double>(r.adversary_cost),
                       static_cast<double>(r.latency), adv.jammed_tally};
}

TracedOutcome trace_duel(const rcb::Scenario& s, std::uint64_t trial,
                         SpanScope& scope, LayerTotals& tot) {
  rcb::Rng rng = rcb::Rng::stream(s.seed, trial);
  rcb::engine_workspace_begin_trial();
  const auto inner = rcb::make_duel_adversary(s);
  const std::int64_t id =
      scope.log->open(s.protocol == "combined" ? "protocols.run_combined"
                                               : "protocols.run_one_to_one",
                      scope.parent, scope.cell, scope.trial);
  const std::int64_t trial_span = scope.parent;
  scope.parent = id;
  TracedDuelAdversary adv(*inner, scope);
  rcb::OneToOneResult r;
  if (s.protocol == "combined") {
    rcb::CombinedParams params;
    params.fig1 = rcb::OneToOneParams::sim(s.eps);
    if (s.max_epoch_extra > 0) {
      params.fig1.max_epoch = params.fig1.first_epoch() + s.max_epoch_extra;
      params.ksy.max_epoch = params.ksy.first_epoch + s.max_epoch_extra;
    }
    params.timeout_slots = s.timeout_slots;
    r = rcb::run_combined(params, adv, rng, nullptr);
  } else {
    rcb::OneToOneParams params = rcb::OneToOneParams::sim(s.eps);
    if (s.max_epoch_extra > 0) {
      params.max_epoch = params.first_epoch() + s.max_epoch_extra;
    }
    params.timeout_slots = s.timeout_slots;
    r = rcb::run_one_to_one(params, adv, rng, nullptr);
  }
  scope.log->close(id);
  scope.parent = trial_span;

  tot.duel_ns += scope.log->duration(id);
  tot.duel_plans += adv.calls;
  tot.duel_trials += 1;
  tot.plan_ns += adv.plan_ns;
  tot.plan_calls += adv.calls;
  return TracedOutcome{static_cast<double>(r.max_cost()),
                       static_cast<double>(r.alice_cost + r.bob_cost) / 2.0,
                       static_cast<double>(r.adversary_cost),
                       static_cast<double>(r.latency), adv.jammed_tally};
}

const rcb::CheckpointRecord* find_record(const rcb::SweepResult& p,
                                         std::uint64_t trial) {
  for (const rcb::CheckpointRecord& rec : p.records) {
    if (rec.trial == trial) return &rec;
  }
  return nullptr;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

void traced_replay(const WorkloadPlan& plan, const TimedSweep& untraced,
                   const std::string& spans_path, std::vector<Metric>& out,
                   CheckLog& log) {
  SpanLog spans;
  LayerTotals tot;

  for (std::size_t c = 0; c < plan.cells.size(); ++c) {
    const Cell& cell = plan.cells[c];
    if (cell.expect_failure || c >= untraced.points.size()) continue;
    const rcb::Scenario& s = cell.scenario;
    const std::uint64_t n_traced =
        std::min<std::uint64_t>(plan.traced_trials_per_cell, s.trials);
    bool outcomes_match = true;
    bool tally_match = true;
    for (std::uint64_t t = 0; t < n_traced; ++t) {
      const rcb::CheckpointRecord* rec = find_record(untraced.points[c], t);
      if (rec == nullptr || rec->status != "ok") {
        outcomes_match = false;
        continue;
      }
      // The same trial untraced, on this thread, for the overhead.
      const std::int64_t u0 = now_ns();
      const rcb::TrialOutcome fresh = rcb::run_scenario_trial(s, t);
      tot.untraced_ms += static_cast<double>(now_ns() - u0) * 1e-6;
      outcomes_match = outcomes_match && fresh.digest == rec->outcome.digest;

      SpanScope scope{&spans, -1, c, t};
      const std::int64_t trial_span = spans.open("trial", -1, c, t);
      scope.parent = trial_span;
      TracedOutcome o;
      if (s.is_multichannel()) {
        o = trace_mc(s, t, scope, tot);
      } else if (s.is_broadcast()) {
        o = trace_broadcast(s, t, scope, tot, log, cell.label);
      } else {
        o = trace_duel(s, t, scope, tot);
      }
      spans.close(trial_span);
      tot.traced_ms += static_cast<double>(spans.duration(trial_span)) * 1e-6;

      const rcb::TrialOutcome& u = rec->outcome;
      outcomes_match = outcomes_match && o.max_cost == u.max_cost &&
                       o.mean_cost == u.mean_cost &&
                       o.adversary_cost == u.adversary_cost &&
                       o.latency == u.latency;
      tally_match = tally_match &&
                    static_cast<double>(o.jammed_tally) == o.adversary_cost;
    }
    if (!tot.cell_keys.empty()) {
      std::printf("info cell %zu keys_per_repetition p50 %.0f max %.0f\n", c,
                  rcb::quantile(tot.cell_keys, 0.5),
                  rcb::quantile(tot.cell_keys, 1.0));
      tot.cell_keys.clear();
    }
    log.expect(outcomes_match,
               cell.label + ": " + std::to_string(n_traced) +
                   " traced trials equal the untraced outcomes (max cost, "
                   "mean cost, adversary cost, latency)");
    log.expect(tally_match, cell.label +
                                ": the wrapper's tally of jammed slots equals "
                                "the reported adversary cost");
  }
  log.expect(spans.write(spans_path), "spans written to " + spans_path);

  const double ev = static_cast<double>(tot.replay_events);
  const double mc_ev = static_cast<double>(tot.mc_events);
  const auto add = [&out](const char* name, double v, const char* unit) {
    out.push_back(Metric{name, v, unit});
  };
  add("rng.presample_ns_per_event",
      ratio(static_cast<double>(tot.presample_ns), ev), "ns/event");
  add("sim.repetition_ns_per_event",
      ratio(static_cast<double>(tot.repetition_ns), ev), "ns/event");
  add("sim.sort_sweep_ns_per_event",
      ratio(static_cast<double>(tot.repetition_ns - tot.presample_ns), ev),
      "ns/event");
  add("sim.keys_per_repetition_max", static_cast<double>(tot.keys_max),
      "keys");
  add("sim.mc_engine_ns_per_event",
      ratio(static_cast<double>(tot.mc_ns - tot.mc_consult_ns), mc_ev),
      "ns/event");
  add("adversary.plan_ns_per_call",
      ratio(static_cast<double>(tot.plan_ns),
            static_cast<double>(tot.plan_calls)),
      "ns");
  add("adversary.mc_consult_ns_per_slot",
      ratio(static_cast<double>(tot.mc_consult_ns),
            static_cast<double>(tot.mc_slots)),
      "ns/slot");
  add("adversary.mc_bulk_slot_share",
      ratio(static_cast<double>(tot.mc_bulk_slots),
            static_cast<double>(tot.mc_slots)),
      "ratio");
  add("adversary.mc_declines", static_cast<double>(tot.mc_declines), "calls");
  add("protocols.update_ns_per_node_rep",
      ratio(static_cast<double>(tot.step_ns) -
                static_cast<double>(tot.broadcast_plan_ns) -
                static_cast<double>(tot.repetition_ns),
            static_cast<double>(tot.node_reps)),
      "ns");
  add("protocols.duel_us_per_phase",
      ratio(static_cast<double>(tot.duel_ns) * 1e-3,
            static_cast<double>(tot.duel_plans)),
      "us/phase");
  add("protocols.duel_phases_per_trial",
      ratio(static_cast<double>(tot.duel_plans),
            static_cast<double>(tot.duel_trials)),
      "phases");
  add("trace.overhead_share", ratio(tot.traced_ms, tot.untraced_ms) - 1.0,
      "ratio");
}

}  // namespace perfbench
