// C=1 degeneration suite: pinned single-channel digests.
//
// Two families of literals live here.
//
// Scenario digests.  The eight McDegenerationDigestTest literals were
// captured from the repository state immediately BEFORE the multi-channel
// slot model was introduced (same seeds, same scenarios).  The
// multi-channel generalisation threaded a channel component through the
// packed event keys, the engines, and the scenario codec — and its hard
// contract is that every single-channel execution is bit-identical to
// what it was.  A digest drift here means the C=1 degeneration broke: some
// RNG draw, key ordering, or codec byte moved.  The suite re-derives each
// digest through the same pipeline the capture used (run_scenario_trial
// per trial, supervisor aggregate_digest).
//
// Slotwise witnesses.  The McDegenerationTest literals were captured from
// the dedicated single-channel slotwise engines (event-driven and dense)
// before they were folded into the multi-channel pair: reactive, bulk and
// bounded-window adversaries, the E10 (b) Lemma-1 cells, and fuzz-style
// randomness-free and faulted/CCA-drift profiles.  Each is the FNV-1a
// digest (common/mathutil.hpp) of every run's per-node observations,
// jammed_slots and event_count, folded in order.  The surviving engines,
// run at ChannelPlan{1, {}} with the same strategies written against
// McSlotAdversary, must reproduce them bit for bit: same Rng consumption,
// same event order, same history semantics.
//
// Both families are additionally pinned across
//   * SIMD kernels: RCB_SIMD=scalar and avx2 (when the host supports it),
//   * 1-, 4- and default-thread pools (the scenario digests through the
//     supervised sweep scheduler, the E10 cells through run_trials; both
//     are schedule-independent by construction).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "rcb/adversary/mc_strategies.hpp"
#include "rcb/common/mathutil.hpp"
#include "rcb/common/simd.hpp"
#include "rcb/runtime/checkpoint.hpp"
#include "rcb/runtime/montecarlo.hpp"
#include "rcb/runtime/scenario.hpp"
#include "rcb/runtime/supervisor.hpp"
#include "rcb/sim/mc_slot_engine.hpp"

namespace rcb {
namespace {

struct PinnedCase {
  const char* name;
  Scenario scenario;
  std::uint64_t digest;
};

std::vector<PinnedCase> pinned_cases() {
  std::vector<PinnedCase> set;
  {
    Scenario s;
    s.protocol = "broadcast"; s.adversary = "suffix"; s.budget = 65536;
    s.q = 0.9; s.n = 32; s.eps = 0.01; s.trials = 16; s.seed = 5;
    s.max_epoch_extra = 2;
    set.push_back({"broadcast_suffix", s, 0x2f48a4b973a1073dull});
  }
  {
    Scenario s;
    s.protocol = "naive"; s.adversary = "random"; s.budget = 4096;
    s.rate = 0.3; s.n = 24; s.eps = 0.05; s.trials = 12; s.seed = 7;
    s.max_epoch_extra = 2; s.battery = 512;
    set.push_back({"naive_random_battery", s, 0x7e7e06dfce7dc162ull});
  }
  {
    Scenario s;
    s.protocol = "sqrt"; s.adversary = "fraction"; s.budget = 8192;
    s.q = 0.8; s.n = 16; s.eps = 0.01; s.trials = 12; s.seed = 9;
    s.max_epoch_extra = 2;
    set.push_back({"sqrt_fraction", s, 0xa9a7ffde2879edd3ull});
  }
  {
    Scenario s;
    s.protocol = "one_to_one"; s.adversary = "spoof"; s.budget = 8192;
    s.q = 0.7; s.eps = 0.01; s.trials = 16; s.seed = 11;
    s.max_epoch_extra = 3; s.timeout_slots = 192;
    set.push_back({"one_to_one_spoof", s, 0x1171abc63d66fe51ull});
  }
  {
    Scenario s;
    s.protocol = "ksy"; s.adversary = "full_duel"; s.budget = 16384;
    s.q = 0.9; s.eps = 0.01; s.trials = 16; s.seed = 13;
    s.max_epoch_extra = 2;
    set.push_back({"ksy_full_duel", s, 0x92d610e169fd2977ull});
  }
  {
    Scenario s;
    s.protocol = "combined"; s.adversary = "both_views"; s.budget = 16384;
    s.q = 0.8; s.eps = 0.01; s.trials = 12; s.seed = 15;
    s.max_epoch_extra = 2;
    set.push_back({"combined_both_views", s, 0x451ed34171dd3605ull});
  }
  {
    // The committed fault-storm corpus scenario, field for field.
    Scenario s;
    s.protocol = "broadcast"; s.adversary = "suffix"; s.budget = 2048;
    s.q = 0.8; s.rate = 0.3; s.n = 16; s.eps = 0.01; s.trials = 3;
    s.seed = 1009; s.max_epoch_extra = 3; s.battery = 1024;
    s.faults.seed = 404; s.faults.crash_rate = 0.002;
    s.faults.restart_rate = 0.02; s.faults.crash_fraction = 0.8;
    s.faults.loss_rate = 0.25; s.faults.corruption_rate = 0.15;
    s.faults.clock_skew_rate = 0.15; s.faults.brownout_slot = 512;
    s.faults.brownout_fraction = 0.5; s.faults.brownout_factor = 0.5;
    s.faults.cca_false_busy = 0.1; s.faults.cca_missed_detection = 0.1;
    set.push_back({"corpus_fault_storm", s, 0x1d25107b98c4f1c3ull});
  }
  {
    Scenario s;
    s.protocol = "one_to_one"; s.adversary = "spoof"; s.budget = 8192;
    s.q = 0.7; s.rate = 0.3; s.n = 32; s.eps = 0.01; s.trials = 2;
    s.seed = 2027; s.max_epoch_extra = 4; s.timeout_slots = 192;
    set.push_back({"corpus_spoof_timeout", s, 0x727274b18e2eca79ull});
  }
  return set;
}

std::uint64_t sequential_digest(const Scenario& s) {
  std::vector<CheckpointRecord> records;
  for (std::uint64_t t = 0; t < s.trials; ++t) {
    CheckpointRecord rec;
    rec.trial = t;
    rec.outcome = run_scenario_trial(s, t);
    records.push_back(rec);
  }
  return aggregate_digest(records);
}

/// RAII SIMD-mode override so a failing EXPECT never leaks the mode into
/// later tests.
struct SimdModeGuard {
  explicit SimdModeGuard(simd::Mode m) { simd::set_mode(m); }
  ~SimdModeGuard() { simd::clear_mode_override(); }
};

TEST(McDegenerationDigestTest, SequentialScalarMatchesPinned) {
  SimdModeGuard guard(simd::Mode::kScalar);
  for (const PinnedCase& c : pinned_cases()) {
    ASSERT_EQ(validate_scenario(c.scenario), "") << c.name;
    EXPECT_EQ(sequential_digest(c.scenario), c.digest) << c.name;
  }
}

TEST(McDegenerationDigestTest, SequentialAvx2MatchesPinned) {
  if (!simd::avx2_available()) {
    GTEST_SKIP() << "host lacks AVX2+FMA";
  }
  SimdModeGuard guard(simd::Mode::kAvx2);
  for (const PinnedCase& c : pinned_cases()) {
    EXPECT_EQ(sequential_digest(c.scenario), c.digest) << c.name;
  }
}

TEST(McDegenerationDigestTest, SupervisedSweepMatchesPinnedAcrossPools) {
  // The supervised sweep's aggregate is schedule-independent; pin it for
  // explicit 1- and 4-thread pools and the process-default pool (the
  // --threads=1/4/0 axis of the chaos harness, in-process).
  const SupervisorOptions sup;  // no checkpointing, no watchdogs
  for (const PinnedCase& c : pinned_cases()) {
    {
      ThreadPool pool(1);
      EXPECT_EQ(run_supervised_sweep(c.scenario, sup, pool).aggregate_digest,
                c.digest)
          << c.name << " threads=1";
    }
    {
      ThreadPool pool(4);
      EXPECT_EQ(run_supervised_sweep(c.scenario, sup, pool).aggregate_digest,
                c.digest)
          << c.name << " threads=4";
    }
    EXPECT_EQ(run_supervised_sweep(c.scenario, sup).aggregate_digest, c.digest)
        << c.name << " threads=default";
  }
}

// ---------------------------------------------------------------------------
// Slotwise witnesses at C=1.

const ChannelPlan kOneChannel{1, {}};

/// FNV-1a over the little-endian bytes of every folded value.
struct Fold {
  std::string bytes;

  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      bytes.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  }
  void run(const McSlotwiseResult& r) {
    for (const NodeObservation& o : r.rep.obs) {
      mix(o.sends);
      mix(o.listens);
      mix(o.clear);
      mix(o.messages);
      mix(o.nacks);
      mix(o.noise);
      mix(o.first_message_slot);
      mix(o.listens_until_first_message);
    }
    mix(r.jammed_slots);
    mix(r.event_count);
  }
  std::uint64_t digest() const { return fnv1a64(bytes); }
};

McSlotwiseResult run_c1(bool dense, SlotCount slots,
                        const std::vector<NodeAction>& actions,
                        McSlotAdversary& adv, Rng& rng,
                        const CcaModel& cca = CcaModel{},
                        FaultPlan* faults = nullptr) {
  const McSlotwiseResult r =
      dense ? run_repetition_slotwise_mc_dense(slots, actions, kOneChannel,
                                               adv, rng, cca, faults)
            : run_repetition_slotwise_mc(slots, actions, kOneChannel, adv,
                                         rng, cca, faults);
  // At C=1 a jammed slot is exactly one jammed (slot, channel) pair.
  EXPECT_EQ(r.jam_charges, r.jammed_slots);
  return r;
}

/// Jams iff the previous slot carried a transmission.
class Reactive final : public McSlotAdversary {
 public:
  explicit Reactive(SlotCount window) : window_(window) {}
  std::uint64_t jam_mask(SlotIndex, std::uint32_t,
                         std::span<const McSlotActivity> history) override {
    return !history.empty() && history.back().senders > 0 ? 1 : 0;
  }
  SlotCount history_window() const override { return window_; }

 private:
  SlotCount window_;
};

/// Jams slot s iff s % 3 == 0, answering eventless runs in bulk (declining
/// when a run alternates more than the sink holds).
class PeriodicJammer final : public McSlotAdversary {
 public:
  std::uint64_t jam_mask(SlotIndex slot, std::uint32_t,
                         std::span<const McSlotActivity>) override {
    return slot % 3 == 0 ? 1 : 0;
  }
  bool jam_run_masks(SlotIndex begin, SlotIndex end, std::uint32_t,
                     std::span<const McSlotActivity>,
                     McJamRunSink& sink) override {
    for (SlotIndex s = begin; s < end; ++s) {
      if (!sink.append(1, s % 3 == 0 ? 1 : 0)) return false;
    }
    return true;
  }
  SlotCount history_window() const override { return 0; }
};

/// 1-slot lookback reactive jammer with the run-aware bulk answer: only a
/// run's first slot can see a transmission in its lookback.
class BulkReactive final : public McSlotAdversary {
 public:
  std::uint64_t jam_mask(SlotIndex, std::uint32_t,
                         std::span<const McSlotActivity> history) override {
    return !history.empty() && history.back().senders > 0 ? 1 : 0;
  }
  bool jam_run_masks(SlotIndex begin, SlotIndex end, std::uint32_t,
                     std::span<const McSlotActivity> history,
                     McJamRunSink& sink) override {
    const bool first = !history.empty() && history.back().senders > 0;
    sink.append(1, first ? 1 : 0);
    sink.append(end - begin - 1, 0);
    return true;
  }
  SlotCount history_window() const override { return 1; }
};

/// Jams iff one of the last `window` elapsed slots carried a transmission.
class WindowReactive final : public McSlotAdversary {
 public:
  explicit WindowReactive(SlotCount window) : window_(window) {}
  std::uint64_t jam_mask(SlotIndex, std::uint32_t,
                         std::span<const McSlotActivity> history) override {
    const std::size_t keep = std::min<std::size_t>(history.size(), window_);
    for (std::size_t k = history.size() - keep; k < history.size(); ++k) {
      if (history[k].senders > 0) return 1;
    }
    return 0;
  }
  SlotCount history_window() const override { return window_; }

 private:
  SlotCount window_;
};

// The E10 (b) adversaries, as bench_e10_adversary_ablation defines them.

class TriggerHappy final : public McSlotAdversary {
 public:
  explicit TriggerHappy(Cost budget) : budget_(budget) {}
  std::uint64_t jam_mask(SlotIndex, std::uint32_t,
                         std::span<const McSlotActivity> history) override {
    if (!triggered_ && !history.empty() && history.back().senders > 0) {
      triggered_ = true;
    }
    if (!triggered_ || budget_ == 0) return 0;
    --budget_;
    return 1;
  }
  bool jam_run_masks(SlotIndex begin, SlotIndex end, std::uint32_t,
                     std::span<const McSlotActivity> history,
                     McJamRunSink& sink) override {
    if (!triggered_ && !history.empty() && history.back().senders > 0) {
      triggered_ = true;
    }
    const SlotCount len = end - begin;
    const SlotCount jams = triggered_ ? std::min<SlotCount>(budget_, len) : 0;
    sink.append(jams, 1);
    sink.append(len - jams, 0);
    budget_ -= jams;
    return true;
  }
  SlotCount history_window() const override { return 1; }

 private:
  Cost budget_;
  bool triggered_ = false;
};

class SuffixSlotAdversary final : public McSlotAdversary {
 public:
  SuffixSlotAdversary(SlotCount num_slots, Cost budget)
      : start_(num_slots > budget ? num_slots - budget : 0) {}
  std::uint64_t jam_mask(SlotIndex slot, std::uint32_t,
                         std::span<const McSlotActivity>) override {
    return slot >= start_ ? 1 : 0;
  }
  bool jam_run_masks(SlotIndex begin, SlotIndex end, std::uint32_t,
                     std::span<const McSlotActivity>,
                     McJamRunSink& sink) override {
    const SlotIndex split = std::clamp(start_, begin, end);
    sink.append(split - begin, 0);
    sink.append(end - split, 1);
    return true;
  }
  SlotCount history_window() const override { return 0; }

 private:
  SlotIndex start_;
};

class RandomSlotAdversary final : public McSlotAdversary {
 public:
  RandomSlotAdversary(SlotCount num_slots, Cost budget, Rng& rng)
      : rate_(static_cast<double>(budget) / static_cast<double>(num_slots)),
        rng_(&rng) {}
  std::uint64_t jam_mask(SlotIndex, std::uint32_t,
                         std::span<const McSlotActivity>) override {
    return rng_->bernoulli(rate_) ? 1 : 0;
  }
  SlotCount history_window() const override { return 0; }

 private:
  double rate_;
  Rng* rng_;
};

/// The four former event-vs-single-channel comparisons: a committed 40%
/// schedule (answered in bulk) or a 1-slot reactive jammer, optionally
/// under CCA drift and a fault plan.
std::uint64_t c1_case(bool dense, const CcaModel& cca, bool with_faults,
                      bool reactive, std::uint64_t seed) {
  const SlotCount slots = 512;
  const std::vector<NodeAction> actions = {
      NodeAction{0.4, Payload::kMessage, 0.0},
      NodeAction{0.1, Payload::kNoise, 0.7},
      NodeAction{0.0, Payload::kNoise, 0.9},
      NodeAction{0.2, Payload::kNack, 0.3}};
  FaultConfig fcfg;
  if (with_faults) {
    fcfg.seed = 99;
    fcfg.crash_rate = 0.001;
    fcfg.restart_rate = 0.01;
    fcfg.loss_rate = 0.2;
    fcfg.corruption_rate = 0.1;
    fcfg.clock_skew_rate = 0.1;
  }
  FaultPlan faults(fcfg);
  McScheduleAdversary sched({JamSchedule::blocking_fraction(slots, 0.4)});
  Reactive react(1);
  McSlotAdversary& adv =
      reactive ? static_cast<McSlotAdversary&>(react) : sched;
  Rng rng = Rng::stream(seed, 1);
  Fold f;
  f.run(run_c1(dense, slots, actions, adv, rng, cca,
               faults.active() ? &faults : nullptr));
  return f.digest();
}

std::uint64_t reactive_unbounded(bool dense) {
  const std::vector<NodeAction> actions = {
      NodeAction{0.3, Payload::kMessage, 0.3},
      NodeAction{0.0, Payload::kNoise, 0.6},
      NodeAction{0.2, Payload::kNack, 0.2}};
  Reactive adv(McSlotAdversary::kUnboundedHistory);
  Rng rng(9);
  Fold f;
  f.run(run_c1(dense, 1000, actions, adv, rng));
  return f.digest();
}

std::uint64_t bulk_periodic() {
  const std::vector<NodeAction> actions = {
      NodeAction{0.01, Payload::kMessage, 0.0},
      NodeAction{0.0, Payload::kNoise, 0.01}};
  Fold f;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    PeriodicJammer adv;
    Rng rng(seed);
    f.run(run_c1(false, 2000, actions, adv, rng));
    f.mix(rng.next_u64());  // the final Rng position
  }
  return f.digest();
}

std::uint64_t bulk_reactive() {
  const std::vector<NodeAction> actions = {
      NodeAction{0.005, Payload::kMessage, 0.0},
      NodeAction{0.0, Payload::kNoise, 0.005}};
  Fold f;
  for (std::uint64_t seed = 20; seed <= 30; ++seed) {
    BulkReactive adv;
    Rng rng(seed);
    f.run(run_c1(false, 5000, actions, adv, rng));
    f.mix(rng.next_u64());
  }
  return f.digest();
}

std::uint64_t declining() {
  // Runs longer than ~2 * kMaxSegments overflow PeriodicJammer's sink, so
  // accepted and declined bulk calls mix in one phase.
  const std::vector<NodeAction> actions = {
      NodeAction{0.002, Payload::kMessage, 0.0}};
  PeriodicJammer adv;
  Rng rng(7);
  Fold f;
  f.run(run_c1(false, 20000, actions, adv, rng));
  f.mix(rng.next_u64());
  return f.digest();
}

std::uint64_t window() {
  const std::vector<NodeAction> actions = {
      NodeAction{0.05, Payload::kMessage, 0.3},
      NodeAction{0.0, Payload::kNoise, 0.4}};
  Fold f;
  for (SlotCount w : {SlotCount{0}, SlotCount{1}, SlotCount{3}, SlotCount{64},
                      SlotCount{1000}, SlotCount{5000}}) {
    WindowReactive adv(w);
    Rng rng(9);
    f.run(run_c1(false, 1000, actions, adv, rng));
  }
  return f.digest();
}

/// One E10 (b) column: 600 trials at each of the four jam budgets, trial
/// streams Rng::stream(98000 + 100 * which + budget, t) as in the bench.
std::uint64_t e10_cells(int which, ThreadPool& pool) {
  const SlotCount slots = 1024;
  const double p = 0.08;
  const std::vector<NodeAction> actions = {
      NodeAction{p, Payload::kMessage, 0.0},
      NodeAction{0.0, Payload::kNoise, p}};
  Fold f;
  for (Cost jb : {Cost{256}, Cost{512}, Cost{768}, Cost{960}}) {
    const auto runs = run_trials<McSlotwiseResult>(
        600, 98000 + 100 * static_cast<std::uint64_t>(which) + jb,
        [&](std::size_t, Rng& rng) {
          SuffixSlotAdversary suffix(slots, jb);
          TriggerHappy reactive(jb);
          RandomSlotAdversary random(slots, jb, rng);
          McSlotAdversary& adv =
              which == 0   ? static_cast<McSlotAdversary&>(suffix)
              : which == 1 ? static_cast<McSlotAdversary&>(reactive)
                           : random;
          return run_repetition_slotwise_mc(slots, actions, kOneChannel, adv,
                                            rng);
        },
        pool);
    for (const McSlotwiseResult& r : runs) f.run(r);
  }
  return f.digest();
}

/// The fuzz oracle's profile construction (testing/oracles.cpp) at a fixed
/// seed: randomness-free (probabilities in {0, 1}, no faults), or random
/// probabilities under CCA drift and the fault-storm corpus fault mix.
std::uint64_t fuzz_profile(bool faulted, bool dense) {
  constexpr std::uint64_t kProfileSalt = 0x0bacc1e5u;
  const std::uint64_t seed = faulted ? 4001 : 4000;
  Rng prof = Rng::stream(seed ^ kProfileSalt, 1);
  std::vector<NodeAction> actions;
  for (std::size_t u = 0; u < 5; ++u) {
    NodeAction a;
    a.payload = u == 0 ? Payload::kMessage : Payload::kNoise;
    if (faulted) {
      a.send_prob = 0.5 * prof.uniform_double();
      a.listen_prob = prof.uniform_double();
    } else {
      a.send_prob = prof.bernoulli(0.4) ? 1.0 : 0.0;
      a.listen_prob = a.send_prob == 0.0 && prof.bernoulli(0.7) ? 1.0 : 0.0;
    }
    actions.push_back(a);
  }
  const SlotCount slots = 256;
  FaultConfig fcfg;
  CcaModel cca;
  if (faulted) {
    fcfg.seed = 404;
    fcfg.crash_rate = 0.002;
    fcfg.restart_rate = 0.02;
    fcfg.crash_fraction = 0.8;
    fcfg.loss_rate = 0.25;
    fcfg.corruption_rate = 0.15;
    fcfg.clock_skew_rate = 0.15;
    fcfg.cca_false_busy = 0.1;
    fcfg.cca_missed_detection = 0.1;
    cca = CcaModel{0.1, 0.1};
  }
  FaultPlan faults(fcfg);
  McScheduleAdversary adv({JamSchedule::blocking_fraction(slots, 0.6)});
  Rng rng = Rng::stream(seed ^ kProfileSalt, dense ? 3 : 2);
  Fold f;
  f.run(run_c1(dense, slots, actions, adv, rng, cca,
               faults.active() ? &faults : nullptr));
  return f.digest();
}

struct Witness {
  const char* name;
  std::uint64_t (*run)();
  std::uint64_t digest;
};

std::vector<Witness> witnesses() {
  return {
      {"c1_exact/event",
       [] { return c1_case(false, CcaModel{}, false, false, 101); },
       0x5fe7863365c539fbull},
      {"c1_exact/dense",
       [] { return c1_case(true, CcaModel{}, false, false, 101); },
       0xac6330a7c862eef3ull},
      {"c1_cca/event",
       [] { return c1_case(false, CcaModel{0.1, 0.05}, false, false, 202); },
       0xcdf8b943b9d6b264ull},
      {"c1_cca/dense",
       [] { return c1_case(true, CcaModel{0.1, 0.05}, false, false, 202); },
       0x8f559e575b8e13e0ull},
      {"c1_faults/event",
       [] { return c1_case(false, CcaModel{0.05, 0.05}, true, false, 303); },
       0xa9b31f078eb79a86ull},
      {"c1_faults/dense",
       [] { return c1_case(true, CcaModel{0.05, 0.05}, true, false, 303); },
       0x7403b459ec1f73f7ull},
      {"c1_reactive/event",
       [] { return c1_case(false, CcaModel{}, false, true, 404); },
       0xc126da588b6efff6ull},
      {"c1_reactive/dense",
       [] { return c1_case(true, CcaModel{}, false, true, 404); },
       0x274cfaf90aed2cd9ull},
      {"reactive_unbounded/event", [] { return reactive_unbounded(false); },
       0x159a76b0c064109cull},
      {"reactive_unbounded/dense", [] { return reactive_unbounded(true); },
       0xcda5a76e30a927a9ull},
      {"bulk_periodic", bulk_periodic, 0x23d29d6ff864aec4ull},
      {"bulk_reactive", bulk_reactive, 0x2e7578d5d8238b37ull},
      {"declining", declining, 0x0160411a14735a0dull},
      {"window", window, 0x85a42cbffd463ee7ull},
      {"e10_suffix", [] { return e10_cells(0, ThreadPool::global()); },
       0xfdb706c83aca60f3ull},
      {"e10_reactive", [] { return e10_cells(1, ThreadPool::global()); },
       0x4d2991c4097bf833ull},
      {"e10_random", [] { return e10_cells(2, ThreadPool::global()); },
       0xcb72d5da27cb0209ull},
      {"fuzz_randomness_free/event", [] { return fuzz_profile(false, false); },
       0xd5168a16ab9e7769ull},
      {"fuzz_randomness_free/dense", [] { return fuzz_profile(false, true); },
       0xd5168a16ab9e7769ull},
      {"fuzz_faulted/event", [] { return fuzz_profile(true, false); },
       0x22bc372bb7878597ull},
      {"fuzz_faulted/dense", [] { return fuzz_profile(true, true); },
       0xb7c127aaa8fa1009ull},
  };
}

/// Checks the witnesses whose name starts with `prefix`.
void expect_witnesses(const std::string& prefix) {
  int checked = 0;
  for (const Witness& w : witnesses()) {
    if (std::string(w.name).rfind(prefix, 0) != 0) continue;
    ++checked;
    EXPECT_EQ(w.run(), w.digest) << w.name;
  }
  EXPECT_GT(checked, 0) << prefix;
}

TEST(McDegenerationTest, C1MatchesSingleChannelExactly) {
  expect_witnesses("c1_exact/");
}

TEST(McDegenerationTest, C1MatchesUnderCcaDrift) {
  expect_witnesses("c1_cca/");
}

TEST(McDegenerationTest, C1MatchesUnderFaults) {
  expect_witnesses("c1_faults/");
}

TEST(McDegenerationTest, C1MatchesWithReactiveAdversaryHistory) {
  expect_witnesses("c1_reactive/");
  expect_witnesses("reactive_unbounded/");
}

TEST(McDegenerationTest, C1MatchesPinnedBulkAndWindowRuns) {
  expect_witnesses("bulk_");
  expect_witnesses("declining");
  expect_witnesses("window");
}

TEST(McDegenerationTest, C1MatchesPinnedE10Cells) {
  expect_witnesses("e10_");
}

TEST(McDegenerationTest, C1MatchesPinnedFuzzProfiles) {
  expect_witnesses("fuzz_");
}

TEST(McDegenerationTest, C1WitnessesMatchPinnedUnderScalarAndAvx2) {
  std::vector<simd::Mode> modes = {simd::Mode::kScalar};
  if (simd::avx2_available()) modes.push_back(simd::Mode::kAvx2);
  for (const simd::Mode mode : modes) {
    SimdModeGuard guard(mode);
    for (const Witness& w : witnesses()) {
      EXPECT_EQ(w.run(), w.digest)
          << w.name << " avx2=" << (mode == simd::Mode::kAvx2);
    }
  }
}

TEST(McDegenerationTest, C1E10CellsMatchPinnedAcrossPools) {
  const std::uint64_t pinned[3] = {0xfdb706c83aca60f3ull,
                                   0x4d2991c4097bf833ull,
                                   0xcb72d5da27cb0209ull};
  ThreadPool one(1), four(4);
  for (int which = 0; which < 3; ++which) {
    EXPECT_EQ(e10_cells(which, one), pinned[which]) << which << " threads=1";
    EXPECT_EQ(e10_cells(which, four), pinned[which]) << which << " threads=4";
    EXPECT_EQ(e10_cells(which, ThreadPool::global()), pinned[which])
        << which << " threads=default";
  }
}

}  // namespace
}  // namespace rcb
