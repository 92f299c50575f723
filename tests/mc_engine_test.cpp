// Tests for the slotwise engines (sim/mc_slot_engine.hpp) over several
// channels: the event-vs-dense crosscheck, per-channel budget accounting,
// the bulk jam_run_masks contract, and the multi-channel edge cases (C > n,
// everyone on one channel, a jammer spending its budget on an empty
// channel).  The single-channel model (C=1) is covered by
// slot_engine_test.cpp and pinned by mc_degeneration_test.cpp.
#include "rcb/sim/mc_slot_engine.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "rcb/adversary/budget.hpp"
#include "rcb/adversary/mc_strategies.hpp"
#include "rcb/rng/rng.hpp"
#include "rcb/sim/channel_plan.hpp"
#include "rcb/sim/jam_schedule.hpp"

namespace rcb {
namespace {

bool obs_equal(const NodeObservation& a, const NodeObservation& b) {
  return a.sends == b.sends && a.listens == b.listens && a.clear == b.clear &&
         a.messages == b.messages && a.nacks == b.nacks &&
         a.noise == b.noise && a.first_message_slot == b.first_message_slot &&
         a.listens_until_first_message == b.listens_until_first_message;
}

std::vector<NodeAction> mixed_actions() {
  return {NodeAction{0.4, Payload::kMessage, 0.0},
          NodeAction{0.1, Payload::kNoise, 0.7},
          NodeAction{0.0, Payload::kNoise, 0.9},
          NodeAction{0.2, Payload::kNack, 0.3}};
}

// ---------------------------------------------------------------------------
// Event vs dense mc crosscheck: exact on a randomness-free profile.

TEST(McEngineTest, EventMatchesDenseOnRandomnessFreeProfile) {
  const SlotCount slots = 256;
  const std::uint32_t C = 4;
  // All probabilities 0/1: both engines resolve the same deterministic
  // per-(slot, channel) groups regardless of their Rng consumption order.
  std::vector<NodeAction> actions = {NodeAction{1.0, Payload::kMessage, 0.0},
                                     NodeAction{0.0, Payload::kNoise, 1.0},
                                     NodeAction{1.0, Payload::kNack, 0.0},
                                     NodeAction{0.0, Payload::kNoise, 1.0},
                                     NodeAction{0.0, Payload::kNoise, 1.0}};
  std::vector<ChannelHop> hops = {{0, 1}, {0, 1}, {2, 0}, {2, 0}, {3, 2}};
  const ChannelPlan plan{C, {hops.data(), hops.size()}};
  std::vector<JamSchedule> per_channel;
  for (std::uint32_t c = 0; c < C; ++c) {
    per_channel.push_back(
        JamSchedule::blocking_fraction(slots, 0.2 * static_cast<double>(c)));
  }

  McScheduleAdversary adv_ev(per_channel), adv_dn(per_channel);
  Rng rng_ev = Rng::stream(7, 1), rng_dn = Rng::stream(7, 2);
  const McSlotwiseResult ev =
      run_repetition_slotwise_mc(slots, actions, plan, adv_ev, rng_ev);
  const McSlotwiseResult dn =
      run_repetition_slotwise_mc_dense(slots, actions, plan, adv_dn, rng_dn);

  EXPECT_EQ(ev.jam_charges, dn.jam_charges);
  EXPECT_EQ(ev.jammed_slots, dn.jammed_slots);
  for (std::size_t u = 0; u < actions.size(); ++u) {
    EXPECT_TRUE(obs_equal(ev.rep.obs[u], dn.rep.obs[u])) << "node " << u;
  }
  // Conservation against the committed schedules.
  Cost want = 0;
  for (const JamSchedule& js : per_channel) want += js.jammed_count();
  EXPECT_EQ(ev.jam_charges, want);
}

// Channel isolation: a listener hears only its own channel.  Node 1 shares
// the sender's fixed channel and hears every message; node 2 sits on a
// different channel and hears only clear air.
TEST(McEngineTest, ReceptionIsPerChannel) {
  const SlotCount slots = 128;
  std::vector<NodeAction> actions = {NodeAction{1.0, Payload::kMessage, 0.0},
                                     NodeAction{0.0, Payload::kNoise, 1.0},
                                     NodeAction{0.0, Payload::kNoise, 1.0}};
  std::vector<ChannelHop> hops = {{2, 0}, {2, 0}, {5, 0}};
  const ChannelPlan plan{8, {hops.data(), hops.size()}};
  McNoJam adv;
  Rng rng = Rng::stream(11, 0);
  const McSlotwiseResult r =
      run_repetition_slotwise_mc(slots, actions, plan, adv, rng);
  EXPECT_EQ(r.rep.obs[1].messages, slots);
  EXPECT_EQ(r.rep.obs[2].messages, 0u);
  EXPECT_EQ(r.rep.obs[2].clear, slots);
  EXPECT_EQ(r.jam_charges, 0u);
}

// ---------------------------------------------------------------------------
// Edge cases.

TEST(McEngineTest, MoreChannelsThanNodes) {
  // C=64 with 2 nodes: hops land somewhere in [0, 64); the engines must
  // accept the full channel range and the budget accounting must hold.
  const SlotCount slots = 200;
  std::vector<NodeAction> actions = {NodeAction{1.0, Payload::kMessage, 0.0},
                                     NodeAction{0.0, Payload::kNoise, 1.0}};
  std::vector<ChannelHop> hops = {{63, 0}, {63, 0}};
  const ChannelPlan plan{64, {hops.data(), hops.size()}};
  McSweepJammer adv(Budget(100), 1);
  Rng rng = Rng::stream(13, 0);
  const McSlotwiseResult r =
      run_repetition_slotwise_mc(slots, actions, plan, adv, rng);
  // The sweep dwells 1 slot per channel: it hits channel 63 every 64 slots
  // until the budget runs dry at slot 100.
  EXPECT_EQ(r.jam_charges, 100u);
  EXPECT_EQ(r.jammed_slots, 100u);
  // Channel 63 is jammed on slots 63 (within budget); the listener hears
  // noise there and messages elsewhere.
  EXPECT_GT(r.rep.obs[1].messages, 0u);
  EXPECT_GT(r.rep.obs[1].noise, 0u);
  EXPECT_EQ(r.rep.obs[1].messages + r.rep.obs[1].noise, slots);
}

TEST(McEngineTest, FocusJammerOnTheOccupiedChannelBlocksEverything) {
  const SlotCount slots = 128;
  std::vector<NodeAction> actions = {NodeAction{1.0, Payload::kMessage, 0.0},
                                     NodeAction{0.0, Payload::kNoise, 1.0},
                                     NodeAction{0.0, Payload::kNoise, 1.0}};
  // Everyone parks on channel 3 of 4.
  std::vector<ChannelHop> hops = {{3, 0}, {3, 0}, {3, 0}};
  const ChannelPlan plan{4, {hops.data(), hops.size()}};
  McFocusJammer adv(Budget::unlimited(), 1.0, 3, Rng::stream(17, 0));
  Rng rng = Rng::stream(17, 1);
  const McSlotwiseResult r =
      run_repetition_slotwise_mc(slots, actions, plan, adv, rng);
  EXPECT_EQ(r.rep.obs[1].messages, 0u);
  EXPECT_EQ(r.rep.obs[1].noise, slots);
  EXPECT_EQ(r.rep.obs[2].noise, slots);
  EXPECT_EQ(r.jam_charges, slots);  // 1 unit per slot, single channel
  EXPECT_EQ(r.jammed_slots, slots);
}

TEST(McEngineTest, BudgetSpentOnAnEmptyChannelIsWasted) {
  const SlotCount slots = 128;
  std::vector<NodeAction> actions = {NodeAction{1.0, Payload::kMessage, 0.0},
                                     NodeAction{0.0, Payload::kNoise, 1.0}};
  std::vector<ChannelHop> hops = {{0, 0}, {0, 0}};
  const ChannelPlan plan{4, {hops.data(), hops.size()}};
  // Focus on channel 2 — nobody is there; the budget drains (exhaustion on
  // an empty channel) while delivery proceeds untouched on channel 0.
  McFocusJammer adv(Budget(50), 1.0, 2, Rng::stream(19, 0));
  Rng rng = Rng::stream(19, 1);
  const McSlotwiseResult r =
      run_repetition_slotwise_mc(slots, actions, plan, adv, rng);
  EXPECT_EQ(r.jam_charges, 50u);  // exhausted exactly
  EXPECT_EQ(adv.budget().spent(), 50u);
  EXPECT_TRUE(adv.budget().exhausted());
  EXPECT_EQ(r.rep.obs[1].messages, slots);
  EXPECT_EQ(r.rep.obs[1].noise, 0u);
}

// Per-channel charge accounting: whatever a randomized budget-split
// strategy reports as spent is exactly what the engine charged — on both
// engines, across channel counts.
TEST(McEngineTest, EngineChargesEqualStrategySpend) {
  const SlotCount slots = 300;
  const auto actions = mixed_actions();
  for (const std::uint32_t C : {1u, 2u, 4u, 8u}) {
    std::vector<ChannelHop> hops;
    Rng hop_rng = Rng::stream(23, C);
    for (std::size_t u = 0; u < actions.size(); ++u) {
      hops.push_back(
          ChannelHop{static_cast<std::uint32_t>(hop_rng.uniform_u64(C)),
                     static_cast<std::uint32_t>(hop_rng.uniform_u64(C))});
    }
    const ChannelPlan plan{C, {hops.data(), hops.size()}};
    for (const bool dense : {false, true}) {
      McUniformSplitJammer adv(Budget(400), 0.5, Rng::stream(29, C));
      Rng rng = Rng::stream(31, C + (dense ? 100 : 0));
      const McSlotwiseResult r =
          dense ? run_repetition_slotwise_mc_dense(slots, actions, plan, adv,
                                                   rng)
                : run_repetition_slotwise_mc(slots, actions, plan, adv, rng);
      EXPECT_EQ(r.jam_charges, adv.budget().spent())
          << "C=" << C << " dense=" << dense;
      EXPECT_LE(r.jam_charges, 400u) << "C=" << C << " dense=" << dense;
      EXPECT_LE(r.jammed_slots, slots);
    }
  }
}

// ---------------------------------------------------------------------------
// Bulk consultation (jam_run_masks) contract — the multi-channel mirror of
// the single-channel jam_run suite: bulk answers are a pure optimization,
// so every observable must coincide with the per-slot fallback.

/// Forwards jam_mask but always declines the bulk hook — pins the engine's
/// per-slot fallback as the reference execution for the bulk path.
class NoBulk final : public McSlotAdversary {
 public:
  explicit NoBulk(McSlotAdversary& inner) : inner_(inner) {}
  std::uint64_t jam_mask(SlotIndex slot, std::uint32_t num_channels,
                         std::span<const McSlotActivity> history) override {
    return inner_.jam_mask(slot, num_channels, history);
  }
  SlotCount history_window() const override {
    return inner_.history_window();
  }

 private:
  McSlotAdversary& inner_;
};

void expect_identical_mc(const McSlotwiseResult& a, const McSlotwiseResult& b) {
  EXPECT_EQ(a.jam_charges, b.jam_charges);
  EXPECT_EQ(a.jammed_slots, b.jammed_slots);
  EXPECT_EQ(a.event_count, b.event_count);
  ASSERT_EQ(a.rep.obs.size(), b.rep.obs.size());
  for (std::size_t u = 0; u < a.rep.obs.size(); ++u) {
    EXPECT_TRUE(obs_equal(a.rep.obs[u], b.rep.obs[u])) << "node " << u;
  }
}

std::vector<NodeAction> sparse_actions() {
  return {NodeAction{0.01, Payload::kMessage, 0.0},
          NodeAction{0.0, Payload::kNoise, 0.01},
          NodeAction{0.005, Payload::kNack, 0.005}};
}

/// Runs one strategy twice through the event engine — once consulted in
/// bulk, once forced onto the per-slot fallback via NoBulk — and requires
/// the executions to be indistinguishable, down to the trial Rng position.
template <typename Make>
void expect_bulk_equals_fallback(Make make, std::uint32_t C,
                                 std::uint64_t seed) {
  const SlotCount slots = 8192;
  const auto actions = sparse_actions();
  std::vector<ChannelHop> hops;
  Rng hop_rng = Rng::stream(seed, 900);
  for (std::size_t u = 0; u < actions.size(); ++u) {
    hops.push_back(
        ChannelHop{static_cast<std::uint32_t>(hop_rng.uniform_u64(C)),
                   static_cast<std::uint32_t>(hop_rng.uniform_u64(C))});
  }
  const ChannelPlan plan{C, {hops.data(), hops.size()}};

  auto bulk_adv = make();
  Rng rng_bulk = Rng::stream(seed, 1);
  const McSlotwiseResult a =
      run_repetition_slotwise_mc(slots, actions, plan, bulk_adv, rng_bulk);

  auto inner = make();
  NoBulk scalar_adv(inner);
  Rng rng_scalar = Rng::stream(seed, 1);
  const McSlotwiseResult b =
      run_repetition_slotwise_mc(slots, actions, plan, scalar_adv, rng_scalar);

  expect_identical_mc(a, b);
  EXPECT_EQ(rng_bulk.next_u64(), rng_scalar.next_u64())
      << "trial Rng position diverged: C=" << C << " seed=" << seed;
}

TEST(McJamRunMasksTest, BulkAnswerMatchesPerSlotPathForEveryStrategy) {
  for (const std::uint32_t C : {1u, 4u, 64u}) {
    expect_bulk_equals_fallback([] { return McNoJam{}; }, C, 51);
    // rate in (0, 1): bulk declines by rollback while the budget lives
    // (alternating masks overflow the sink) and answers once it dries.
    expect_bulk_equals_fallback(
        [&] {
          return McUniformSplitJammer(Budget(500), 0.4, Rng::stream(61, C));
        },
        C, 52);
    // rate 0: the draw-free single-segment shortcut.
    expect_bulk_equals_fallback(
        [&] {
          return McUniformSplitJammer(Budget(500), 0.0, Rng::stream(62, C));
        },
        C, 53);
    expect_bulk_equals_fallback(
        [&] {
          return McFocusJammer(Budget(600), 0.05, 2, Rng::stream(63, C));
        },
        C, 54);
    // rate * C >= 1: the draw-free budget-arithmetic fast path.
    expect_bulk_equals_fallback(
        [&] {
          return McFocusJammer(Budget(600), 1.0, 1, Rng::stream(64, C));
        },
        C, 55);
    expect_bulk_equals_fallback([] { return McSweepJammer(Budget(3000), 64); },
                                C, 56);
    expect_bulk_equals_fallback(
        [&] {
          std::vector<JamSchedule> per_channel;
          for (std::uint32_t c = 0; c < C && c < 8; ++c) {
            per_channel.push_back(JamSchedule::blocking_fraction(
                8192, 0.1 * static_cast<double>(c)));
          }
          return McScheduleAdversary(per_channel);
        },
        C, 57);
  }
}

/// Alternates mask 1/0 by slot parity; its bulk answer appends slot by
/// slot, so runs longer than kMaxSegments overflow the sink and decline
/// mid-phase while short runs answer — both paths mix in one execution.
class ParityMask final : public McSlotAdversary {
 public:
  std::uint64_t jam_mask(SlotIndex slot, std::uint32_t,
                         std::span<const McSlotActivity>) override {
    return slot & 1;
  }
  bool jam_run_masks(SlotIndex begin, SlotIndex end, std::uint32_t,
                     std::span<const McSlotActivity>,
                     McJamRunSink& sink) override {
    ++bulk_calls_;
    for (SlotIndex s = begin; s < end; ++s) {
      if (!sink.append(1, s & 1)) {
        ++declines_;
        return false;
      }
    }
    return true;
  }
  SlotCount history_window() const override { return 0; }

  int bulk_calls_ = 0;
  int declines_ = 0;
};

TEST(McJamRunMasksTest, MidRunDeclineFallsBackBitIdentically) {
  const SlotCount slots = 30000;
  std::vector<NodeAction> actions = {NodeAction{0.002, Payload::kMessage, 0.0},
                                     NodeAction{0.0, Payload::kNoise, 0.002}};
  std::vector<ChannelHop> hops = {{0, 1}, {1, 1}};
  const ChannelPlan plan{2, {hops.data(), hops.size()}};

  ParityMask bulk_adv;
  Rng rng_bulk = Rng::stream(43, 1);
  const McSlotwiseResult a =
      run_repetition_slotwise_mc(slots, actions, plan, bulk_adv, rng_bulk);

  ParityMask inner;
  NoBulk scalar_adv(inner);
  Rng rng_scalar = Rng::stream(43, 1);
  const McSlotwiseResult b =
      run_repetition_slotwise_mc(slots, actions, plan, scalar_adv, rng_scalar);

  expect_identical_mc(a, b);
  EXPECT_EQ(rng_bulk.next_u64(), rng_scalar.next_u64());
  // With mean run length ~250 against a 64-segment sink, both accepted and
  // declined bulk calls must occur in one phase.
  EXPECT_GT(bulk_adv.declines_, 0);
  EXPECT_GT(bulk_adv.bulk_calls_, bulk_adv.declines_);
  // Parity accounting holds regardless of which path decided each slot.
  EXPECT_EQ(a.jammed_slots, slots / 2);
  EXPECT_EQ(a.jam_charges, slots / 2);
}

/// 1-slot lookback: jams channel 0 iff the previous slot carried a
/// transmission; the bulk form answers with the run-aware closed form
/// (only the first run slot can see a sender in its lookback).
class McBulkReactive final : public McSlotAdversary {
 public:
  explicit McBulkReactive(bool bulk) : bulk_(bulk) {}
  std::uint64_t jam_mask(SlotIndex, std::uint32_t,
                         std::span<const McSlotActivity> history) override {
    return (!history.empty() && history.back().senders > 0) ? 1 : 0;
  }
  bool jam_run_masks(SlotIndex begin, SlotIndex end, std::uint32_t,
                     std::span<const McSlotActivity> history,
                     McJamRunSink& sink) override {
    if (!bulk_) return false;
    ++bulk_calls_;
    const bool first = !history.empty() && history.back().senders > 0;
    sink.append(1, first ? 1 : 0);
    sink.append(end - begin - 1, 0);
    return true;
  }
  SlotCount history_window() const override { return 1; }

  bool bulk_;
  int bulk_calls_ = 0;
};

TEST(McJamRunMasksTest, BoundedWindowReactiveBulkMatchesPerSlot) {
  const SlotCount slots = 10000;
  const auto actions = sparse_actions();
  std::vector<ChannelHop> hops = {{0, 1}, {1, 0}, {1, 1}};
  const ChannelPlan plan{2, {hops.data(), hops.size()}};

  McBulkReactive bulk_adv(true);
  Rng rng_bulk = Rng::stream(47, 1);
  const McSlotwiseResult a =
      run_repetition_slotwise_mc(slots, actions, plan, bulk_adv, rng_bulk);

  McBulkReactive scalar_adv(false);
  Rng rng_scalar = Rng::stream(47, 1);
  const McSlotwiseResult b =
      run_repetition_slotwise_mc(slots, actions, plan, scalar_adv, rng_scalar);

  expect_identical_mc(a, b);
  EXPECT_EQ(rng_bulk.next_u64(), rng_scalar.next_u64());
  EXPECT_GT(bulk_adv.bulk_calls_, 0) << "fast path never exercised";
  EXPECT_EQ(scalar_adv.bulk_calls_, 0);
}

/// Answers every bulk run with a fixed two-channel mask while the per-slot
/// (event-slot) consultations audit that the engine materialized every
/// bulk-decided slot as a zero-sender record carrying that mask.
class McBulkHistoryAuditor final : public McSlotAdversary {
 public:
  static constexpr std::uint64_t kMask = 0b101;
  std::uint64_t jam_mask(SlotIndex slot, std::uint32_t,
                         std::span<const McSlotActivity> history) override {
    complete_ = complete_ && history.size() == slot;
    for (std::size_t k = 0; k < history.size(); ++k) {
      ordered_ = ordered_ && history[k].slot == k &&
                 history[k].jam_mask == kMask;
    }
    return kMask;
  }
  bool jam_run_masks(SlotIndex begin, SlotIndex end, std::uint32_t,
                     std::span<const McSlotActivity>,
                     McJamRunSink& sink) override {
    ++bulk_calls_;
    sink.append(end - begin, kMask);
    return true;
  }

  bool complete_ = true;
  bool ordered_ = true;
  int bulk_calls_ = 0;
};

TEST(McJamRunMasksTest, UnboundedHistoryMaterializedAcrossBulkRuns) {
  const SlotCount slots = 3000;
  std::vector<NodeAction> actions = {NodeAction{0.01, Payload::kMessage, 0.0}};
  std::vector<ChannelHop> hops = {{1, 2}};
  const ChannelPlan plan{4, {hops.data(), hops.size()}};
  McBulkHistoryAuditor adv;
  Rng rng = Rng::stream(53, 0);
  const McSlotwiseResult r =
      run_repetition_slotwise_mc(slots, actions, plan, adv, rng);
  EXPECT_GT(adv.bulk_calls_, 0);
  EXPECT_TRUE(adv.complete_);
  EXPECT_TRUE(adv.ordered_);
  // 0b101 clipped by valid 0xF keeps 2 channels per slot.
  EXPECT_EQ(r.jam_charges, 2 * slots);
  EXPECT_EQ(r.jammed_slots, slots);
}

TEST(McJamRunMasksTest, OverflowDeclineLeavesRandomizedStrategyUntouched) {
  // rate in (0, 1) keeps bulk masks alternating, so a long run cannot fit
  // in kMaxSegments; the strategy must decline with its rng and budget
  // exactly as they were before the attempt (witnessed by a twin that
  // never saw the bulk call).
  McUniformSplitJammer probe(Budget(10000), 0.5, Rng::stream(71, 0));
  McUniformSplitJammer witness(Budget(10000), 0.5, Rng::stream(71, 0));
  McJamRunSink sink;
  ASSERT_FALSE(probe.jam_run_masks(0, 4096, 4, {}, sink));
  EXPECT_EQ(probe.budget().spent(), witness.budget().spent());
  for (SlotIndex s = 0; s < 256; ++s) {
    ASSERT_EQ(probe.jam_mask(s, 4, {}), witness.jam_mask(s, 4, {}))
        << "slot " << s;
  }
}

// The two mc engines are draw-for-draw deterministic: same stream, same
// result, independently of everything else in the process.
TEST(McEngineTest, DeterministicAcrossRuns) {
  const SlotCount slots = 256;
  const auto actions = mixed_actions();
  std::vector<ChannelHop> hops = {{0, 1}, {1, 2}, {2, 3}, {3, 0}};
  const ChannelPlan plan{4, {hops.data(), hops.size()}};
  const auto run_once = [&]() {
    McUniformSplitJammer adv(Budget(500), 0.3, Rng::stream(37, 0));
    Rng rng = Rng::stream(41, 0);
    return run_repetition_slotwise_mc(slots, actions, plan, adv, rng);
  };
  const McSlotwiseResult a = run_once();
  const McSlotwiseResult b = run_once();
  EXPECT_EQ(a.jam_charges, b.jam_charges);
  EXPECT_EQ(a.event_count, b.event_count);
  for (std::size_t u = 0; u < actions.size(); ++u) {
    EXPECT_TRUE(obs_equal(a.rep.obs[u], b.rep.obs[u])) << "node " << u;
  }
}

}  // namespace
}  // namespace rcb
