// Tests for the slotwise engine in the paper's single-channel model
// (ChannelPlan{1, {}}) and reactive adversaries: jam_mask returns 0 or 1,
// strategies read `senders` and `jam_mask & 1` from the history.
#include "rcb/sim/mc_slot_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "rcb/rng/rng.hpp"
#include "rcb/sim/engine_kernels.hpp"

namespace rcb {
namespace {

const ChannelPlan kOneChannel{1, {}};

McSlotwiseResult run_event(SlotCount slots,
                           const std::vector<NodeAction>& actions,
                           McSlotAdversary& adv, Rng& rng) {
  return run_repetition_slotwise_mc(slots, actions, kOneChannel, adv, rng);
}

/// Never jams.
class PassiveAdversary final : public McSlotAdversary {
 public:
  std::uint64_t jam_mask(SlotIndex, std::uint32_t,
                         std::span<const McSlotActivity>) override {
    return 0;
  }
};

/// Jams every slot.
class AlwaysJam final : public McSlotAdversary {
 public:
  std::uint64_t jam_mask(SlotIndex, std::uint32_t,
                         std::span<const McSlotActivity>) override {
    return 1;
  }
};

/// Reactive: jams slot t iff slot t-1 carried at least one transmission.
class ReactiveAdversary final : public McSlotAdversary {
 public:
  std::uint64_t jam_mask(SlotIndex, std::uint32_t,
                         std::span<const McSlotActivity> history) override {
    return !history.empty() && history.back().senders > 0 ? 1 : 0;
  }
};

TEST(SlotEngineTest, DeliveryWithoutJamming) {
  std::vector<NodeAction> actions = {NodeAction{1.0, Payload::kMessage, 0.0},
                                     NodeAction{0.0, Payload::kNoise, 1.0}};
  PassiveAdversary adv;
  Rng rng(1);
  auto r = run_event(100, actions, adv, rng);
  EXPECT_EQ(r.rep.obs[1].messages, 100u);
  EXPECT_EQ(r.jammed_slots, 0u);
}

TEST(SlotEngineTest, FullJamBlocksEverything) {
  std::vector<NodeAction> actions = {NodeAction{1.0, Payload::kMessage, 0.0},
                                     NodeAction{0.0, Payload::kNoise, 1.0}};
  AlwaysJam adv;
  Rng rng(2);
  auto r = run_event(100, actions, adv, rng);
  EXPECT_EQ(r.rep.obs[1].messages, 0u);
  EXPECT_EQ(r.rep.obs[1].noise, 100u);
  EXPECT_EQ(r.jammed_slots, 100u);
  EXPECT_EQ(r.jam_charges, 100u);
}

TEST(SlotEngineTest, ReactiveAdversarySeesHistory) {
  // Sender transmits in every slot, so the reactive adversary jams every
  // slot except the first.
  std::vector<NodeAction> actions = {NodeAction{1.0, Payload::kMessage, 0.0},
                                     NodeAction{0.0, Payload::kNoise, 1.0}};
  ReactiveAdversary adv;
  Rng rng(3);
  auto r = run_event(50, actions, adv, rng);
  EXPECT_EQ(r.jammed_slots, 49u);
  EXPECT_EQ(r.rep.obs[1].messages, 1u);
  EXPECT_EQ(r.rep.obs[1].first_message_slot, 0u);
}

TEST(SlotEngineTest, HalfDuplexSendWins) {
  std::vector<NodeAction> actions = {NodeAction{1.0, Payload::kMessage, 1.0}};
  PassiveAdversary adv;
  Rng rng(4);
  auto r = run_event(30, actions, adv, rng);
  EXPECT_EQ(r.rep.obs[0].sends, 30u);
  EXPECT_EQ(r.rep.obs[0].listens, 0u);
}

TEST(SlotEngineTest, CollisionsAreNoise) {
  std::vector<NodeAction> actions = {NodeAction{1.0, Payload::kMessage, 0.0},
                                     NodeAction{1.0, Payload::kNack, 0.0},
                                     NodeAction{0.0, Payload::kNoise, 1.0}};
  PassiveAdversary adv;
  Rng rng(5);
  auto r = run_event(40, actions, adv, rng);
  EXPECT_EQ(r.rep.obs[2].noise, 40u);
}

TEST(SlotEngineTest, ClearSlotCountingMatchesActivity) {
  // Nobody sends: listener hears clear in every listened slot.
  std::vector<NodeAction> actions = {NodeAction{0.0, Payload::kNoise, 0.5}};
  PassiveAdversary adv;
  Rng rng(6);
  auto r = run_event(1000, actions, adv, rng);
  EXPECT_EQ(r.rep.obs[0].clear, r.rep.obs[0].listens);
  EXPECT_GT(r.rep.obs[0].listens, 400u);
  EXPECT_LT(r.rep.obs[0].listens, 600u);
}

// ---------------------------------------------------------------------------
// History contract of the event-driven engine.

/// Unbounded adversary that audits the history it is fed.
class HistoryAuditor final : public McSlotAdversary {
 public:
  std::uint64_t jam_mask(SlotIndex slot, std::uint32_t,
                         std::span<const McSlotActivity> history) override {
    // Every elapsed slot must be materialized, in order, empty slots
    // included (zero-sender records).
    complete_ = complete_ && history.size() == slot;
    for (std::size_t k = 0; k < history.size(); ++k) {
      ordered_ = ordered_ && history[k].slot == k;
      max_senders_ = std::max(max_senders_, history[k].senders);
    }
    return 0;
  }

  bool complete_ = true;
  bool ordered_ = true;
  std::uint32_t max_senders_ = 0;
};

TEST(SlotEngineHistoryTest, EmptySlotsAreMaterializedAsZeroSenderRecords) {
  // Nobody ever transmits: the adversary still sees one record per slot.
  std::vector<NodeAction> actions = {NodeAction{0.0, Payload::kNoise, 0.1}};
  HistoryAuditor adv;
  Rng rng(7);
  run_event(200, actions, adv, rng);
  EXPECT_TRUE(adv.complete_);
  EXPECT_TRUE(adv.ordered_);
  EXPECT_EQ(adv.max_senders_, 0u);
}

TEST(SlotEngineHistoryTest, SendersAppearInHistory) {
  std::vector<NodeAction> actions = {NodeAction{1.0, Payload::kMessage, 0.0}};
  HistoryAuditor adv;
  Rng rng(8);
  run_event(50, actions, adv, rng);
  EXPECT_TRUE(adv.complete_);
  EXPECT_TRUE(adv.ordered_);
  EXPECT_EQ(adv.max_senders_, 1u);
}

/// Bounded adversary auditing the suffix view the engine materializes.
class WindowAuditor final : public McSlotAdversary {
 public:
  explicit WindowAuditor(SlotCount window) : window_(window) {}

  std::uint64_t jam_mask(SlotIndex slot, std::uint32_t,
                         std::span<const McSlotActivity> history) override {
    const std::size_t expected =
        std::min<std::size_t>(slot, static_cast<std::size_t>(window_));
    ok_ = ok_ && history.size() == expected;
    // The view must be the contiguous suffix ending at slot - 1.
    for (std::size_t k = 0; k < history.size(); ++k) {
      ok_ = ok_ && history[k].slot == slot - history.size() + k;
    }
    return 0;
  }
  SlotCount history_window() const override { return window_; }

  bool ok_ = true;

 private:
  SlotCount window_;
};

TEST(SlotEngineHistoryTest, BoundedWindowSeesExactSuffix) {
  std::vector<NodeAction> actions = {NodeAction{0.3, Payload::kMessage, 0.3}};
  for (SlotCount window : {SlotCount{1}, SlotCount{3}, SlotCount{64},
                           SlotCount{1000}, SlotCount{5000}}) {
    WindowAuditor adv(window);
    Rng rng(9);
    run_event(1000, actions, adv, rng);
    EXPECT_TRUE(adv.ok_) << "window=" << window;
  }
}

TEST(SlotEngineHistoryTest, ZeroWindowAlwaysSeesEmptyHistory) {
  WindowAuditor adv(0);
  std::vector<NodeAction> actions = {NodeAction{0.5, Payload::kMessage, 0.5}};
  Rng rng(10);
  run_event(300, actions, adv, rng);
  EXPECT_TRUE(adv.ok_);
}

// ---------------------------------------------------------------------------
// Event accounting and agreement with the dense reference.

TEST(SlotEngineEventTest, EventCountMatchesChargedEnergy) {
  std::vector<NodeAction> actions = {NodeAction{0.4, Payload::kMessage, 0.4},
                                     NodeAction{0.0, Payload::kNoise, 0.7}};
  PassiveAdversary adv;
  Rng rng(11);
  const auto r = run_event(500, actions, adv, rng);
  Cost charged = 0;
  for (const auto& o : r.rep.obs) charged += o.sends + o.listens;
  EXPECT_EQ(r.event_count, charged);
  EXPECT_GT(r.event_count, 0u);
}

TEST(SlotEngineEventTest, MatchesDenseReferenceOnDeterministicActions) {
  // With action probabilities 0/1 both paths are randomness-free, so the
  // event-driven engine must reproduce the dense reference exactly — here
  // with a history-consuming adversary.
  std::vector<NodeAction> actions = {NodeAction{1.0, Payload::kMessage, 0.0},
                                     NodeAction{0.0, Payload::kNoise, 1.0},
                                     NodeAction{1.0, Payload::kNoise, 1.0}};
  ReactiveAdversary adv_event, adv_dense;
  Rng rng_event(12), rng_dense(12);
  const auto a = run_event(80, actions, adv_event, rng_event);
  const auto b = run_repetition_slotwise_mc_dense(80, actions, kOneChannel,
                                                  adv_dense, rng_dense);
  EXPECT_EQ(a.jammed_slots, b.jammed_slots);
  EXPECT_EQ(a.event_count, b.event_count);
  for (std::size_t u = 0; u < actions.size(); ++u) {
    EXPECT_EQ(a.rep.obs[u].sends, b.rep.obs[u].sends) << "node " << u;
    EXPECT_EQ(a.rep.obs[u].listens, b.rep.obs[u].listens) << "node " << u;
    EXPECT_EQ(a.rep.obs[u].messages, b.rep.obs[u].messages) << "node " << u;
    EXPECT_EQ(a.rep.obs[u].noise, b.rep.obs[u].noise) << "node " << u;
    EXPECT_EQ(a.rep.obs[u].clear, b.rep.obs[u].clear) << "node " << u;
    EXPECT_EQ(a.rep.obs[u].first_message_slot, b.rep.obs[u].first_message_slot)
        << "node " << u;
  }
}

TEST(SlotEngineEventTest, ZeroSlotsIsANoOp) {
  std::vector<NodeAction> actions = {NodeAction{1.0, Payload::kMessage, 0.0}};
  PassiveAdversary adv;
  Rng rng(13);
  const auto r = run_event(0, actions, adv, rng);
  EXPECT_EQ(r.event_count, 0u);
  EXPECT_EQ(r.jammed_slots, 0u);
  EXPECT_EQ(r.rep.obs[0].sends, 0u);
}

// ---------------------------------------------------------------------------
// Bounded-window compaction helper of the event engine.

TEST(PushHistoryCompactedTest, PinsTwoXWatermarkErasePolicy) {
  Arena arena;
  ArenaVector<McSlotActivity> hist{arena};
  const SlotCount window = 4;

  // Unbounded: every record is retained.
  for (SlotIndex s = 0; s < 20; ++s) {
    engine_kernels::push_history_compacted(hist, McSlotActivity{s, 0, 0, 0},
                                           window, false);
  }
  EXPECT_EQ(hist.size(), 20u);
  hist.clear();

  // Bounded: the buffer grows to 2 * window - 1, and the push that reaches
  // the 2 * window watermark compacts it down to the trailing `window`
  // records — never fewer, never more.
  for (SlotIndex s = 0; s < 2 * window - 1; ++s) {
    engine_kernels::push_history_compacted(
        hist, McSlotActivity{s, 0, s & 1, 0}, window, true);
    EXPECT_EQ(hist.size(), static_cast<std::size_t>(s + 1));
  }
  engine_kernels::push_history_compacted(
      hist, McSlotActivity{2 * window - 1, 0, 1, 0}, window, true);
  ASSERT_EQ(hist.size(), static_cast<std::size_t>(window));
  for (std::size_t k = 0; k < hist.size(); ++k) {
    EXPECT_EQ(hist.data()[k].slot, window + k);  // trailing [4, 8)
    EXPECT_EQ(hist.data()[k].jam_mask, (window + k) & 1);
  }
}

// ---------------------------------------------------------------------------
// Bulk consultation (jam_run_masks) contract.

TEST(JamRunSinkTest, MergesAdjacentSameFlagSegments) {
  McJamRunSink sink;
  EXPECT_TRUE(sink.append(3, 1));
  EXPECT_TRUE(sink.append(2, 1));
  EXPECT_TRUE(sink.append(1, 0));
  ASSERT_EQ(sink.segments().size(), 2u);
  EXPECT_EQ(sink.segments()[0].length, 5u);
  EXPECT_EQ(sink.segments()[0].decision, 1u);
  EXPECT_EQ(sink.segments()[1].length, 1u);
  EXPECT_EQ(sink.segments()[1].decision, 0u);
  EXPECT_EQ(sink.total(), 6u);
}

TEST(JamRunSinkTest, ZeroLengthAppendIsANoOp) {
  McJamRunSink sink;
  EXPECT_TRUE(sink.append(0, 1));
  EXPECT_EQ(sink.segments().size(), 0u);
  EXPECT_EQ(sink.total(), 0u);
}

TEST(JamRunSinkTest, CapacityOverflowLeavesSinkUnchanged) {
  McJamRunSink sink;
  for (std::size_t i = 0; i < McJamRunSink::kMaxSegments; ++i) {
    ASSERT_TRUE(sink.append(1, i % 2));
  }
  const SlotCount total = sink.total();
  // A 65th alternation must fail without growing the sink; a same-mask
  // append still merges into the last segment.
  EXPECT_FALSE(sink.append(1, McJamRunSink::kMaxSegments % 2));
  EXPECT_EQ(sink.total(), total);
  EXPECT_EQ(sink.segments().size(), McJamRunSink::kMaxSegments);
  EXPECT_TRUE(sink.append(4, (McJamRunSink::kMaxSegments - 1) % 2));
  EXPECT_EQ(sink.total(), total + 4);
  sink.reset();
  EXPECT_EQ(sink.segments().size(), 0u);
  EXPECT_EQ(sink.total(), 0u);
}

/// Jams slot s iff s % 3 == 0 — history-oblivious, so a bulk answer is a
/// pure function of [begin, end).  `bulk` selects whether jam_run_masks
/// answers.
class PeriodicJammer final : public McSlotAdversary {
 public:
  explicit PeriodicJammer(bool bulk) : bulk_(bulk) {}
  std::uint64_t jam_mask(SlotIndex slot, std::uint32_t,
                         std::span<const McSlotActivity>) override {
    return slot % 3 == 0 ? 1 : 0;
  }
  bool jam_run_masks(SlotIndex begin, SlotIndex end, std::uint32_t,
                     std::span<const McSlotActivity>,
                     McJamRunSink& sink) override {
    if (!bulk_) return false;
    ++bulk_calls_;
    for (SlotIndex s = begin; s < end; ++s) {
      // Decline on overflow.
      if (!sink.append(1, s % 3 == 0 ? 1 : 0)) return false;
    }
    return true;
  }
  SlotCount history_window() const override { return 0; }

  bool bulk_;
  int bulk_calls_ = 0;
};

/// Jams iff the previous slot carried a transmission (1-slot lookback),
/// optionally answering jam_run_masks with the run-aware closed form.
class BulkReactive final : public McSlotAdversary {
 public:
  explicit BulkReactive(bool bulk) : bulk_(bulk) {}
  std::uint64_t jam_mask(SlotIndex, std::uint32_t,
                         std::span<const McSlotActivity> history) override {
    return !history.empty() && history.back().senders > 0 ? 1 : 0;
  }
  bool jam_run_masks(SlotIndex begin, SlotIndex end, std::uint32_t,
                     std::span<const McSlotActivity> history,
                     McJamRunSink& sink) override {
    if (!bulk_) return false;
    ++bulk_calls_;
    // Only the first run slot can see a transmission in its lookback.
    const bool first = !history.empty() && history.back().senders > 0;
    sink.append(1, first ? 1 : 0);
    sink.append(end - begin - 1, 0);
    return true;
  }
  SlotCount history_window() const override { return 1; }

  bool bulk_;
  int bulk_calls_ = 0;
};

void expect_identical_runs(const McSlotwiseResult& a,
                           const McSlotwiseResult& b) {
  EXPECT_EQ(a.jammed_slots, b.jammed_slots);
  EXPECT_EQ(a.jam_charges, b.jam_charges);
  EXPECT_EQ(a.event_count, b.event_count);
  ASSERT_EQ(a.rep.obs.size(), b.rep.obs.size());
  for (std::size_t u = 0; u < a.rep.obs.size(); ++u) {
    const NodeObservation& x = a.rep.obs[u];
    const NodeObservation& y = b.rep.obs[u];
    EXPECT_EQ(x.sends, y.sends) << "node " << u;
    EXPECT_EQ(x.listens, y.listens) << "node " << u;
    EXPECT_EQ(x.messages, y.messages) << "node " << u;
    EXPECT_EQ(x.nacks, y.nacks) << "node " << u;
    EXPECT_EQ(x.noise, y.noise) << "node " << u;
    EXPECT_EQ(x.clear, y.clear) << "node " << u;
    EXPECT_EQ(x.first_message_slot, y.first_message_slot) << "node " << u;
  }
}

TEST(SlotEngineJamRunTest, BulkAnswerMatchesPerSlotPathExactly) {
  // Same strategy with and without the bulk fast path: every observable
  // (per-node counters, jam count, event count, final RNG position) must
  // coincide — jam_run_masks is a pure optimization.
  std::vector<NodeAction> actions = {NodeAction{0.01, Payload::kMessage, 0.0},
                                     NodeAction{0.0, Payload::kNoise, 0.01}};
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    PeriodicJammer bulk(true), scalar(false);
    Rng rng_bulk(seed), rng_scalar(seed);
    const auto a = run_event(2000, actions, bulk, rng_bulk);
    const auto b = run_event(2000, actions, scalar, rng_scalar);
    expect_identical_runs(a, b);
    EXPECT_EQ(rng_bulk.next_u64(), rng_scalar.next_u64()) << "seed " << seed;
    EXPECT_GT(bulk.bulk_calls_, 0) << "fast path never exercised";
  }
}

TEST(SlotEngineJamRunTest, ReactiveBulkAnswerMatchesPerSlotPath) {
  std::vector<NodeAction> actions = {NodeAction{0.005, Payload::kMessage, 0.0},
                                     NodeAction{0.0, Payload::kNoise, 0.005}};
  for (std::uint64_t seed = 20; seed <= 30; ++seed) {
    BulkReactive bulk(true), scalar(false);
    Rng rng_bulk(seed), rng_scalar(seed);
    const auto a = run_event(5000, actions, bulk, rng_bulk);
    const auto b = run_event(5000, actions, scalar, rng_scalar);
    expect_identical_runs(a, b);
    EXPECT_EQ(rng_bulk.next_u64(), rng_scalar.next_u64()) << "seed " << seed;
    EXPECT_GT(bulk.bulk_calls_, 0) << "fast path never exercised";
    EXPECT_EQ(scalar.bulk_calls_, 0);
  }
}

TEST(SlotEngineJamRunTest, DecliningAdversaryStillRunsCorrectly) {
  // PeriodicJammer's per-slot appends overflow the sink on runs longer than
  // ~2 * kMaxSegments slots, forcing the mid-call decline path; with p this
  // sparse both accepted and declined runs occur in one phase.
  std::vector<NodeAction> actions = {NodeAction{0.002, Payload::kMessage, 0.0}};
  PeriodicJammer bulk(true), scalar(false);
  Rng rng_bulk(7), rng_scalar(7);
  const auto a = run_event(20000, actions, bulk, rng_bulk);
  const auto b = run_event(20000, actions, scalar, rng_scalar);
  expect_identical_runs(a, b);
  // slots 0, 3, 6, ... jammed regardless of which path decided them.
  EXPECT_EQ(a.jammed_slots, (20000 + 2) / 3);
}

/// Answers jam_run_masks (never jams) while the per-slot jam_mask() audits
/// that the engine materialized every bulk-decided slot into the history.
class BulkHistoryAuditor final : public McSlotAdversary {
 public:
  std::uint64_t jam_mask(SlotIndex slot, std::uint32_t,
                         std::span<const McSlotActivity> history) override {
    complete_ = complete_ && history.size() == slot;
    for (std::size_t k = 0; k < history.size(); ++k) {
      ordered_ = ordered_ && history[k].slot == k && history[k].jam_mask == 0;
    }
    return 0;
  }
  bool jam_run_masks(SlotIndex begin, SlotIndex end, std::uint32_t,
                     std::span<const McSlotActivity>,
                     McJamRunSink& sink) override {
    ++bulk_calls_;
    sink.append(end - begin, 0);
    return true;
  }

  bool complete_ = true;
  bool ordered_ = true;
  int bulk_calls_ = 0;
};

TEST(SlotEngineJamRunTest, UnboundedHistoryIsMaterializedAcrossBulkRuns) {
  std::vector<NodeAction> actions = {NodeAction{0.01, Payload::kMessage, 0.0}};
  BulkHistoryAuditor adv;
  Rng rng(14);
  run_event(3000, actions, adv, rng);
  EXPECT_GT(adv.bulk_calls_, 0);
  EXPECT_TRUE(adv.complete_);
  EXPECT_TRUE(adv.ordered_);
}

}  // namespace
}  // namespace rcb
