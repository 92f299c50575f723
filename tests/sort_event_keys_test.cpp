// Tests for engine_kernels::sort_event_keys, the radix sort of the packed
// event keys: it must produce std::sort's bytes on every size regime (the
// std::sort crossover, the LSD scratch bound, the American-flag pass above
// it and its recursion) and on every key shape the engines pack.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "rcb/rng/rng.hpp"
#include "rcb/sim/engine_kernels.hpp"
#include "rcb/sim/engine_workspace.hpp"

namespace rcb {
namespace {

constexpr std::size_t kCross = engine_kernels::kSortCrossover;
constexpr std::size_t kScratch = EngineWorkspace::kSortScratchKeys;

/// Sorts a copy with the kernel and one with std::sort and compares them,
/// naming the first differing index instead of dumping both arrays.
void expect_sorts_like_std(std::vector<std::uint64_t> keys) {
  std::vector<std::uint64_t> want = keys;
  std::sort(want.begin(), want.end());
  EngineWorkspace ws;
  engine_kernels::sort_event_keys(keys, ws);
  ASSERT_EQ(keys.size(), want.size());
  const auto mismatch = std::mismatch(keys.begin(), keys.end(), want.begin());
  EXPECT_EQ(mismatch.first, keys.end())
      << "first difference at index " << (mismatch.first - keys.begin())
      << " of " << keys.size();
}

/// `count` random keys: slots below `slots`, channels below `channels`,
/// nodes below `nodes`, either direction.  Collisions give duplicates.
std::vector<std::uint64_t> random_keys(std::size_t count, std::uint64_t seed,
                                       SlotCount slots = SlotCount{1} << 20,
                                       std::uint32_t channels = 1,
                                       NodeId nodes = 512) {
  std::mt19937_64 gen(seed);
  std::vector<std::uint64_t> keys(count);
  for (std::uint64_t& k : keys) {
    k = event_key::pack(gen() % slots,
                        static_cast<std::uint32_t>(gen() % channels),
                        (gen() & 1) != 0, static_cast<NodeId>(gen() % nodes));
  }
  return keys;
}

TEST(SortEventKeysTest, EmptyAndSingleKey) {
  expect_sorts_like_std({});
  expect_sorts_like_std({event_key::pack(7, 0, true, 3)});
}

TEST(SortEventKeysTest, AroundTheStdSortCrossover) {
  expect_sorts_like_std(random_keys(kCross - 1, 1));
  expect_sorts_like_std(random_keys(kCross, 2));
}

TEST(SortEventKeysTest, AroundTheScratchSize) {
  expect_sorts_like_std(random_keys(kScratch - 1, 3));
  expect_sorts_like_std(random_keys(kScratch, 4));
  expect_sorts_like_std(random_keys(kScratch + 1, 5));
}

TEST(SortEventKeysTest, FarAboveTheScratchSize) {
  expect_sorts_like_std(random_keys(4 * kScratch, 6));
  expect_sorts_like_std(random_keys(std::size_t{1} << 20, 7,
                                    SlotCount{1} << 24, 4, 4096));
}

TEST(SortEventKeysTest, KeysDifferingOnlyInNodeBits) {
  // One slot, one channel, one direction: only the low digit differs.
  for (const std::size_t count : {kCross, kScratch, 3 * kScratch}) {
    std::vector<std::uint64_t> keys(count);
    for (std::size_t i = 0; i < count; ++i) {
      keys[i] = event_key::pack(
          12345, 0, false,
          static_cast<NodeId>((i * 2654435761u) % event_key::kMaxNodes));
    }
    expect_sorts_like_std(keys);
  }
}

TEST(SortEventKeysTest, AllSixtyFourChannels) {
  for (const std::size_t count : {kCross + 17, 2 * kScratch + 5}) {
    std::vector<std::uint64_t> keys =
        random_keys(count, 8 + count, SlotCount{1} << 12, 64, 256);
    // Make sure channel 63 and channel 0 are both present.
    keys[0] = event_key::pack(5, 63, true, 1);
    keys[1] = event_key::pack(5, 0, false, 1);
    expect_sorts_like_std(keys);
  }
}

TEST(SortEventKeysTest, TopSlotSetsBitSixtyThree) {
  const SlotIndex top = event_key::kMaxSlots - 1;
  ASSERT_NE(event_key::pack(top, 0, false, 0) >> 63, 0u);
  for (const std::size_t count : {kCross, kScratch, 2 * kScratch}) {
    std::vector<std::uint64_t> keys = random_keys(count, 9 + count);
    for (std::size_t i = 0; i < count; i += 3) {
      keys[i] = event_key::pack(top - (i % 5), static_cast<std::uint32_t>(i % 3),
                                (i & 4) != 0, static_cast<NodeId>(i % 1000));
    }
    expect_sorts_like_std(keys);
  }
}

TEST(SortEventKeysTest, SkewedTopBucketForcesRecursion) {
  // A few keys far out in slot space fix the top digit; the dense cluster
  // near slot 0 then lands in one top-digit bucket of 3x the scratch size,
  // which has to be split again before the LSD passes can take it.
  std::vector<std::uint64_t> keys =
      random_keys(3 * kScratch, 10, SlotCount{1} << 16, 2, 4096);
  const std::vector<std::uint64_t> far =
      random_keys(kScratch / 4, 11, SlotCount{1} << 33, 2, 4096);
  keys.insert(keys.end(), far.begin(), far.end());
  std::shuffle(keys.begin(), keys.end(), std::mt19937_64(12));
  expect_sorts_like_std(keys);
}

TEST(SortEventKeysTest, Duplicates) {
  // Few distinct values, above and below the scratch size, including a
  // run of one repeated key (no differing bits at all).
  for (const std::size_t count : {kCross + 3, kScratch + 3, 3 * kScratch}) {
    std::vector<std::uint64_t> keys = random_keys(count, 13, 4, 2, 3);
    expect_sorts_like_std(keys);
    expect_sorts_like_std(
        std::vector<std::uint64_t>(count, event_key::pack(99, 1, true, 2)));
  }
}

TEST(SortEventKeysTest, AlreadySortedAndReversed) {
  std::vector<std::uint64_t> keys = random_keys(2 * kScratch + 1, 14);
  std::sort(keys.begin(), keys.end());
  expect_sorts_like_std(keys);
  std::reverse(keys.begin(), keys.end());
  expect_sorts_like_std(keys);
}

TEST(SortEventKeysTest, PresamplePhaseSortsNodeEventsLikeStdSort) {
  // BroadcastN-like phases (every node sends and listens with small
  // probabilities) on both sides of the scratch size: the phase helper's
  // keys are its node-order presample, sorted.
  const SlotCount slots = SlotCount{1} << 17;
  for (const double p : {1.0 / 2048, 1.0 / 256}) {
    std::vector<NodeAction> actions(128, NodeAction{p, Payload::kMessage, p});
    EngineWorkspace& ws = engine_workspace();
    Rng rng(21);
    engine_kernels::presample_phase(slots, actions, rng, ws, nullptr);
    const std::vector<std::uint64_t> got(ws.events.data(),
                                         ws.events.data() + ws.events.size());

    Rng rng2(21);
    const detail::SkipBlockFn skip_block = detail::skip_block_fn();
    ws.events.clear();
    for (NodeId u = 0; u < actions.size(); ++u) {
      engine_kernels::presample_node_events(u, actions[u], slots, rng2, ws,
                                            nullptr, skip_block);
    }
    std::vector<std::uint64_t> want(ws.events.data(),
                                    ws.events.data() + ws.events.size());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want) << "p=" << p;
    EXPECT_EQ(ws.payloads.size(), actions.size());
  }
}

}  // namespace
}  // namespace rcb
