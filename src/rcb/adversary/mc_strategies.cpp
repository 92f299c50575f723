#include "rcb/adversary/mc_strategies.hpp"

#include <utility>

#include "rcb/common/contracts.hpp"

namespace rcb {

std::uint64_t McNoJam::jam_mask(SlotIndex, std::uint32_t,
                                std::span<const McSlotActivity>) {
  return 0;
}

bool McNoJam::jam_run_masks(SlotIndex begin, SlotIndex end, std::uint32_t,
                            std::span<const McSlotActivity>,
                            McJamRunSink& sink) {
  sink.append(end - begin, 0);
  return true;
}

McUniformSplitJammer::McUniformSplitJammer(Budget budget, double rate, Rng rng)
    : budget_(budget), rate_(rate), rng_(rng) {
  RCB_REQUIRE(rate >= 0.0 && rate <= 1.0);
}

std::uint64_t McUniformSplitJammer::jam_mask(
    SlotIndex, std::uint32_t num_channels,
    std::span<const McSlotActivity>) {
  // One Bernoulli per channel per slot, budget exhaustion or not, so the
  // decision stream does not depend on when the budget ran dry.
  std::uint64_t mask = 0;
  for (std::uint32_t c = 0; c < num_channels; ++c) {
    if (rng_.bernoulli(rate_) && budget_.take(1) == 1) {
      mask |= std::uint64_t{1} << c;
    }
  }
  return mask;
}

bool McUniformSplitJammer::jam_run_masks(SlotIndex begin, SlotIndex end,
                                         std::uint32_t num_channels,
                                         std::span<const McSlotActivity>,
                                         McJamRunSink& sink) {
  const SlotCount len = end - begin;
  // rate <= 0: bernoulli(p <= 0) consumes no draws and takes no budget —
  // the whole run is one clear segment with no state change.
  if (rate_ <= 0.0) {
    sink.append(len, 0);
    return true;
  }
  // General case: replay the per-slot draws verbatim.  Rng and Budget are
  // small value types, so snapshotting them lets an RLE overflow decline
  // without a trace.
  const Rng rng_snapshot = rng_;
  const Budget budget_snapshot = budget_;
  for (SlotCount k = 0; k < len; ++k) {
    std::uint64_t mask = 0;
    for (std::uint32_t c = 0; c < num_channels; ++c) {
      if (rng_.bernoulli(rate_) && budget_.take(1) == 1) {
        mask |= std::uint64_t{1} << c;
      }
    }
    if (!sink.append(1, mask)) {
      rng_ = rng_snapshot;
      budget_ = budget_snapshot;
      return false;
    }
  }
  return true;
}

McFocusJammer::McFocusJammer(Budget budget, double rate, std::uint32_t target,
                             Rng rng)
    : budget_(budget), rate_(rate), target_(target), rng_(rng) {
  RCB_REQUIRE(rate >= 0.0 && rate <= 1.0);
}

std::uint64_t McFocusJammer::jam_mask(SlotIndex, std::uint32_t num_channels,
                                      std::span<const McSlotActivity>) {
  const double p = rate_ * static_cast<double>(num_channels);
  if (!rng_.bernoulli(p < 1.0 ? p : 1.0)) return 0;
  if (budget_.take(1) != 1) return 0;
  return std::uint64_t{1} << (target_ % num_channels);
}

bool McFocusJammer::jam_run_masks(SlotIndex begin, SlotIndex end,
                                  std::uint32_t num_channels,
                                  std::span<const McSlotActivity>,
                                  McJamRunSink& sink) {
  const SlotCount len = end - begin;
  const double p_raw = rate_ * static_cast<double>(num_channels);
  const double p = p_raw < 1.0 ? p_raw : 1.0;
  // bernoulli(p <= 0) consumes no draws and the take() is short-circuited
  // away: the run is one clear segment, state untouched.
  if (p <= 0.0) {
    sink.append(len, 0);
    return true;
  }
  const std::uint64_t bit = std::uint64_t{1} << (target_ % num_channels);
  if (p >= 1.0) {
    // bernoulli(p >= 1) consumes no draws either: the run jams the target
    // until the budget dries, then stays clear — at most two segments, and
    // take(len) is the same spend as len take(1) calls.
    const SlotCount jammed = budget_.take(len);
    sink.append(jammed, bit);
    sink.append(len - jammed, 0);
    return true;
  }
  const Rng rng_snapshot = rng_;
  const Budget budget_snapshot = budget_;
  for (SlotCount k = 0; k < len; ++k) {
    std::uint64_t mask = 0;
    if (rng_.bernoulli(p) && budget_.take(1) == 1) mask = bit;
    if (!sink.append(1, mask)) {
      rng_ = rng_snapshot;
      budget_ = budget_snapshot;
      return false;
    }
  }
  return true;
}

McSweepJammer::McSweepJammer(Budget budget, SlotCount dwell)
    : budget_(budget), dwell_(dwell) {
  RCB_REQUIRE(dwell >= 1);
}

std::uint64_t McSweepJammer::jam_mask(SlotIndex slot,
                                      std::uint32_t num_channels,
                                      std::span<const McSlotActivity>) {
  if (budget_.take(1) != 1) return 0;
  const std::uint64_t ch = (slot / dwell_) % num_channels;
  return std::uint64_t{1} << ch;
}

bool McSweepJammer::jam_run_masks(SlotIndex begin, SlotIndex end,
                                  std::uint32_t num_channels,
                                  std::span<const McSlotActivity>,
                                  McJamRunSink& sink) {
  // Deterministic: walk the run dwell segment by dwell segment, granting
  // each its budget slice up front — take(k) is the same spend as k take(1)
  // calls, and once the budget dries the rest of the run is clear.
  const Budget budget_snapshot = budget_;
  SlotIndex s = begin;
  while (s < end) {
    const SlotIndex dwell_end = (s / dwell_ + 1) * dwell_;
    const SlotIndex seg_end = dwell_end < end ? dwell_end : end;
    const SlotCount want = seg_end - s;
    const SlotCount got = budget_.take(want);
    const std::uint64_t bit = std::uint64_t{1}
                              << ((s / dwell_) % num_channels);
    if (!sink.append(got, bit) || !sink.append(want - got, 0)) {
      budget_ = budget_snapshot;
      return false;
    }
    if (got < want && seg_end < end) {
      // Budget exhausted mid-run: every remaining slot is clear (and merges
      // into the zero segment just appended).
      sink.append(end - seg_end, 0);
      return true;
    }
    s = seg_end;
  }
  return true;
}

McScheduleAdversary::McScheduleAdversary(std::vector<JamSchedule> per_channel)
    : per_channel_(std::move(per_channel)) {
  RCB_REQUIRE(per_channel_.size() <= kMaxChannels);
}

std::uint64_t McScheduleAdversary::jam_mask(
    SlotIndex slot, std::uint32_t num_channels,
    std::span<const McSlotActivity>) {
  std::uint64_t mask = 0;
  const std::uint32_t n =
      num_channels < per_channel_.size()
          ? num_channels
          : static_cast<std::uint32_t>(per_channel_.size());
  for (std::uint32_t c = 0; c < n; ++c) {
    if (per_channel_[c].is_jammed(slot)) mask |= std::uint64_t{1} << c;
  }
  return mask;
}

bool McScheduleAdversary::jam_run_masks(SlotIndex begin, SlotIndex end,
                                        std::uint32_t num_channels,
                                        std::span<const McSlotActivity>,
                                        McJamRunSink& sink) {
  // Stateless: recompute each slot's mask and lean on the sink's RLE merge
  // (schedules are interval-shaped, so runs compress well).  An overflow
  // simply declines — there is nothing to roll back.
  const std::uint32_t n =
      num_channels < per_channel_.size()
          ? num_channels
          : static_cast<std::uint32_t>(per_channel_.size());
  for (SlotIndex s = begin; s < end; ++s) {
    std::uint64_t mask = 0;
    for (std::uint32_t c = 0; c < n; ++c) {
      if (per_channel_[c].is_jammed(s)) mask |= std::uint64_t{1} << c;
    }
    if (!sink.append(1, mask)) return false;
  }
  return true;
}

}  // namespace rcb
