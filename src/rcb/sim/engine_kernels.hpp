// Hot inner kernels shared by the channel engines, with AVX2 variants.
//
// Every SIMD kernel here is dispatched on simd::active_mode() and the AVX2
// variants are bit-identical to the scalar ones (they produce the same
// bytes; the simulation's RNG stream is untouched).  The presample helpers
// tie the geometric-skip block sampler to the packed event-key layout of
// EngineWorkspace and sort the keys, so both engines share one
// schedule-generation path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "rcb/adversary/slot_adversary.hpp"
#include "rcb/common/types.hpp"
#include "rcb/rng/sampling.hpp"
#include "rcb/sim/cca.hpp"
#include "rcb/sim/channel_plan.hpp"
#include "rcb/sim/engine_workspace.hpp"
#include "rcb/sim/faults.hpp"
#include "rcb/sim/repetition_engine.hpp"

namespace rcb::engine_kernels {

/// Number of leading keys (sorted ascending) strictly below `bound` —
/// event-group and sender/listener boundary resolution over packed keys.
std::size_t count_keys_below(const std::uint64_t* keys, std::size_t count,
                             std::uint64_t bound);

/// Below this many keys sort_event_keys is std::sort: the radix passes'
/// fixed cost of 2048 buckets per pass does not pay off.  Measured on
/// presampled BroadcastN and duel phases, std::sort and the LSD passes
/// break even between 1.5K and 2K keys.
inline constexpr std::size_t kSortCrossover = 2048;

/// Sorts packed event keys ascending, in O(count * passes) time with at most
/// EngineWorkspace::kSortScratchKeys keys of extra memory (ws.sort_scratch()).
/// Below the crossover it is std::sort; up to the scratch size, LSD radix
/// passes over 11-bit digits, one per window of the bits in which the keys
/// differ; above it, one in-place American-flag pass on the top differing
/// bits, then each bucket is sorted the same way.  Allocates nothing after
/// the scratch's first use.  Equal keys are equal bytes, so the result is
/// byte-identical to std::sort's whatever the input order.
void sort_event_keys(std::span<std::uint64_t> keys, EngineWorkspace& ws);

/// Writes `len` zero-sender history records with consecutive slots
/// [first_slot, first_slot + len) and one jam mask into `dst`.
void fill_mc_history_records(McSlotActivity* dst, SlotIndex first_slot,
                             SlotCount len, std::uint64_t jam_mask);

/// Bounded-window history compaction of the slotwise event engine:
/// append one record, and once the buffer holds twice the window, drop
/// everything but the trailing `window` records.  The 2x watermark keeps
/// the erase_prefix memmove amortized O(1) per push while history_view()
/// can always serve the trailing `window` records.
template <typename Record>
inline void push_history_compacted(ArenaVector<Record>& history,
                                   const Record& rec, SlotCount window,
                                   bool bounded) {
  history.push_back(rec);
  if (bounded && history.size() >= 2 * static_cast<std::size_t>(window)) {
    history.erase_prefix(history.size() - static_cast<std::size_t>(window));
  }
}

/// Delivers one slot's reception to a listener `u` on one channel, the
/// reception rules every engine shares.  The ideal reception follows from
/// the channel's sender count, its single sender's payload and the jam bit:
/// jammed or >= 2 senders => noise, no sender => clear, else the payload.
/// Then, in order: imperfect CCA, payload loss for a clock-skewed listener
/// (it samples off the slot grid, so it detects energy but decodes
/// nothing), and the fault plan's per-reception degradation.  The result is
/// tallied into `o`; the caller has already charged the listen.
inline void hear(NodeObservation& o, NodeId u, SlotIndex slot,
                 std::uint32_t sender_count, Payload single_payload,
                 bool jammed, const CcaModel& cca, FaultPlan* faults,
                 Rng& rng) {
  Reception heard;
  if (jammed || sender_count > 1) {
    heard = Reception::kNoise;
  } else if (sender_count == 0) {
    heard = Reception::kClear;
  } else {
    switch (single_payload) {
      case Payload::kMessage:
        heard = Reception::kMessage;
        break;
      case Payload::kNack:
        heard = Reception::kNack;
        break;
      default:
        heard = Reception::kNoise;
        break;
    }
  }
  if (!cca.perfect()) heard = cca.apply(heard, rng);
  if (faults != nullptr) {
    if (faults->node_skewed(u) &&
        (heard == Reception::kMessage || heard == Reception::kNack)) {
      heard = Reception::kNoise;
    }
    heard = faults->degrade(heard, slot, rng);
  }
  switch (heard) {
    case Reception::kClear:
      ++o.clear;
      break;
    case Reception::kMessage:
      ++o.messages;
      if (o.first_message_slot == kNoSlot) {
        o.first_message_slot = slot;
        o.listens_until_first_message = o.listens;
      }
      break;
    case Reception::kNack:
      ++o.nacks;
      break;
    case Reception::kNoise:
      ++o.noise;
      break;
  }
}

/// Presamples one node's send/listen events into ws.events as packed keys.
/// Listens colliding with the node's own sends are dropped (half-duplex);
/// a crashed node's events are dropped after sampling, so the Rng stream is
/// consumed identically with and without an active FaultPlan.  Draw-for-draw
/// identical to the pre-SoA per-node generators in both engines.
/// `channels` (optional) stamps each event with the node's hop-sequence
/// channel; null packs channel 0 everywhere — whether a slot is an event
/// slot is independent of the channel choice, so the Rng stream is also
/// identical with and without a channel plan.
inline void presample_node_events(NodeId u, const NodeAction& action,
                                  SlotCount num_slots, Rng& rng,
                                  EngineWorkspace& ws, FaultPlan* faults,
                                  detail::SkipBlockFn skip_block,
                                  const ChannelPlan* channels = nullptr) {
  auto& send_slots = ws.send_slots;
  send_slots.clear();
  for_each_bernoulli_slot(num_slots, action.send_prob, rng, skip_block,
                          [&](SlotIndex s) { send_slots.push_back(s); });
  for (SlotIndex s : send_slots) {
    if (faults != nullptr && faults->node_down(u, s)) continue;
    const std::uint32_t ch =
        channels != nullptr ? channels->channel_of(u, s) : 0;
    ws.events.push_back(event_key::pack(s, ch, false, u));
  }

  std::size_t si = 0;  // cursor into send_slots
  for_each_bernoulli_slot(
      num_slots, action.listen_prob, rng, skip_block, [&](SlotIndex s) {
        while (si < send_slots.size() && send_slots[si] < s) ++si;
        if (si < send_slots.size() && send_slots[si] == s) {
          return;  // busy sending
        }
        if (faults != nullptr && faults->node_down(u, s)) return;
        const std::uint32_t ch =
            channels != nullptr ? channels->channel_of(u, s) : 0;
        ws.events.push_back(event_key::pack(s, ch, true, u));
      });
}

/// Presamples one phase for the event engines: every node's events into
/// ws.events (presample_node_events for each node in order, which fixes
/// the Rng stream), sorted by sort_event_keys, and each node's
/// effective payload into ws.payloads, with sender-side clock skew applied
/// (skew is fixed per phase, so this flat array replaces a FaultPlan query
/// per sender event).
void presample_phase(SlotCount num_slots, std::span<const NodeAction> actions,
                     Rng& rng, EngineWorkspace& ws, FaultPlan* faults,
                     const ChannelPlan* channels = nullptr);

}  // namespace rcb::engine_kernels
