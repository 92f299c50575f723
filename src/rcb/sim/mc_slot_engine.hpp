// Slotwise engines: a genuinely adaptive (reactive) adversary consulted
// before every slot, over C parallel channels.
//
// The batch engine in repetition_engine.hpp restricts adversaries to the
// Lemma-1 canonical form (commit to a schedule before the phase, given only
// public history).  These engines instead consult a McSlotAdversary
// (adversary/slot_adversary.hpp) before every slot, feeding it what it
// could actually observe: which channels of the previous slots carried
// transmissions and what it jammed.  The paper's single-channel model is
// num_channels == 1 (ChannelPlan{1, {}}); bench E10 runs it there.
//
// Model.  Each slot, every node occupies exactly one channel, given by its
// deterministic hop sequence (sim/channel_plan.hpp); sends and listens land
// on that channel only.  Reception on channel c of a slot follows the
// single-channel rules applied to c alone: jammed (bit c of the adversary's
// mask) => noise; two or more senders => collision noise; exactly one
// sender => its payload; none => clear.  The adversary is consulted once
// per slot, in order, and returns a 64-bit jam mask; each jammed
// (slot, channel) pair is charged one budget unit, so concentrating on one
// channel costs 1 per slot while flooding all C channels costs C — the
// Chen–Zheng budget-split accounting.
//
// Node behaviour is i.i.d. per slot and — crucially — independent of
// jamming (jamming affects what listeners *hear*, never whether nodes act).
// The event engine therefore presamples each node's send/listen slots with
// the batch engine's geometric skip sampling, sweeps the sorted keys in
// order, and touches nodes only on their event slots.  Over maximal
// eventless runs it offers the adversary the bulk
// McSlotAdversary::jam_run_masks consultation (RLE mask segments);
// declining falls back to per-slot jam_mask calls, bit-identically.  Cost:
// O(num_slots + events) instead of the dense O(num_slots * num_nodes) —
// one cheap virtual call per slot (or per eventless run) plus work
// proportional to the energy actually spent, the quantity the paper's cost
// model charges for.
//
// run_repetition_slotwise_mc_dense keeps the per-node-per-slot loop as a
// semantic reference: tests cross-check the event path against it and
// bench M2 measures the gap.  The two implementations share per-slot
// marginals but consume the Rng stream in different orders; on
// randomness-free action profiles (all probabilities 0 or 1, perfect CCA,
// no faults) they are exactly equal, which is what the crosscheck oracle
// pins.  At C=1 both reproduce, digest for digest, the single-channel
// slotwise engines they replaced (tests/mc_degeneration_test.cpp pins the
// literals).
#pragma once

#include <span>

#include "rcb/adversary/slot_adversary.hpp"
#include "rcb/common/types.hpp"
#include "rcb/rng/rng.hpp"
#include "rcb/sim/channel_plan.hpp"
#include "rcb/sim/repetition_engine.hpp"

namespace rcb {

/// Result of a slotwise phase: node observations plus the adversary's spend.
struct McSlotwiseResult {
  RepetitionResult rep;
  /// Total jammed (slot, channel) pairs — the adversary's budget spend for
  /// the phase under the per-channel accounting.
  Cost jam_charges = 0;
  /// Slots with at least one jammed channel.
  SlotCount jammed_slots = 0;
  /// Send + listen events the sweep actually touched (bench observability).
  std::uint64_t event_count = 0;
};

/// Runs one phase slot by slot, event-driven (the production path).  `cca`
/// and `faults` mirror the batch engine's parameters so the engines stay
/// cross-checkable under imperfect CCA and an active fault plan.
McSlotwiseResult run_repetition_slotwise_mc(
    SlotCount num_slots, std::span<const NodeAction> actions,
    const ChannelPlan& channels, McSlotAdversary& adversary, Rng& rng,
    const CcaModel& cca = CcaModel{}, FaultPlan* faults = nullptr);

/// Reference implementation: dense O(num_slots * num_nodes) loop, the
/// semantic oracle the crosscheck tests pin the event path against.
McSlotwiseResult run_repetition_slotwise_mc_dense(
    SlotCount num_slots, std::span<const NodeAction> actions,
    const ChannelPlan& channels, McSlotAdversary& adversary, Rng& rng,
    const CcaModel& cca = CcaModel{}, FaultPlan* faults = nullptr);

}  // namespace rcb
