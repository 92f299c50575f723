// Per-thread arena-backed scratch state for the channel engines.
//
// Both engines presample per-node schedules into flat arrays and sweep them;
// the arrays live for one phase and their sizes repeat almost exactly from
// phase to phase and trial to trial.  Each engine thread owns one
// EngineWorkspace whose Arena backs every such array:
//
//   * within a trial, buffers are clear()ed between phases (capacity kept);
//   * between trials, the trial driver calls engine_workspace_begin_trial(),
//     which resets the arena and detaches the buffers.  The next trial's
//     allocation sequence replays the same addresses — per-trial state never
//     touches the global heap, and two runs of one trial see identical
//     memory layout (a determinism aid when diffing executions).
//
// Missing the begin_trial() call is safe: buffers then simply retain their
// high-water capacity like ordinary vectors, growing only when a later
// phase needs more than any phase before it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "rcb/adversary/slot_adversary.hpp"
#include "rcb/common/arena.hpp"
#include "rcb/common/types.hpp"

namespace rcb {

/// Packed send/listen event key, the engines' hot schedule representation:
///
///     bits 63..30   slot
///     bits 29..24   channel
///     bit  23       is_listen
///     bits 22..0    node
///
/// Sorting packed keys as plain u64s reproduces the engines' event order
/// exactly: by slot, then by channel, senders before listeners, then by
/// node.  Single-channel phases pack channel 0 everywhere, so their sort
/// order (and hence the engines' event order) is unchanged from the
/// pre-multi-channel layout.
namespace event_key {

inline constexpr int kNodeBits = 23;
inline constexpr int kChannelBits = 6;
inline constexpr int kChannelShift = kNodeBits + 1;
inline constexpr int kSlotShift = kChannelShift + kChannelBits;
inline constexpr std::uint64_t kListenBit = std::uint64_t{1} << kNodeBits;
inline constexpr std::uint64_t kNodeMask = kListenBit - 1;
inline constexpr std::uint64_t kChannelMask =
    (std::uint64_t{1} << kChannelBits) - 1;
/// Largest node count / slot count the packing admits (engines RCB_REQUIRE
/// these; both are far beyond any simulated configuration).
inline constexpr std::uint64_t kMaxNodes = kListenBit;
inline constexpr std::uint64_t kMaxSlots = std::uint64_t{1}
                                           << (64 - kSlotShift);

inline std::uint64_t pack(SlotIndex slot, std::uint32_t channel,
                          bool is_listen, NodeId node) {
  return (slot << kSlotShift) |
         (static_cast<std::uint64_t>(channel) << kChannelShift) |
         (is_listen ? kListenBit : 0) | node;
}
inline SlotIndex slot(std::uint64_t key) { return key >> kSlotShift; }
inline std::uint32_t channel(std::uint64_t key) {
  return static_cast<std::uint32_t>((key >> kChannelShift) & kChannelMask);
}
inline bool is_listen(std::uint64_t key) { return (key & kListenBit) != 0; }
inline NodeId node(std::uint64_t key) {
  return static_cast<NodeId>(key & kNodeMask);
}

}  // namespace event_key

/// The per-thread scratch arrays; engines clear() what they use per phase.
struct EngineWorkspace {
  Arena arena;
  /// Sorted packed event keys for the current phase.
  ArenaVector<std::uint64_t> events{arena};
  /// One node's send slots (listen/send half-duplex collision filter).
  ArenaVector<SlotIndex> send_slots{arena};
  /// Materialized adversary history (slotwise engine).
  ArenaVector<McSlotActivity> mc_history{arena};
  /// Per-node effective payload for the phase, skew already applied
  /// (parallel array indexed by node).
  ArenaVector<std::uint8_t> payloads{arena};

  /// Key capacity of the radix-sort scratch (512 KiB): the largest run of
  /// keys engine_kernels::sort_event_keys sorts by LSD passes.
  static constexpr std::size_t kSortScratchKeys = std::size_t{1} << 16;
  /// That scratch, allocated on first use and kept for the thread's life.
  /// It lives outside the arena: its size is fixed, so a trial boundary has
  /// nothing to rewind, and RSS grows only by the pages a sort touches.
  std::uint64_t* sort_scratch();

  /// Resets the arena and detaches every buffer.
  void begin_trial();

 private:
  std::unique_ptr<std::uint64_t[]> sort_scratch_;
};

/// This thread's workspace (created on first use).
EngineWorkspace& engine_workspace();

/// Trial boundary hook: resets this thread's workspace so the trial's engine
/// state replays from the start of the arena.  Called by the trial drivers
/// (run_trials, run_scenario_trial); cheap enough for per-trial use.
void engine_workspace_begin_trial();

}  // namespace rcb
