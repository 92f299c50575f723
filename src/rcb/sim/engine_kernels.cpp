#include "rcb/sim/engine_kernels.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "rcb/common/simd.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define RCB_ENGINE_AVX2 1
#include <immintrin.h>
#endif

namespace rcb::engine_kernels {
namespace {

std::size_t count_keys_below_scalar(const std::uint64_t* keys,
                                    std::size_t count, std::uint64_t bound) {
  std::size_t i = 0;
  while (i < count && keys[i] < bound) ++i;
  return i;
}

void fill_mc_history_scalar(McSlotActivity* dst, SlotIndex first_slot,
                            SlotCount len, std::uint64_t jam_mask) {
  for (SlotCount k = 0; k < len; ++k) {
    dst[k] = McSlotActivity{first_slot + k, 0, jam_mask, 0};
  }
}

#ifdef RCB_ENGINE_AVX2

__attribute__((target("avx2"))) std::size_t count_keys_below_avx2(
    const std::uint64_t* keys, std::size_t count, std::uint64_t bound) {
  // AVX2 has signed 64-bit compares only; flipping the sign bit maps the
  // unsigned order onto the signed one.
  const __m256i flip = _mm256_set1_epi64x(
      static_cast<std::int64_t>(std::uint64_t{1} << 63));
  const __m256i vbound = _mm256_xor_si256(
      _mm256_set1_epi64x(static_cast<std::int64_t>(bound)), flip);
  std::size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m256i k = _mm256_xor_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + i)), flip);
    // Lane mask of keys[i..i+3] < bound; the keys are sorted, so the first
    // not-below lane ends the scan.
    const int below = _mm256_movemask_pd(
        _mm256_castsi256_pd(_mm256_cmpgt_epi64(vbound, k)));
    if (below != 0xF) {
      return i + static_cast<std::size_t>(
                     __builtin_ctz(static_cast<unsigned>(~below & 0xF)));
    }
  }
  while (i < count && keys[i] < bound) ++i;
  return i;
}

__attribute__((target("avx2"))) void fill_mc_history_avx2(
    McSlotActivity* dst, SlotIndex first_slot, SlotCount len,
    std::uint64_t jam_mask) {
  static_assert(sizeof(McSlotActivity) == 32);
  // One McSlotActivity is {u64 slot; u64 sender_channels; u64 jam_mask;
  // u32 senders; pad} — exactly one record per 256-bit store with lanes
  // [slot, 0, jam_mask, 0].
  __m256i rec = _mm256_set_epi64x(
      0, static_cast<std::int64_t>(jam_mask), 0,
      static_cast<std::int64_t>(first_slot));
  const __m256i step = _mm256_set_epi64x(0, 0, 0, 1);
  for (SlotCount k = 0; k < len; ++k) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + k), rec);
    rec = _mm256_add_epi64(rec, step);
  }
}

#endif  // RCB_ENGINE_AVX2

constexpr int kDigitBits = 11;
constexpr std::size_t kBuckets = std::size_t{1} << kDigitBits;
constexpr std::uint64_t kDigitMask = kBuckets - 1;
constexpr int kMaxDigits = (64 + kDigitBits - 1) / kDigitBits;

/// The bits in which some two of the keys differ: set in their OR and
/// clear in their AND.  No other bit can change the order.
std::uint64_t differing_bits(const std::uint64_t* keys, std::size_t count) {
  std::uint64_t any = 0;
  std::uint64_t all = ~std::uint64_t{0};
  for (std::size_t i = 0; i < count; ++i) {
    any |= keys[i];
    all &= keys[i];
  }
  return any ^ all;
}

/// LSD radix sort of count <= kSortScratchKeys keys through `tmp`.  Each
/// digit starts at the lowest differing bit the digits below it leave
/// uncovered — the fewest 11-bit windows that cover every differing bit —
/// and one read pass fills every digit's histogram.
void radix_sort_lsd(std::uint64_t* keys, std::size_t count,
                    std::uint64_t diff, std::uint64_t* tmp) {
  int shifts[kMaxDigits] = {};
  int passes = 0;
  for (std::uint64_t rest = diff; rest != 0;) {
    const int shift = std::countr_zero(rest);
    shifts[passes++] = shift;
    rest = shift + kDigitBits >= 64
               ? 0
               : rest & (~std::uint64_t{0} << (shift + kDigitBits));
  }
  // Only the rows of the passes taken are zeroed and read.
  std::uint32_t offsets[kMaxDigits][kBuckets];
  for (int p = 0; p < passes; ++p) std::fill_n(offsets[p], kBuckets, 0u);
  for (std::size_t i = 0; i < count; ++i) {
    for (int p = 0; p < passes; ++p) {
      ++offsets[p][(keys[i] >> shifts[p]) & kDigitMask];
    }
  }
  std::uint64_t* src = keys;
  std::uint64_t* dst = tmp;
  for (int p = 0; p < passes; ++p) {
    std::uint32_t* next = offsets[p];
    std::uint32_t sum = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      const std::uint32_t c = next[b];
      next[b] = sum;
      sum += c;
    }
    const int shift = shifts[p];
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint64_t k = src[i];
      dst[next[(k >> shift) & kDigitMask]++] = k;
    }
    std::swap(src, dst);
  }
  if (src != keys) std::memcpy(keys, src, count * sizeof(std::uint64_t));
}

void sort_keys(std::uint64_t* keys, std::size_t count, EngineWorkspace& ws);

/// One in-place American-flag pass on the top differing bits, then each
/// bucket (its keys now share every bit from that digit up) is sorted on
/// its own.  The digit is just wide enough (at most 11 bits) that an even
/// split leaves buckets of half the scratch, which the LSD passes then
/// take; a bucket that still exceeds the scratch is split again.  A full
/// 11-bit digit here would cut 128K keys into 64-key buckets, and the
/// in-place pass would cost more than std::sort (M1 BM_SortEventKeys).
void radix_sort_msd(std::uint64_t* keys, std::size_t count,
                    std::uint64_t diff, EngineWorkspace& ws) {
  const int bits = std::clamp(
      static_cast<int>(std::bit_width(
          (count - 1) / (EngineWorkspace::kSortScratchKeys / 2))),
      1, kDigitBits);
  const int top = 63 - std::countl_zero(diff);
  const int shift = std::max(top - (bits - 1), 0);
  const std::size_t buckets = std::size_t{1} << (top - shift + 1);
  const std::uint64_t mask = buckets - 1;
  // Only the first `buckets` entries are written and read.
  std::size_t next[kBuckets];
  std::size_t end[kBuckets];
  std::fill_n(next, buckets, std::size_t{0});
  for (std::size_t i = 0; i < count; ++i) ++next[(keys[i] >> shift) & mask];
  std::size_t sum = 0;
  for (std::size_t b = 0; b < buckets; ++b) {
    end[b] = sum + next[b];
    next[b] = sum;
    sum = end[b];
  }
  // Cycle leader: carry each misplaced key to its bucket's write cursor
  // and pick up the key it displaces, until one belongs in bucket b.
  for (std::size_t b = 0; b < buckets; ++b) {
    while (next[b] < end[b]) {
      std::uint64_t k = keys[next[b]];
      std::size_t d = (k >> shift) & mask;
      while (d != b) {
        std::swap(k, keys[next[d]++]);
        d = (k >> shift) & mask;
      }
      keys[next[b]++] = k;
    }
  }
  std::size_t begin = 0;
  for (std::size_t b = 0; b < buckets; ++b) {
    if (end[b] - begin > 1) sort_keys(keys + begin, end[b] - begin, ws);
    begin = end[b];
  }
}

void sort_keys(std::uint64_t* keys, std::size_t count, EngineWorkspace& ws) {
  if (count < kSortCrossover) {
    std::sort(keys, keys + count);
    return;
  }
  const std::uint64_t diff = differing_bits(keys, count);
  if (diff == 0) return;
  if (count <= EngineWorkspace::kSortScratchKeys) {
    radix_sort_lsd(keys, count, diff, ws.sort_scratch());
  } else {
    radix_sort_msd(keys, count, diff, ws);
  }
}

}  // namespace

void sort_event_keys(std::span<std::uint64_t> keys, EngineWorkspace& ws) {
  sort_keys(keys.data(), keys.size(), ws);
}

void presample_phase(SlotCount num_slots, std::span<const NodeAction> actions,
                     Rng& rng, EngineWorkspace& ws, FaultPlan* faults,
                     const ChannelPlan* channels) {
  const detail::SkipBlockFn skip_block = detail::skip_block_fn();
  ws.events.clear();
  // Size the event buffer from the expected activity: one event per success
  // of each node's per-slot send/listen Bernoullis.
  double expected_rate = 0.0;
  for (const NodeAction& a : actions) {
    expected_rate += a.send_prob + a.listen_prob;
  }
  ws.events.reserve(static_cast<std::size_t>(
                        expected_rate * static_cast<double>(num_slots)) +
                    16);
  for (NodeId u = 0; u < actions.size(); ++u) {
    presample_node_events(u, actions[u], num_slots, rng, ws, faults,
                          skip_block, channels);
  }
  sort_event_keys({ws.events.data(), ws.events.size()}, ws);

  ws.payloads.clear();
  ws.payloads.reserve(actions.size());
  for (NodeId u = 0; u < actions.size(); ++u) {
    Payload p = actions[u].payload;
    if (faults != nullptr && faults->node_skewed(u)) p = Payload::kNoise;
    ws.payloads.push_back(static_cast<std::uint8_t>(p));
  }
}

std::size_t count_keys_below(const std::uint64_t* keys, std::size_t count,
                             std::uint64_t bound) {
#ifdef RCB_ENGINE_AVX2
  if (count >= 8 && simd::active_mode() == simd::Mode::kAvx2) {
    return count_keys_below_avx2(keys, count, bound);
  }
#endif
  return count_keys_below_scalar(keys, count, bound);
}

void fill_mc_history_records(McSlotActivity* dst, SlotIndex first_slot,
                             SlotCount len, std::uint64_t jam_mask) {
#ifdef RCB_ENGINE_AVX2
  if (len >= 8 && simd::active_mode() == simd::Mode::kAvx2) {
    fill_mc_history_avx2(dst, first_slot, len, jam_mask);
    return;
  }
#endif
  fill_mc_history_scalar(dst, first_slot, len, jam_mask);
}

}  // namespace rcb::engine_kernels
