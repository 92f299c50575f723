#include "rcb/sim/engine_kernels.hpp"

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

}  // namespace

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
