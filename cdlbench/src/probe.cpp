// Host probe: a fixed vector multiply-add loop over an L1-resident tile. Its
// time tracks the host's speed: in the slow phases of a shared host, vector
// throughput drops by the same factor as the program's kernels, while a
// scalar dependency chain slows far less.
#include <chrono>
#include <cstdint>

#include "harness.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace cdlbench {

namespace {

constexpr int kTile = 4096;    // floats: 16 KiB, stays in L1
constexpr int kPasses = 800;
constexpr int kChains = 8;     // independent accumulators per vector lane group

alignas(64) float g_tile[kTile];
volatile float g_sink = 0.0F;

void fill_tile() {
  for (int i = 0; i < kTile; ++i) g_tile[i] = static_cast<float>(i % 97) * 1e-3F;
}

#if defined(__x86_64__)
__attribute__((target("avx2,fma"))) float loop_avx2() {
  __m256 acc[kChains];
  for (__m256& a : acc) a = _mm256_setzero_ps();
  const __m256 w = _mm256_set1_ps(0.999F);
  for (int p = 0; p < kPasses; ++p) {
    for (int i = 0; i < kTile; i += 8 * kChains) {
      for (int k = 0; k < kChains; ++k) {
        acc[k] = _mm256_fmadd_ps(_mm256_load_ps(g_tile + i + 8 * k), w, acc[k]);
      }
    }
  }
  __m256 s = acc[0];
  for (int k = 1; k < kChains; ++k) s = _mm256_add_ps(s, acc[k]);
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, s);
  return lanes[0];
}
#endif

float loop_portable() {
  float acc[8 * kChains] = {};
  for (int p = 0; p < kPasses; ++p) {
    for (int i = 0; i < kTile; i += 8 * kChains) {
      for (int k = 0; k < 8 * kChains; ++k) acc[k] = g_tile[i + k] * 0.999F + acc[k];
    }
  }
  return acc[0];
}

}  // namespace

double host_probe_ms() {
  static const bool init = (fill_tile(), true);
  (void)init;
  const auto t0 = std::chrono::steady_clock::now();
#if defined(__x86_64__)
  static const bool avx2 = __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  g_sink = avx2 ? loop_avx2() : loop_portable();
#else
  g_sink = loop_portable();
#endif
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

}  // namespace cdlbench
