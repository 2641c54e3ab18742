// Runtime dispatch for the SIMD kernel variants.
#include "stats/simd_detail.hpp"

#include <atomic>

namespace mm::stats::simd {
namespace {

bool cpu_has_avx2() {
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

Level detect_best_level() {
  if (!avx2_compiled() || !cpu_has_avx2()) return Level::scalar;
  return Level::avx2;
}

std::atomic<const KernelTable*>& active_table() {
  static std::atomic<const KernelTable*> table{&table_for(detect_best_level())};
  return table;
}

}  // namespace

const char* level_name(Level level) {
  return level == Level::avx2 ? "avx2" : "scalar";
}

bool avx2_compiled() {
#if MM_SIMD_AVX2
  return true;
#else
  return false;
#endif
}

bool avx2_supported() { return avx2_compiled() && cpu_has_avx2(); }

const KernelTable& scalar_kernels() { return detail::scalar_table(); }

const KernelTable& table_for(Level level) {
#if MM_SIMD_AVX2
  if (level == Level::avx2 && cpu_has_avx2()) return detail::avx2_table();
#endif
  (void)level;
  return detail::scalar_table();
}

const KernelTable& kernels() {
  return *active_table().load(std::memory_order_relaxed);
}

Level active_level() {
  const KernelTable* current = active_table().load(std::memory_order_relaxed);
#if MM_SIMD_AVX2
  if (current == &detail::avx2_table()) return Level::avx2;
#endif
  (void)current;
  return Level::scalar;
}

bool set_level(Level level) {
  if (level == Level::avx2 && !avx2_supported()) return false;
  active_table().store(&table_for(level), std::memory_order_relaxed);
  return true;
}

ScopedLevel::ScopedLevel(Level level)
    : saved_(active_level()), engaged_(set_level(level)) {}

ScopedLevel::~ScopedLevel() {
  if (engaged_) set_level(saved_);
}

}  // namespace mm::stats::simd
