#include "hostref.h"

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory_resource>
#include <string>
#include <vector>

namespace perfbench {

namespace {

// Keeps each kernel's result alive so the compiler cannot drop the work.
volatile std::uint64_t g_sink;

constexpr std::size_t kArenaBytes = 6 << 20;

/// Memory the kernels allocate from. Each kernel repetition bump-allocates
/// from its start and never touches the heap, so what a pass left in
/// malloc's free lists and mmap threshold cannot move the reference: with
/// the heap, the byte-vector kernel ran 3.5 times slower after an RSM pass
/// than after a gwts-bracha pass.
std::byte* arena() {
  static std::vector<std::byte> buf(kArenaBytes);
  return buf.data();
}

std::uint64_t xorshift(std::uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

/// Hash-style mixing over a 64 KiB buffer, as digests do.
std::uint64_t mix_kernel() {
  std::pmr::monotonic_buffer_resource pool(arena(), kArenaBytes,
                                           std::pmr::null_memory_resource());
  std::pmr::vector<std::uint32_t> buf(16384, 1, &pool);
  std::uint64_t h = 1469598103934665603ull;
  for (int r = 0; r < 600; ++r) {
    for (std::uint32_t& x : buf) {
      h = (h ^ x) * 1099511628211ull;
      x = static_cast<std::uint32_t>(h >> 17) ^ (x << 3);
    }
  }
  return h;
}

/// Ordered-map inserts of small strings, a walk and a teardown, as the
/// lattice's sets do.
std::uint64_t map_kernel() {
  std::uint64_t acc = 0;
  for (int r = 0; r < 3; ++r) {
    std::pmr::monotonic_buffer_resource pool(arena(), kArenaBytes,
                                             std::pmr::null_memory_resource());
    std::pmr::map<std::uint64_t, std::pmr::string> m(&pool);
    std::uint64_t x = 88172645463325252ull;
    for (int i = 0; i < 20000; ++i) {
      const std::uint64_t k = xorshift(x);
      m.try_emplace(k, 48, static_cast<char>('a' + (k & 15)));
    }
    for (const auto& [k, v] : m) acc += k ^ v.size();
  }
  return acc;
}

/// Appends 8-byte words to a growing byte vector up to 200 KB and copies
/// it, as message encoding does.
std::uint64_t encode_kernel() {
  std::uint64_t acc = 0;
  for (int r = 0; r < 60; ++r) {
    std::pmr::monotonic_buffer_resource pool(arena(), kArenaBytes,
                                             std::pmr::null_memory_resource());
    std::pmr::vector<std::uint8_t> v(&pool);
    for (std::uint64_t i = 0; i < 200000; i += 8) {
      const std::uint64_t w = i * 0x9e3779b97f4a7c15ull;
      const auto* p = reinterpret_cast<const std::uint8_t*>(&w);
      v.insert(v.end(), p, p + sizeof w);
    }
    const std::pmr::vector<std::uint8_t> copy(v, &pool);
    acc += copy[static_cast<std::size_t>(r)];
  }
  return acc;
}

}  // namespace

double reference_s() {
  const auto t0 = std::chrono::steady_clock::now();
  g_sink = mix_kernel() + map_kernel() + encode_kernel();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace perfbench
