// perfbench_calib: a fixed task whose host time tracks how fast this host
// currently runs the kind of work the simulator's host time is made of:
// page faults on fresh anonymous memory, and cache-missing reads and writes
// spread over a working set far larger than the private caches. perfbench
// runs it in its own process between passes and reports host times scaled
// by a reference calibration time over the measured one; see
// perfbench/README.md, "Host-time calibration".
//
// Prints the seconds the task took.
#include <sys/mman.h>

#include <chrono>
#include <cstdint>
#include <cstdio>

int main() {
  constexpr std::size_t kBytes = std::size_t{64} << 20;
  constexpr std::size_t kWords = kBytes / sizeof(std::uint64_t);
  constexpr int kRounds = 2;
  constexpr int kTouches = 2'000'000;
  std::uint64_t sum = 0;
  auto t0 = std::chrono::steady_clock::now();
  for (int round = 0; round < kRounds; ++round) {
    void* p = mmap(nullptr, kBytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) return 1;
    auto* w = static_cast<std::uint64_t*>(p);
    for (std::size_t i = 0; i < kWords; i += 4096 / sizeof(std::uint64_t)) {
      w[i] = i;  // one fault per page
    }
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (int k = 0; k < kTouches; ++k) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      sum += w[(x >> 11) % kWords]++;
    }
    munmap(p, kBytes);
  }
  double s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  // The sum keeps the touches from being optimised away.
  std::printf("%.9f %llu\n", s, static_cast<unsigned long long>(sum));
  return 0;
}
