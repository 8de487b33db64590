/**
 * @file
 * Host-speed calibration kernel for the end-to-end benchmark
 * (bench/e2e/README.md). On a shared host the speed of a core drifts
 * by tens of percent over minutes as neighbours load the machine.
 * run.py runs this fixed piece of work after every timed crisp_sim
 * invocation and divides each pass's times by the median duration
 * measured in that pass, so the reported times follow the code under
 * test, not the neighbours.
 *
 * The work resembles the simulator's: dependent loads over a 64 KiB
 * and an 8 MiB random cycle, each followed by integer hashing. Of the
 * working sets tried on the reference host (64 KiB to 16 MiB), this
 * pair tracked crisp_sim's speed best. It uses no CRISP code, so no
 * change to the repository can speed it up. Prints the seconds the
 * timed loop took and a checksum.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <numeric>
#include <utility>
#include <vector>

namespace
{

/** A random single cycle over n slots (Sattolo's algorithm). */
std::vector<uint32_t>
cycle(size_t n, uint64_t seed)
{
    std::vector<uint32_t> next(n);
    std::iota(next.begin(), next.end(), 0u);
    for (size_t i = n - 1; i > 0; --i) {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        std::swap(next[i], next[seed % i]);
    }
    return next;
}

uint64_t
chase(const std::vector<uint32_t> &next, size_t steps, uint64_t h)
{
    uint32_t p = 0;
    for (size_t k = 0; k < steps; ++k) {
        p = next[p];
        for (uint32_t j = 0; j < 8; ++j)
            h = (h ^ (p + j)) * 0x100000001b3ull;
    }
    return h;
}

} // namespace

int
main()
{
    const std::vector<uint32_t> small = cycle(size_t(1) << 14, 1);
    const std::vector<uint32_t> large = cycle(size_t(1) << 21, 2);
    auto t0 = std::chrono::steady_clock::now();
    uint64_t h = chase(small, 1'000'000, 14695981039346656037ull);
    h = chase(large, 200'000, h);
    auto t1 = std::chrono::steady_clock::now();
    std::printf("%.9f %llu\n",
                std::chrono::duration<double>(t1 - t0).count(),
                static_cast<unsigned long long>(h));
    return 0;
}
