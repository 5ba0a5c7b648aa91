#include "schedule.hpp"

#include <algorithm>
#include <cmath>

#include "common/math_util.hpp"

namespace perfbench {

namespace {

/** A deterministic 64-bit stream (splitmix64). */
class SeedStream
{
  public:
    explicit SeedStream(std::uint64_t seed) : state_(seed) {}

    /** @return the next 64-bit value. */
    std::uint64_t next();

    /** @return a uniform double in [0, 1). */
    double uniform();

  private:
    std::uint64_t state_;
};

std::uint64_t
SeedStream::next()
{
    state_ += 0x9e3779b97f4a7c15ull;
    return fastbcnn::splitmix64(state_);
}

double
SeedStream::uniform()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

} // namespace

std::vector<Arrival>
openLoopSchedule(std::uint64_t seed, double rate, double seconds)
{
    const auto count =
        static_cast<std::size_t>(std::llround(rate * seconds));
    SeedStream times(fastbcnn::splitmix64(seed ^ 0x5c4ed011eull));
    std::vector<Arrival> out(count);
    for (Arrival &a : out)
        a.atMs = times.uniform() * seconds * 1e3;
    std::sort(out.begin(), out.end(),
              [](const Arrival &a, const Arrival &b) {
                  return a.atMs < b.atMs;
              });

    // Exactly half Interactive, shuffled (Fisher-Yates) by the seed.
    std::vector<bool> classes(count, false);
    for (std::size_t i = 0; i < count / 2; ++i)
        classes[i] = true;
    SeedStream mix(fastbcnn::splitmix64(seed ^ 0xc1a55e5ull));
    for (std::size_t i = count; i > 1; --i) {
        const std::size_t j = static_cast<std::size_t>(mix.next() % i);
        const bool tmp = classes[i - 1];
        classes[i - 1] = classes[j];
        classes[j] = tmp;
    }
    for (std::size_t i = 0; i < count; ++i)
        out[i].interactive = classes[i];
    return out;
}

std::uint64_t
requestInputSeed(std::uint64_t seed, std::uint64_t index)
{
    return fastbcnn::splitmix64(fastbcnn::splitmix64(seed) + index);
}

std::uint64_t
requestMcSeed(std::uint64_t seed, std::uint64_t index)
{
    return fastbcnn::sampleSeed(seed ^ 0x3c5eedull, index);
}

} // namespace perfbench
