/**
 * @file
 * Request streams drawn from the run seed: the open-loop arrival
 * schedule with its class mix, and per-request input / MC seeds.
 */

#ifndef PERFBENCH_SCHEDULE_HPP
#define PERFBENCH_SCHEDULE_HPP

#include <cstdint>
#include <vector>

namespace perfbench {

/** One scheduled open-loop request. */
struct Arrival {
    double atMs = 0.0;         ///< send time from the window start
    bool interactive = false;  ///< Interactive int8, else Standard f32
};

/**
 * The open-loop schedule of one run: a Poisson process of @p rate
 * requests/s over @p seconds, conditioned on its expected count
 * round(rate·seconds) so every run offers the same load (arrival
 * times are sorted uniforms, whose gaps are exponential).  Exactly
 * half the requests (rounded down) are Interactive, in an order drawn
 * from @p seed.  Same seed, same schedule.
 */
std::vector<Arrival> openLoopSchedule(std::uint64_t seed, double rate,
                                      double seconds);

/** @return the seed of request @p index's input under run @p seed. */
std::uint64_t requestInputSeed(std::uint64_t seed, std::uint64_t index);

/** @return the MC-dropout seed of request @p index under run @p seed. */
std::uint64_t requestMcSeed(std::uint64_t seed, std::uint64_t index);

} // namespace perfbench

#endif // PERFBENCH_SCHEDULE_HPP
