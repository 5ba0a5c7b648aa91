/**
 * @file
 * Guarded skip inference on the one MC runner: prediction mode
 * (skip/predictive_inference.hpp) as a ForwardTarget, with the
 * SkipGuard as the runner's block observer.  Every sample of a block
 * of GuardOptions::decisionInterval samples uses the thresholds
 * snapshotted when the block started and shadow-audits its skipped
 * neurons (audit.hpp); survivors' audits fold into the guard in
 * ascending sample order.  Runs are bit-identical for every thread
 * count, and get the runner's fault isolation, quorum, deadline,
 * adaptive exit and census.
 */

#ifndef FASTBCNN_GUARD_GUARDED_MC_HPP
#define FASTBCNN_GUARD_GUARDED_MC_HPP

#include "bayes/mc_runner.hpp"
#include "guard.hpp"

namespace fastbcnn {

/** Options of a guarded run; precision must be Float32. */
using GuardedMcOptions = McOptions;

/** Outcome of one guarded run: the MC result plus skip tallies. */
struct GuardedMcResult : McResult {
    std::uint64_t predictedNeurons = 0;  ///< skipped neurons, survivors
    std::uint64_t audited = 0;           ///< shadow-audited neurons
    std::uint64_t mispredicted = 0;      ///< of those, mispredicted
    std::vector<GuardEvent> events;      ///< decisions made this run
    GuardSnapshot finalSnapshot;         ///< guard state after the run
};

/**
 * Run a guarded predictive MC-dropout inference over @p guard's
 * effective thresholds.  The guard is shared, long-lived state: its
 * backoff levels persist across calls, which is the point — drift
 * detected on one request protects the next.  Survivors' audits fold
 * into the guard even when the run then fails its quorum.
 *
 * Errors (never aborts): those of tryRunMcDropoutWith(), and
 * InvalidArgument for Precision::Int8.
 *
 * @param topo       analysed BCNN
 * @param indicators weight-sign indicators
 * @param guard      the model's skip guard (thresholds + policy)
 * @param input      input tensor matching the network input shape
 * @param opts       sampling configuration
 */
[[nodiscard]] Expected<GuardedMcResult> tryRunGuardedMc(
    const BcnnTopology &topo, const IndicatorSet &indicators,
    SkipGuard &guard, const Tensor &input,
    const GuardedMcOptions &opts = {});

} // namespace fastbcnn

#endif // FASTBCNN_GUARD_GUARDED_MC_HPP
