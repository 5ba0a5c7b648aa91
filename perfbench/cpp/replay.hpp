/**
 * @file
 * The traced replay: a fixed subset of a window's requests re-run
 * serially, first as the opaque engine call, then decomposed into the
 * public calls it is made of, each wrapped in a span.  The decomposed
 * result must equal the opaque one bit for bit, or the split measured
 * different work.
 */

#ifndef PERFBENCH_REPLAY_HPP
#define PERFBENCH_REPLAY_HPP

#include <map>
#include <string>
#include <vector>

#include "serving.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {

/** Work counts gathered while replaying (spans hold the times). */
struct ReplayTally {
    /** Conv MACs of one dense sample forward, from layer shapes. */
    double convMacsPerSample = 0.0;
    /** Dropout-mask bits drawn in total. */
    double maskBits = 0.0;
    /** Per conv: predicted-skipped neurons and neurons seen. */
    std::map<std::string, double> predicted;
    std::map<std::string, double> convNeurons;
    /** Over every conv output of predictive samples. */
    double droppedNeurons = 0.0;
    double skippableNeurons = 0.0;  ///< predicted ∪ dropped
    std::size_t guardedRequests = 0;
    /** Per opaque call: its ms and the ms its decomposition's layer
     *  spans cover (the decomposition minus its own glue). */
    std::vector<double> opaqueMs;
    std::vector<double> decomposedMs;
    /** Same, restricted to exact/int8 MC-runner calls. */
    std::vector<double> runnerOverheadMs;
};

/**
 * Replay a fixed subset of @p w (its first requests) on fresh
 * replicas with spans recorded into @p rec.
 * @return ok, or Mismatch when a decomposition differs from the
 *         opaque call it replays
 */
Status replayWindow(const Window &w, const RequestSource &src,
                    SpanRecorder &rec, ReplayTally &tally);

/** Add the replay's per-layer metrics (from spans and tallies). */
void reportReplay(const SpanRecorder &rec, const ReplayTally &tally,
                  Report &out);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_HPP
