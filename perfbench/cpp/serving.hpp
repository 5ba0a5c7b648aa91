/**
 * @file
 * The serving side of the benchmark: server set-up with warm-up, the
 * closed- and open-loop drivers, the end-to-end summary, the
 * correctness gate and the fidelity pass.
 */

#ifndef PERFBENCH_SERVING_HPP
#define PERFBENCH_SERVING_HPP

#include <memory>
#include <vector>

#include "models.hpp"
#include "serve/server.hpp"
#include "spans.hpp"

namespace perfbench {

namespace serve = fastbcnn::serve;

/** @return true when @p a and @p b hold the same floats, bit for bit. */
bool sameBits(const Tensor &a, const Tensor &b);
/** sameBits() over two equally long tensor lists. */
bool sameBits(const std::vector<Tensor> &a, const std::vector<Tensor> &b);

/** The requests of one run: inputs are drawn from the run seed. */
struct RequestSource {
    WorkloadSpec spec;
    std::uint64_t seed = 0;
    /** Distinct inputs; request i uses pool[i % pool.size()]. */
    std::vector<Tensor> pool;

    RequestSource(const WorkloadSpec &s, std::uint64_t run_seed);

    /** @return request @p index (its MC seed comes from the run seed). */
    serve::InferRequest request(std::uint64_t index,
                                bool interactive) const;
    /** @return the input request @p index carries. */
    const Tensor &input(std::uint64_t index) const;
};

/** @return the request the set-up warms every server with. */
serve::InferRequest warmupRequest(const WorkloadSpec &spec,
                                  bool interactive);

/** One built-and-warmed server and what that cost. */
struct ServerSetup {
    std::unique_ptr<serve::InferenceServer> server;
    double seconds = 0.0;  ///< create + warm-up wall time
    SetupTimes times;      ///< module split of the replica builds
};

/** Create a server for @p spec and warm it; errors if warm-up fails. */
Expected<ServerSetup> setUpServer(const WorkloadSpec &spec);

/** One request as the benchmark's client saw it. */
struct Served {
    std::uint64_t index = 0;
    bool interactive = false;
    bool refused = false;         ///< submit() returned an error
    serve::InferResponse response;
    double latencyMs = 0.0;       ///< +inf unless Ok
    double lagMs = 0.0;           ///< generator lateness (open loop)
    double submitUs = 0.0;        ///< submit() call duration
};

/** What one timed window produced. */
struct Window {
    std::vector<Served> requests;
    double seconds = 0.0;  ///< window start to last resolution
};

/**
 * Drive @p server for @p seconds: one closed-loop client, or the
 * open-loop schedule when spec.openLoopRate > 0.  With @p spans set,
 * every submit() is recorded as a "serve.submit" span.
 */
Window runWindow(serve::InferenceServer &server, const RequestSource &src,
                 double seconds, SpanRecorder *spans);

/** End-to-end figures of one window. */
struct EndToEnd {
    std::size_t attempted = 0;
    std::size_t ok = 0;
    double throughputRps = 0.0;
    double p50Ms = 0.0;
    double p90Ms = 0.0;
    double p99Ms = 0.0;           ///< 0 when too few samples beyond
    double successPct = 0.0;
    double deadlineMissPct = 0.0; ///< open loop only
    double lagP99Ms = 0.0;        ///< open loop only
};

EndToEnd summarizeWindow(const Window &w, const WorkloadSpec &spec);

/**
 * Correctness gate.  (1) Every Ok response carries finite class
 * probabilities summing to 1.  (2) A fixed subset — the first full-T
 * responses of each numeric path — replays bit-identically on a fresh
 * replica: tryMcReference with the same seed, or, on the guarded
 * path, tryGuardedMc fed the warm-up and then the same request
 * sequence.
 * @param agree_pct set to the share of replayed MC samples whose
 *        argmax the served response reproduced
 */
Status correctnessGate(const Window &w, const RequestSource &src,
                       double *agree_pct);

/** Approximate path vs exact f32 MC reference on the same seeds. */
struct Fidelity {
    double argmaxAgreePct = 0.0;   ///< per MC sample, same masks
    double posteriorMeanErr = 0.0; ///< mean over requests of max |Δ|
};

/**
 * Fidelity pass over a fixed request list that does not depend on the
 * run seed or length, on a fresh replica: guarded skip (vgg_skip) or
 * int8 (lenet_mix) against the exact f32 reference.  Workloads with
 * no approximate path return nullopt.
 */
Expected<std::optional<Fidelity>> fidelityPass(const WorkloadSpec &spec);

} // namespace perfbench

#endif // PERFBENCH_SERVING_HPP
