/**
 * @file
 * Workload definitions and model set-up for the serving benchmark:
 * what each workload serves, how one calibrated engine replica is
 * built (with its set-up time split by module), and the
 * non-degeneracy precondition every benchmarked model must pass.
 */

#ifndef PERFBENCH_MODELS_HPP
#define PERFBENCH_MODELS_HPP

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "models/zoo.hpp"

namespace perfbench {

using fastbcnn::Expected;
using fastbcnn::FastBcnnEngine;
using fastbcnn::ModelKind;
using fastbcnn::Network;
using fastbcnn::Status;
using fastbcnn::Tensor;

/** Everything that defines one workload; constants, never measured. */
struct WorkloadSpec {
    const char *name = "";
    ModelKind model = ModelKind::Vgg16;
    double width = 0.5;
    /** MC samples T per request. */
    std::size_t samples = 8;
    /** MC sample lanes per request (McOverrides::threads). */
    std::size_t lanes = 2;
    /** Server workers (engine replicas). */
    std::size_t workers = 1;
    /** Server micro-batch cap. */
    std::size_t maxBatch = 1;
    /** Engines carry a skip guard; requests use the guarded path. */
    bool guardedSkip = false;
    /** Engines carry an int8 mirror; half the requests use it. */
    bool int8Mix = false;
    /** Open-loop arrival rate in requests/s; 0 = one closed-loop client. */
    double openLoopRate = 0.0;
    /** Server set-ups per run; setup_s is their median. */
    int setups = 3;
    /** Class deadlines in ms (open loop only): Interactive, Standard. */
    double interactiveDeadlineMs = 0.0;
    double standardDeadlineMs = 0.0;
};

/** @return the spec of workload @p name, or nullopt when unknown. */
std::optional<WorkloadSpec> workloadByName(const std::string &name);

/** Wall-clock split of one replica build, in seconds. */
struct SetupTimes {
    double build = 0.0;      ///< models: buildModel
    double sparsity = 0.0;   ///< models: calibrateSparsity
    double create = 0.0;     ///< core: FastBcnnEngine::create
    double calibrate = 0.0;  ///< core: tryCalibrate (Algorithm 1)
    double quantize = 0.0;   ///< core: tryQuantize
};

/** @return the benchmarked network, built and sparsity-calibrated. */
Network buildCalibratedNetwork(const WorkloadSpec &spec,
                               SetupTimes *times = nullptr);

/**
 * Build one calibrated engine replica of @p spec's model.  Every call
 * returns a replica that computes bit-identically to every other
 * (fixed weight, sparsity and Algorithm 1 seeds).  When @p times is
 * set, the build's module split is added to it.
 */
Expected<std::unique_ptr<FastBcnnEngine>> buildReplica(
    const WorkloadSpec &spec, SetupTimes *times = nullptr);

/** @return a request input for @p model drawn from @p seed. */
Tensor requestInput(ModelKind model, std::uint64_t seed);

/** @return the fixed probe inputs the set-up calibrates against. */
std::vector<Tensor> probeInputs(ModelKind model);

/**
 * The non-degeneracy precondition: refuse a model on which a speed or
 * fidelity number would be vacuous.
 *  - every conv's post-ReLU zero fraction is below 0.95 on the probe;
 *  - the pre-inference output differs between two probe inputs;
 *  - the MC sample outputs are not all identical.
 * @return ok, or FailedPrecondition naming the first failed check.
 */
Status checkNonDegenerate(const Network &net,
                          const std::vector<Tensor> &probes);

} // namespace perfbench

#endif // PERFBENCH_MODELS_HPP
