#include "models.hpp"

#include <chrono>
#include <cmath>

#include "bayes/mc_runner.hpp"
#include "bayes/topology.hpp"
#include "data/synthetic.hpp"

namespace perfbench {

using namespace fastbcnn;

namespace {

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** Probe and calibration inputs come from seeds no request uses. */
constexpr std::uint64_t kProbeSeed = 0x9e0be5eedull;

} // namespace

std::optional<WorkloadSpec>
workloadByName(const std::string &name)
{
    WorkloadSpec s;
    if (name == "vgg_dense" || name == "vgg_skip") {
        s.name = name == "vgg_dense" ? "vgg_dense" : "vgg_skip";
        s.model = ModelKind::Vgg16;
        s.width = 0.5;
        s.samples = 8;
        s.lanes = 2;
        s.workers = 1;
        s.maxBatch = 1;
        s.guardedSkip = name == "vgg_skip";
        return s;
    }
    if (name == "lenet_mix") {
        s.name = "lenet_mix";
        s.model = ModelKind::LeNet5;
        s.width = 1.0;
        s.samples = 20;
        s.lanes = 1;
        // Default ServerOptions sizing: 2 workers, micro-batches of 8.
        s.workers = 2;
        s.maxBatch = 8;
        s.int8Mix = true;
        // About 40 % of this model's serving capacity on a 4-core
        // host (2 workers at ~12 ms int8 / ~20 ms f32 per request);
        // a constant of the workload, never derived at run time.
        s.openLoopRate = 50.0;
        // Well above the observed p99 (tens of ms), so a miss marks a
        // real stall rather than ordinary queueing.
        s.interactiveDeadlineMs = 400.0;
        s.standardDeadlineMs = 800.0;
        // A LeNet set-up takes ~0.1 s, so more repeats cost nothing
        // and steady the median.
        s.setups = 9;
        return s;
    }
    return std::nullopt;
}

Tensor
requestInput(ModelKind model, std::uint64_t seed)
{
    const std::size_t label = static_cast<std::size_t>(seed % 10);
    return model == ModelKind::LeNet5 ? makeMnistLikeImage(label, seed)
                                      : makeCifarLikeImage(label, seed);
}

std::vector<Tensor>
probeInputs(ModelKind model)
{
    std::vector<Tensor> probes;
    for (std::uint64_t i = 0; i < 4; ++i)
        probes.push_back(requestInput(model, kProbeSeed + i * 7 + 3));
    return probes;
}

Network
buildCalibratedNetwork(const WorkloadSpec &spec, SetupTimes *times)
{
    ModelOptions mopts;
    mopts.widthMultiplier = spec.width;
    auto t0 = std::chrono::steady_clock::now();
    Network net = buildModel(spec.model, mopts);
    if (times != nullptr)
        times->build += secondsSince(t0);
    t0 = std::chrono::steady_clock::now();
    calibrateSparsity(net, probeInputs(spec.model));
    if (times != nullptr)
        times->sparsity += secondsSince(t0);
    return net;
}

Expected<std::unique_ptr<FastBcnnEngine>>
buildReplica(const WorkloadSpec &spec, SetupTimes *times)
{
    SetupTimes local;
    Network net = buildCalibratedNetwork(spec, &local);

    EngineOptions eopts;
    eopts.mc.samples = spec.samples;
    eopts.mc.threads = spec.lanes;
    eopts.mc.recordMasks = false;
    eopts.guard.enabled = spec.guardedSkip;
    auto t0 = std::chrono::steady_clock::now();
    Expected<std::unique_ptr<FastBcnnEngine>> engine =
        FastBcnnEngine::create(std::move(net), eopts);
    local.create = secondsSince(t0);
    if (!engine.hasValue())
        return engine;

    // Algorithm 1 tunes against one input the requests never use.
    const std::vector<Tensor> probes = probeInputs(spec.model);
    const std::vector<Tensor> calib(probes.begin(), probes.begin() + 1);
    t0 = std::chrono::steady_clock::now();
    if (Status st = engine.value()->tryCalibrate(calib); !st.isOk())
        return Expected<std::unique_ptr<FastBcnnEngine>>(std::move(st));
    local.calibrate = secondsSince(t0);
    if (spec.int8Mix) {
        t0 = std::chrono::steady_clock::now();
        if (Status st = engine.value()->tryQuantize(probes); !st.isOk())
            return Expected<std::unique_ptr<FastBcnnEngine>>(
                std::move(st));
        local.quantize = secondsSince(t0);
    }
    if (times != nullptr) {
        times->build += local.build;
        times->sparsity += local.sparsity;
        times->create += local.create;
        times->calibrate += local.calibrate;
        times->quantize += local.quantize;
    }
    return engine;
}

Status
checkNonDegenerate(const Network &net, const std::vector<Tensor> &probes)
{
    if (probes.size() < 2) {
        return errorf(ErrorCode::InvalidArgument,
                      "non-degeneracy check needs two probe inputs");
    }
    const BcnnTopology topo(net);
    CaptureHooks capture(nullptr, [](const std::string &,
                                     LayerKind kind) {
        return kind == LayerKind::ReLU;
    });
    const Tensor pre0 = net.forward(probes[0], &capture);
    for (const ConvBlock &block : topo.blocks()) {
        const std::string &relu = net.layer(block.relu).name();
        const Tensor &act = capture.activation(relu);
        std::size_t zeros = 0;
        for (float v : act.data())
            zeros += v == 0.0f ? 1 : 0;
        const double frac =
            static_cast<double>(zeros) / static_cast<double>(act.numel());
        if (!(frac < 0.95)) {
            return errorf(ErrorCode::InvalidArgument,
                          "degenerate model '%s': %s post-ReLU zero "
                          "fraction %.4f >= 0.95",
                          net.name().c_str(),
                          net.layer(block.conv).name().c_str(), frac);
        }
    }

    const Tensor pre1 = net.forward(probes[1], nullptr);
    bool inputMatters = false;
    for (std::size_t i = 0; i < pre0.numel(); ++i)
        inputMatters = inputMatters || pre0.at(i) != pre1.at(i);
    if (!inputMatters) {
        return errorf(ErrorCode::InvalidArgument,
                      "degenerate model '%s': the pre-inference output "
                      "is the same for two different probe inputs",
                      net.name().c_str());
    }

    McOptions mc;
    mc.samples = 4;
    mc.recordMasks = false;
    Expected<McResult> run = tryRunMcDropout(net, probes[0], mc);
    if (!run.hasValue())
        return std::move(run).takeError();
    const std::vector<Tensor> &outs = run.value().outputs;
    bool dropoutMatters = false;
    for (std::size_t t = 1; t < outs.size(); ++t) {
        for (std::size_t i = 0; i < outs[t].numel(); ++i)
            dropoutMatters =
                dropoutMatters || outs[t].at(i) != outs[0].at(i);
    }
    if (!dropoutMatters) {
        return errorf(ErrorCode::InvalidArgument,
                      "degenerate model '%s': every MC sample output is "
                      "identical (dropout does not reach the output)",
                      net.name().c_str());
    }
    return Status::ok();
}

} // namespace perfbench
