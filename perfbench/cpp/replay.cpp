#include "replay.hpp"

#include <cmath>

#include "bayes/topology.hpp"
#include "common/math_util.hpp"
#include "guard/audit.hpp"
#include "nn/conv2d.hpp"
#include "schedule.hpp"
#include "skip/indicator.hpp"
#include "skip/predictive_inference.hpp"

namespace perfbench {

using namespace fastbcnn;

namespace {

/** Requests replayed per numeric path (a fixed subset, in order). */
constexpr std::size_t kVggReplays = 2;
constexpr std::size_t kLenetReplays = 8;

/** The per-conv metric key of conv layer @p layer ("conv3_conv" → "conv3"). */
std::string
convKey(const std::string &layer)
{
    const std::string suffix = "_conv";
    if (layer.size() > suffix.size() &&
        layer.compare(layer.size() - suffix.size(), suffix.size(),
                      suffix) == 0) {
        return layer.substr(0, layer.size() - suffix.size());
    }
    return layer;
}

/** Conv keys every workload reports (B-VGG16, then B-LeNet-5). */
const std::vector<std::string> &
reportedConvKeys()
{
    static const std::vector<std::string> keys = [] {
        std::vector<std::string> k;
        for (int i = 1; i <= 13; ++i)
            k.push_back("conv" + std::to_string(i));
        for (int i = 1; i <= 3; ++i)
            k.push_back("c" + std::to_string(i));
        return k;
    }();
    return keys;
}

double
spanMs(const SpanRecorder &rec, std::uint32_t id)
{
    return rec.spans()[id - 1].ms();
}

/** Network::forward, one span per node's Layer::forward. */
Tensor
forwardByNode(const Network &net, const Tensor &input, ForwardHooks *hooks,
              SpanRecorder &rec, std::uint32_t parent, std::uint32_t req)
{
    std::vector<Tensor> outs(net.size());
    std::vector<const Tensor *> ins;
    for (NodeId i = 0; i < net.size(); ++i) {
        ins.clear();
        for (NodeId id : net.inputsOf(i))
            ins.push_back(id == Network::inputNode ? &input : &outs[id]);
        const Layer &layer = net.layer(i);
        std::string name = layer.kind() == LayerKind::Conv2d
                               ? "nn.conv." + convKey(layer.name())
                           : layer.kind() == LayerKind::Dropout
                               ? "nn.dropout"
                               : "nn.layer";
        {
            ScopedSpan s(rec, std::move(name), parent, req);
            outs[i] = layer.forward(ins, hooks);
        }
        if (hooks != nullptr)
            hooks->mutateActivation(layer.name(), layer.kind(), outs[i]);
    }
    return std::move(outs.back());
}

double
convMacs(const Network &net)
{
    double macs = 0.0;
    for (NodeId i = 0; i < net.size(); ++i) {
        if (net.layer(i).kind() != LayerKind::Conv2d)
            continue;
        const auto &conv = static_cast<const Conv2d &>(net.layer(i));
        macs += static_cast<double>(net.shapeOf(i).numel()) *
                static_cast<double>(conv.inChannels() * conv.kernelSize() *
                                    conv.kernelSize());
    }
    return macs;
}

double
maskBitsPerSample(const Network &net)
{
    double bits = 0.0;
    for (NodeId i = 0; i < net.size(); ++i) {
        if (net.layer(i).kind() == LayerKind::Dropout)
            bits += static_cast<double>(net.shapeOf(i).numel());
    }
    return bits;
}

/** Opaque tryMcReference, then its decomposition; compare bits. */
Status
replayExact(const FastBcnnEngine &engine, const WorkloadSpec &spec,
            const Tensor &x, std::uint64_t seed, Precision precision,
            std::uint32_t req, SpanRecorder &rec, ReplayTally &tally)
{
    McOptions mc = engine.options().mc;
    mc.samples = spec.samples;
    mc.seed = seed;
    mc.precision = precision;
    mc.threads = 1;
    const bool int8 = precision == Precision::Int8;
    const Network &net = engine.network();
    const quant::QuantizedNetwork *qnet = engine.quantized();

    const std::uint32_t opaqueSpan = rec.begin(
        int8 ? "core.mc_int8" : "core.mc_reference", 0, req);
    Expected<McResult> opaque = engine.tryMcReference(x, mc);
    rec.end(opaqueSpan);
    if (!opaque.hasValue())
        return std::move(opaque).takeError().withContext("replay");

    const std::uint32_t root = rec.begin("replay.mc", 0, req);
    Tensor pre;
    {
        ScopedSpan s(rec, int8 ? "quant.pre" : "nn.pre", root, req);
        pre = int8 ? qnet->forward(x, nullptr) : net.forward(x, nullptr);
    }
    std::vector<Tensor> outputs;
    for (std::size_t t = 0; t < mc.samples; ++t) {
        MaskSet masks;
        {
            ScopedSpan s(rec, "rng.masks", root, req);
            auto brng = makeBrng(mc.brng, mc.dropRate,
                                 sampleSeed(mc.seed, t));
            masks = sampleMasks(net, *brng);
        }
        ReplayHooks replay(masks);
        if (int8) {
            ScopedSpan s(rec, "quant.sample", root, req);
            outputs.push_back(qnet->forward(x, &replay));
        } else {
            ScopedSpan s(rec, "nn.sample", root, req);
            outputs.push_back(
                forwardByNode(net, x, &replay, rec, s.id(), req));
        }
    }
    UncertaintySummary summary;
    {
        ScopedSpan s(rec, "bayes.summarize", root, req);
        summary = summarizeSamples(outputs);
    }
    rec.end(root);

    const McResult &ref = opaque.value();
    if (!sameBits(pre, ref.preOutput) || !sameBits(outputs, ref.outputs) ||
        !sameBits(summary.mean, ref.summary.mean) ||
        !sameBits(summary.variance, ref.summary.variance)) {
        return errorf(ErrorCode::Mismatch,
                      "replay: decomposed %s MC run of request %u differs "
                      "from tryMcReference", precisionName(precision),
                      req);
    }
    tally.maskBits += maskBitsPerSample(net) * static_cast<double>(mc.samples);
    const double opaqueMs = spanMs(rec, opaqueSpan);
    const double covered =
        spanMs(rec, root) -
        static_cast<double>(selfTimesNs(rec.spans())[root - 1]) / 1e6;
    tally.opaqueMs.push_back(opaqueMs);
    tally.decomposedMs.push_back(covered);
    tally.runnerOverheadMs.push_back(opaqueMs - covered);
    return Status::ok();
}

/**
 * Opaque tryGuardedMc on @p opaque, then the same run decomposed on
 * @p decomp, whose guard has seen the same request sequence.
 */
Status
replayGuarded(FastBcnnEngine &opaque, FastBcnnEngine &decomp,
              const IndicatorSet &indicators, const WorkloadSpec &spec,
              const Tensor &x, std::uint64_t seed, std::uint32_t req,
              SpanRecorder &rec, ReplayTally &tally)
{
    GuardedMcOptions g;
    g.samples = spec.samples;
    g.dropRate = decomp.options().mc.dropRate;
    g.brng = decomp.options().mc.brng;
    g.seed = seed;
    g.threads = 1;

    const std::uint32_t opaqueSpan = rec.begin("core.guarded_mc", 0, req);
    Expected<GuardedMcResult> ref = opaque.tryGuardedMc(x, g);
    rec.end(opaqueSpan);
    if (!ref.hasValue())
        return std::move(ref).takeError().withContext("replay");

    const BcnnTopology &topo = decomp.topology();
    const Network &net = topo.network();
    SkipGuard &guard = *decomp.guard();
    const AuditOptions &auditOpts = guard.options().audit;
    const std::size_t interval = guard.options().decisionInterval;
    GuardedMcResult got;

    const std::uint32_t root = rec.begin("replay.guarded", 0, req);
    {
        ScopedSpan s(rec, "nn.pre", root, req);
        got.preOutput = net.forward(x, nullptr);
    }
    ZeroMaps zeroMaps;
    {
        ScopedSpan s(rec, "skip.zero_maps", root, req);
        zeroMaps = computeZeroMaps(topo, x);
    }
    const std::size_t eventsBefore = guard.eventCount();
    for (std::size_t start = 0; start < g.samples; start += interval) {
        const std::size_t count = std::min(interval, g.samples - start);
        ThresholdSet thresholds;
        {
            ScopedSpan s(rec, "guard.thresholds", root, req);
            thresholds = guard.effectiveThresholds();
        }
        std::vector<SampleAudit> audits(count);
        for (std::size_t i = 0; i < count; ++i) {
            const std::size_t t = start + i;
            MaskSet masks;
            {
                ScopedSpan s(rec, "rng.masks", root, req);
                auto brng = makeBrng(g.brng, g.dropRate,
                                     sampleSeed(g.seed, t));
                masks = sampleMasks(net, *brng);
            }
            PredictiveOptions popts;
            popts.captureNodeOutputs = auditOpts.rate > 0.0;
            PredictiveResult pres;
            {
                ScopedSpan s(rec, "skip.predictive", root, req);
                pres = predictiveForward(topo, indicators, zeroMaps,
                                         thresholds, x, masks, popts);
            }
            {
                ScopedSpan s(rec, "guard.audit", root, req);
                if (auditOpts.rate > 0.0) {
                    audits[i] = auditPredictedNeurons(
                        topo, x, pres.nodeOutputs, pres.predicted,
                        auditOpts, t);
                } else {
                    audits[i].sample = t;
                }
            }
            for (const ConvBlock &block : topo.blocks()) {
                const std::string key = convKey(net.layer(block.conv).name());
                const BitVolume &dropped =
                    masks.at(net.layer(block.dropout).name());
                const double n = static_cast<double>(dropped.size());
                const double d = static_cast<double>(dropped.popcount());
                double p = 0.0, both = 0.0;
                if (auto it = pres.predicted.find(block.conv);
                    it != pres.predicted.end()) {
                    p = static_cast<double>(it->second.popcount());
                    both = static_cast<double>(
                        it->second.andPopcount(dropped));
                }
                tally.predicted[key] += p;
                tally.convNeurons[key] += n;
                tally.droppedNeurons += d;
                tally.skippableNeurons += p + d - both;
            }
            got.predictedNeurons += pres.predictedNeurons;
            got.outputs.push_back(std::move(pres.output));
        }
        ScopedSpan s(rec, "guard.fold", root, req);
        for (const SampleAudit &audit : audits) {
            got.audited += audit.audited();
            got.mispredicted += audit.mispredicted();
            guard.onSampleAudit(audit);
        }
    }
    {
        ScopedSpan s(rec, "bayes.summarize", root, req);
        got.summary = summarizeSamples(got.outputs);
    }
    rec.end(root);
    got.events = guard.eventsSince(eventsBefore);

    const GuardedMcResult &want = ref.value();
    if (!sameBits(got.preOutput, want.preOutput) ||
        !sameBits(got.outputs, want.outputs) ||
        !sameBits(got.summary.mean, want.summary.mean) ||
        got.predictedNeurons != want.predictedNeurons ||
        got.audited != want.audited ||
        got.mispredicted != want.mispredicted ||
        got.events.size() != want.events.size()) {
        return errorf(ErrorCode::Mismatch,
                      "replay: decomposed guarded run of request %u "
                      "differs from tryGuardedMc", req);
    }
    tally.maskBits += maskBitsPerSample(net) * static_cast<double>(g.samples);
    ++tally.guardedRequests;
    const double covered =
        spanMs(rec, root) -
        static_cast<double>(selfTimesNs(rec.spans())[root - 1]) / 1e6;
    tally.opaqueMs.push_back(spanMs(rec, opaqueSpan));
    tally.decomposedMs.push_back(covered);
    return Status::ok();
}

Expected<std::unique_ptr<FastBcnnEngine>>
freshReplica(const WorkloadSpec &spec)
{
    auto r = buildReplica(spec);
    if (!r.hasValue())
        return std::move(r).takeError().withContext("replay replica");
    return r;
}

} // namespace

Status
replayWindow(const Window &w, const RequestSource &src, SpanRecorder &rec,
             ReplayTally &tally)
{
    const WorkloadSpec &spec = src.spec;
    auto decomp = freshReplica(spec);
    if (!decomp.hasValue())
        return std::move(decomp).takeError();
    FastBcnnEngine &engine = *decomp.value();
    tally.convMacsPerSample = convMacs(engine.network());

    if (spec.guardedSkip) {
        auto opaque = freshReplica(spec);
        if (!opaque.hasValue())
            return std::move(opaque).takeError();
        const IndicatorSet indicators(engine.topology());
        // Both guards start from the state the served replica had:
        // after the warm-up request.
        const serve::InferRequest warm = warmupRequest(spec, false);
        GuardedMcOptions g;
        g.samples = spec.samples;
        g.seed = *warm.mc.seed;
        for (FastBcnnEngine *e : {opaque.value().get(), &engine}) {
            g.dropRate = e->options().mc.dropRate;
            g.brng = e->options().mc.brng;
            auto r = e->tryGuardedMc(warm.input, g);
            if (!r.hasValue())
                return std::move(r).takeError().withContext("replay");
        }
        for (std::size_t i = 0; i < kVggReplays && i < w.requests.size();
             ++i) {
            const Served &s = w.requests[i];
            const auto req = static_cast<std::uint32_t>(s.index + 1);
            const std::uint64_t seed = requestMcSeed(src.seed, s.index);
            FASTBCNN_RETURN_IF_ERROR(replayGuarded(
                *opaque.value(), engine, indicators, spec,
                src.input(s.index), seed, req, rec, tally));
            // The dense sample on the same masks, for skip.sample_ratio.
            FASTBCNN_RETURN_IF_ERROR(
                replayExact(engine, spec, src.input(s.index), seed,
                            Precision::Float32, req, rec, tally));
        }
        return Status::ok();
    }

    const std::size_t perPath = spec.int8Mix ? kLenetReplays : kVggReplays;
    std::size_t done[2] = {0, 0};
    for (const Served &s : w.requests) {
        const std::size_t path = s.interactive && spec.int8Mix ? 1 : 0;
        if (done[path] >= perPath)
            continue;
        ++done[path];
        FASTBCNN_RETURN_IF_ERROR(replayExact(
            engine, spec, src.input(s.index),
            requestMcSeed(src.seed, s.index),
            path == 1 ? Precision::Int8 : Precision::Float32,
            static_cast<std::uint32_t>(s.index + 1), rec, tally));
    }
    return Status::ok();
}

void
reportReplay(const SpanRecorder &rec, const ReplayTally &tally, Report &out)
{
    std::map<std::string, double> total;
    std::map<std::string, std::size_t> count;
    for (const Span &s : rec.spans()) {
        total[s.name] += s.ms();
        ++count[s.name];
    }
    const auto sum = [&](const std::string &n) {
        auto it = total.find(n);
        return it == total.end() ? 0.0 : it->second;
    };
    const auto cnt = [&](const std::string &n) {
        auto it = count.find(n);
        return it == count.end() ? 0.0 : static_cast<double>(it->second);
    };
    const auto per = [&](const std::string &n, double d) {
        return d > 0.0 ? sum(n) / d : 0.0;
    };
    const double samples = cnt("nn.sample");
    double convMs = 0.0;
    for (const auto &[name, ms] : total) {
        if (name.rfind("nn.conv.", 0) == 0)
            convMs += ms;
    }

    out.add("nn.pre_ms", per("nn.pre", cnt("nn.pre")), "ms");
    out.add("nn.sample_ms", per("nn.sample", samples), "ms");
    for (const std::string &key : reportedConvKeys())
        out.add("nn.conv_ms." + key, per("nn.conv." + key, samples), "ms");
    out.add("nn.dropout_ms", per("nn.dropout", samples), "ms");
    out.add("simd.conv_gmac_s",
            convMs > 0.0 ? tally.convMacsPerSample * samples /
                               (convMs * 1e-3) / 1e9
                         : 0.0,
            "GMAC/s");

    out.add("rng.masks_ms", per("rng.masks", cnt("rng.masks")), "ms");
    out.add("rng.mbits_per_s",
            sum("rng.masks") > 0.0
                ? tally.maskBits / (sum("rng.masks") * 1e-3) / 1e6
                : 0.0,
            "Mbit/s");

    const double predictiveMs =
        per("skip.predictive", cnt("skip.predictive"));
    const double denseMs = per("nn.sample", samples);
    out.add("skip.zero_maps_ms", per("skip.zero_maps", cnt("skip.zero_maps")),
            "ms");
    out.add("skip.predictive_sample_ms", predictiveMs, "ms");
    out.add("skip.sample_ratio",
            predictiveMs > 0.0 && denseMs > 0.0 ? predictiveMs / denseMs
                                                : 0.0,
            "ratio");
    for (int i = 1; i <= 13; ++i) {
        const std::string key = "conv" + std::to_string(i);
        const auto p = tally.predicted.find(key);
        const auto n = tally.convNeurons.find(key);
        out.add("skip.predicted_frac." + key,
                p != tally.predicted.end() && n->second > 0.0
                    ? p->second / n->second
                    : 0.0,
                "fraction");
    }
    double neurons = 0.0;
    for (const auto &[key, n] : tally.convNeurons)
        neurons += n;
    out.add("skip.dropped_frac",
            neurons > 0.0 ? tally.droppedNeurons / neurons : 0.0,
            "fraction");
    out.add("skip.computed_frac",
            neurons > 0.0 ? 1.0 - tally.skippableNeurons / neurons : 0.0,
            "fraction");

    const double guarded = static_cast<double>(tally.guardedRequests);
    out.add("guard.overhead_ms",
            guarded > 0.0 ? (sum("guard.thresholds") + sum("guard.audit") +
                             sum("guard.fold")) /
                                guarded
                          : 0.0,
            "ms");

    out.add("bayes.runner_overhead_ms", mean(tally.runnerOverheadMs), "ms");
    out.add("bayes.summarize_ms",
            per("bayes.summarize", cnt("bayes.summarize")), "ms");
    out.add("quant.pre_ms", per("quant.pre", cnt("quant.pre")), "ms");
    out.add("quant.sample_ms", per("quant.sample", cnt("quant.sample")),
            "ms");

    double opaque = 0.0, decomposed = 0.0;
    for (std::size_t i = 0; i < tally.opaqueMs.size(); ++i) {
        opaque += tally.opaqueMs[i];
        decomposed += tally.decomposedMs[i];
    }
    out.add("trace.accounting_err_pct",
            opaque > 0.0 ? 100.0 * std::fabs(opaque - decomposed) / opaque
                         : 0.0,
            "%");
}

} // namespace perfbench
