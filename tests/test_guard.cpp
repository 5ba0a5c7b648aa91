/**
 * @file
 * Tests for the runtime skip guardrails: the deterministic shadow
 * audit, the per-kernel backoff / recovery policy, snapshot merging,
 * the guarded MC runner (including the drift-recovery regression and
 * its thread-count bit-identity), and the engine wiring.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <random>

#include "bayes/hooks.hpp"
#include "common/math_util.hpp"
#include "core/engine.hpp"
#include "data/synthetic.hpp"
#include "guard/guarded_mc.hpp"
#include "models/zoo.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/dropout.hpp"
#include "nn/pooling.hpp"
#include "simd/simd.hpp"

using namespace fastbcnn;

namespace {

Network
tinyBcnn(std::uint64_t seed = 3, double drop_rate = 0.3)
{
    Network net("tiny", Shape({1, 8, 8}));
    net.add(std::make_unique<Conv2d>("c1", 1, 3, 3, 1, 1));
    net.add(std::make_unique<ReLU>("r1"));
    net.add(std::make_unique<Dropout>("d1", drop_rate));
    net.add(std::make_unique<MaxPool2d>("p1", 2));
    net.add(std::make_unique<Conv2d>("c2", 3, 4, 3));
    net.add(std::make_unique<ReLU>("r2"));
    net.add(std::make_unique<Dropout>("d2", drop_rate));
    InitOptions init;
    init.seed = seed;
    initializeWeights(net, init);
    return net;
}

Tensor
randomInput(std::uint64_t seed)
{
    std::mt19937_64 rng(seed);
    std::normal_distribution<float> g(0.3f, 1.0f);
    Tensor t(Shape({1, 8, 8}));
    for (float &v : t.data())
        v = g(rng);
    return t;
}

/** Guard options that decide quickly (unit-test scale). */
GuardOptions
fastGuardOptions(double tolerance)
{
    GuardOptions opts;
    opts.enabled = true;
    opts.audit.rate = 1.0;
    opts.tolerance = tolerance;
    opts.decisionInterval = 1;
    opts.minAudited = 10;
    opts.cooldownRounds = 1;
    opts.cooldownGrowth = 2;
    opts.recoverFraction = 0.5;
    return opts;
}

/** A synthetic one-kernel audit for the first conv of @p topo. */
SampleAudit
syntheticAudit(const BcnnTopology &topo, std::size_t sample,
               std::uint64_t audited, std::uint64_t mispredicted)
{
    const ConvBlock &b = topo.blocks().front();
    SampleAudit audit;
    audit.sample = sample;
    std::vector<KernelAudit> &ks = audit.kernels[b.conv];
    ks.resize(b.outShape.dim(0));
    ks[0].audited = audited;
    ks[0].mispredicted = mispredicted;
    return audit;
}

} // namespace

TEST(AuditSelect, DeterministicAndRateBounded)
{
    // Same (seed, conv, sample, flat) -> same answer, always.
    for (std::size_t flat = 0; flat < 64; ++flat) {
        EXPECT_EQ(auditSelected(7, 2, 5, flat, 0.3),
                  auditSelected(7, 2, 5, flat, 0.3));
    }
    // Boundary rates are exact.
    std::size_t none = 0, all = 0, some = 0;
    const std::size_t n = 20000;
    for (std::size_t flat = 0; flat < n; ++flat) {
        none += auditSelected(7, 2, 5, flat, 0.0) ? 1 : 0;
        all += auditSelected(7, 2, 5, flat, 1.0) ? 1 : 0;
        some += auditSelected(7, 2, 5, flat, 0.1) ? 1 : 0;
    }
    EXPECT_EQ(none, 0u);
    EXPECT_EQ(all, n);
    // Empirical rate within 3 sigma of 0.1.
    EXPECT_NEAR(static_cast<double>(some) / n, 0.1, 0.007);
    // Different seeds select different neurons.
    std::size_t differ = 0;
    for (std::size_t flat = 0; flat < 1000; ++flat) {
        differ += auditSelected(1, 2, 5, flat, 0.5) !=
                          auditSelected(2, 2, 5, flat, 0.5)
                      ? 1
                      : 0;
    }
    EXPECT_GT(differ, 0u);
}

TEST(Audit, FullRateMatchesEnumeration)
{
    // With rate 1.0 the audit must equal the full mispredict
    // enumeration: audited == predicted popcount per conv, and the
    // mispredict count must match the independent full-tensor path
    // (Conv2d::forward + mispredicted()).
    Network net = tinyBcnn();
    BcnnTopology topo(net);
    IndicatorSet indicators(topo);
    const Tensor input = randomInput(11);
    const ZeroMaps zeros = computeZeroMaps(topo, input);
    // Aggressive thresholds so mispredicts actually occur.
    const ThresholdSet thresholds(topo, 6);

    auto brng = makeBrng(BrngKind::Software, 0.3, 99);
    const MaskSet masks = sampleMasks(net, *brng);
    PredictiveOptions popts;
    popts.captureNodeOutputs = true;
    const PredictiveResult pres = predictiveForward(
        topo, indicators, zeros, thresholds, input, masks, popts);

    AuditOptions aopts;
    aopts.rate = 1.0;
    const SampleAudit audit = auditPredictedNeurons(
        topo, input, pres.nodeOutputs, pres.predicted, aopts, 0);

    std::uint64_t want_mispredicted = 0;
    for (const ConvBlock &b : topo.blocks()) {
        const BitVolume &pred = pres.predicted.at(b.conv);
        std::uint64_t audited = 0;
        for (const KernelAudit &k : audit.kernels.at(b.conv))
            audited += k.audited;
        EXPECT_EQ(audited, pred.popcount());

        const NodeId producer = net.inputsOf(b.conv)[0];
        const Tensor &conv_in = producer == Network::inputNode
                                    ? input
                                    : pres.nodeOutputs[producer];
        const Tensor exact = net.layer(b.conv).forward({&conv_in},
                                                       nullptr);
        want_mispredicted += mispredicted(pred, exact).popcount();
    }
    EXPECT_EQ(audit.mispredicted(), want_mispredicted);
    EXPECT_GT(audit.audited(), 0u);
}

TEST(Guard, BacksOffToDisableUnderSustainedMispredicts)
{
    Network net = tinyBcnn();
    BcnnTopology topo(net);
    const NodeId conv = topo.blocks().front().conv;
    const ThresholdSet calibrated(topo, 8);
    SkipGuard guard(topo, calibrated, fastGuardOptions(0.1));

    // Feed a 50 % mispredict rate into kernel 0 until it is disabled.
    std::size_t sample = 0;
    while (guard.effectiveThresholds().of(conv, 0) > 0) {
        ASSERT_LT(sample, 200u) << "guard never disabled the kernel";
        guard.onSampleAudit(syntheticAudit(topo, sample, 20, 10));
        ++sample;
    }

    // 8 -> 4 -> 2 -> 1 -> 0: three backoffs, then the disable.
    const std::vector<GuardEvent> events = guard.eventsSince(0);
    ASSERT_EQ(events.size(), 4u);
    EXPECT_EQ(events[0].kind, GuardEventKind::Backoff);
    EXPECT_EQ(events[0].fromAlpha, 8);
    EXPECT_EQ(events[0].toAlpha, 4);
    EXPECT_EQ(events[1].toAlpha, 2);
    EXPECT_EQ(events[2].toAlpha, 1);
    EXPECT_EQ(events[3].kind, GuardEventKind::Disable);
    EXPECT_EQ(events[3].toAlpha, 0);
    for (const GuardEvent &ev : events) {
        EXPECT_EQ(ev.conv, conv);
        EXPECT_EQ(ev.kernel, 0u);
        EXPECT_GT(ev.wilsonLower, 0.1);
    }

    // The other kernels of the block are untouched.
    EXPECT_EQ(guard.effectiveThresholds().of(conv, 1), 8);
    const GuardSnapshot snap = guard.snapshot();
    EXPECT_EQ(snap.backoffs, 3u);
    EXPECT_EQ(snap.disables, 1u);
    EXPECT_EQ(snap.degradedKernels, 1u);
}

TEST(Guard, RecoversWithHysteresisAfterRatesSubside)
{
    Network net = tinyBcnn();
    BcnnTopology topo(net);
    const NodeId conv = topo.blocks().front().conv;
    const ThresholdSet calibrated(topo, 8);
    SkipGuard guard(topo, calibrated, fastGuardOptions(0.2));

    std::size_t sample = 0;
    while (guard.effectiveThresholds().of(conv, 0) > 0) {
        ASSERT_LT(sample, 200u);
        guard.onSampleAudit(syntheticAudit(topo, sample, 20, 10));
        ++sample;
    }
    const std::size_t bad_events = guard.eventCount();

    // Clean audits: the kernel must climb back to its calibrated
    // alpha through Probe events and a final Recover.
    while (guard.effectiveThresholds().of(conv, 0) != 8) {
        ASSERT_LT(sample, 2000u) << "guard never recovered the kernel";
        guard.onSampleAudit(syntheticAudit(topo, sample, 30, 0));
        ++sample;
    }
    const std::vector<GuardEvent> recovery =
        guard.eventsSince(bad_events);
    ASSERT_FALSE(recovery.empty());
    EXPECT_EQ(recovery.back().kind, GuardEventKind::Recover);
    EXPECT_EQ(recovery.back().toAlpha, 8);
    for (std::size_t i = 0; i + 1 < recovery.size(); ++i)
        EXPECT_EQ(recovery[i].kind, GuardEventKind::Probe);
    EXPECT_EQ(guard.snapshot().degradedKernels, 0u);

    // Hysteresis: a borderline rate (just under tolerance) must not
    // oscillate the threshold back down.
    const std::size_t settled = guard.eventCount();
    for (std::size_t i = 0; i < 50; ++i) {
        guard.onSampleAudit(syntheticAudit(topo, sample, 20, 3));
        ++sample;
    }
    EXPECT_EQ(guard.eventCount(), settled);
    EXPECT_EQ(guard.effectiveThresholds().of(conv, 0), 8);
}

TEST(Guard, ZeroCalibratedKernelIsNeverManaged)
{
    Network net = tinyBcnn();
    BcnnTopology topo(net);
    const NodeId conv = topo.blocks().front().conv;
    ThresholdSet calibrated(topo, 8);
    calibrated.set(conv, 0, 0);  // prediction off at calibration time
    SkipGuard guard(topo, calibrated, fastGuardOptions(0.1));

    for (std::size_t sample = 0; sample < 100; ++sample)
        guard.onSampleAudit(syntheticAudit(topo, sample, 20, 20));
    EXPECT_EQ(guard.eventCount(), 0u);
    EXPECT_EQ(guard.effectiveThresholds().of(conv, 0), 0);
}

TEST(Guard, MergeSnapshotsIsConservative)
{
    GuardSnapshot a;
    a.tolerance = 0.1;
    a.samplesSeen = 10;
    a.backoffs = 2;
    a.auditedNeurons = 100;
    a.mispredictedNeurons = 20;
    KernelGuardStatus ka;
    ka.conv = 4;
    ka.kernel = 1;
    ka.calibratedAlpha = 8;
    ka.currentAlpha = 2;
    ka.backoffLevel = 2;
    ka.audited = 100;
    ka.mispredicted = 20;
    ka.healthy = false;
    a.kernels.push_back(ka);

    GuardSnapshot b;
    b.tolerance = 0.1;
    b.samplesSeen = 5;
    b.recoveries = 1;
    b.auditedNeurons = 60;
    KernelGuardStatus kb = ka;
    kb.currentAlpha = 8;
    kb.backoffLevel = 0;
    kb.audited = 50;
    kb.mispredicted = 0;
    kb.healthy = true;
    b.kernels.push_back(kb);
    KernelGuardStatus kc;
    kc.conv = 9;
    kc.kernel = 0;
    kc.calibratedAlpha = 4;
    kc.currentAlpha = 4;
    kc.audited = 10;
    b.kernels.push_back(kc);

    const GuardSnapshot merged = mergeGuardSnapshots({a, b});
    EXPECT_EQ(merged.samplesSeen, 15u);
    EXPECT_EQ(merged.backoffs, 2u);
    EXPECT_EQ(merged.recoveries, 1u);
    ASSERT_EQ(merged.kernels.size(), 2u);
    const KernelGuardStatus &k41 = merged.kernels[0];
    EXPECT_EQ(k41.conv, 4u);
    EXPECT_EQ(k41.audited, 150u);
    EXPECT_EQ(k41.mispredicted, 20u);
    // Most conservative replica wins the reported alpha / level.
    EXPECT_EQ(k41.currentAlpha, 2);
    EXPECT_EQ(k41.backoffLevel, 2u);
    EXPECT_FALSE(k41.healthy);
    EXPECT_NEAR(k41.mispredictRate, 20.0 / 150.0, 1e-12);
    EXPECT_EQ(merged.degradedKernels, 1u);
    EXPECT_EQ(merged.auditedNeurons, 160u);
}

TEST(GuardedRunner, RejectsBadOptionsAndShape)
{
    Network net = tinyBcnn();
    BcnnTopology topo(net);
    IndicatorSet indicators(topo);
    SkipGuard guard(topo, ThresholdSet(topo, 8),
                    fastGuardOptions(0.1));

    GuardedMcOptions bad;
    bad.samples = 0;
    Expected<GuardedMcResult> r1 = tryRunGuardedMc(
        topo, indicators, guard, randomInput(1), bad);
    ASSERT_FALSE(r1.hasValue());
    EXPECT_EQ(r1.error().code(), ErrorCode::InvalidArgument);

    Expected<GuardedMcResult> r2 = tryRunGuardedMc(
        topo, indicators, guard, Tensor(Shape({1, 4, 4})), {});
    ASSERT_FALSE(r2.hasValue());
    EXPECT_EQ(r2.error().code(), ErrorCode::InvalidArgument);
}

TEST(GuardedRunner, DriftRecoveryRegression)
{
    // The drift scenario: thresholds far more aggressive than the
    // input distribution supports (stale calibration).  The guard must
    // detect the elevated mispredict rate from the shadow audit and
    // back the offending kernels off within the run, and the MC
    // average must stay close to the exact no-skip reference.
    Network net = tinyBcnn(5);
    BcnnTopology topo(net);
    IndicatorSet indicators(topo);
    const Tensor input = randomInput(21);
    const ThresholdSet stale(topo, 6);

    GuardOptions gopts = fastGuardOptions(0.02);
    gopts.decisionInterval = 4;
    gopts.minAudited = 32;
    gopts.cooldownRounds = 2;

    GuardedMcOptions mc;
    mc.samples = 64;
    mc.seed = 17;
    mc.threads = 1;

    SkipGuard guard1(topo, stale, gopts);
    Expected<GuardedMcResult> run1 = tryRunGuardedMc(
        topo, indicators, guard1, input, mc);
    ASSERT_TRUE(run1.hasValue()) << run1.error().toString();
    const GuardedMcResult &r1 = run1.value();

    // The guard saw the drift and acted within the run.
    EXPECT_GT(r1.mispredicted, 0u);
    std::size_t backoffs = 0;
    for (const GuardEvent &ev : r1.events) {
        backoffs += ev.kind == GuardEventKind::Backoff ||
                            ev.kind == GuardEventKind::Disable
                        ? 1
                        : 0;
    }
    EXPECT_GT(backoffs, 0u) << "no backoff on a drifted workload";
    EXPECT_GT(r1.finalSnapshot.degradedKernels, 0u);

    // Backed-off thresholds are never more aggressive than the stale
    // calibration.
    const ThresholdSet backed = guard1.effectiveThresholds();
    for (const auto &[conv, alphas] : backed.all()) {
        for (std::size_t m = 0; m < alphas.size(); ++m)
            EXPECT_LE(alphas[m], stale.of(conv, m));
    }

    // MC average vs the exact no-skip reference over the same masks:
    // early mispredicted samples perturb the mean, the guarded tail
    // must keep it close.
    Tensor exact_mean;
    for (std::size_t t = 0; t < mc.samples; ++t) {
        auto brng = makeBrng(mc.brng, mc.dropRate,
                             sampleSeed(mc.seed, t));
        const MaskSet masks = sampleMasks(net, *brng);
        ReplayHooks replay(masks);
        const Tensor out = net.forward(input, &replay);
        if (t == 0)
            exact_mean = Tensor(out.shape());
        for (std::size_t i = 0; i < out.numel(); ++i)
            exact_mean.at(i) += out.at(i) /
                                static_cast<float>(mc.samples);
    }
    ASSERT_TRUE(r1.summary.mean.shape() == exact_mean.shape());
    double scale = 1e-3;
    for (std::size_t i = 0; i < exact_mean.numel(); ++i)
        scale = std::max(scale,
                         std::abs(static_cast<double>(
                             exact_mean.at(i))));
    for (std::size_t i = 0; i < exact_mean.numel(); ++i) {
        EXPECT_NEAR(r1.summary.mean.at(i), exact_mean.at(i),
                    0.15 * scale)
            << "guarded MC mean drifted from the reference at " << i;
    }

    // Bit-identity: the same run on 4 threads must match sample for
    // sample, event for event, threshold for threshold.
    SkipGuard guard4(topo, stale, gopts);
    GuardedMcOptions mc4 = mc;
    mc4.threads = 4;
    Expected<GuardedMcResult> run4 = tryRunGuardedMc(
        topo, indicators, guard4, input, mc4);
    ASSERT_TRUE(run4.hasValue()) << run4.error().toString();
    const GuardedMcResult &r4 = run4.value();

    ASSERT_EQ(r4.outputs.size(), r1.outputs.size());
    for (std::size_t t = 0; t < r1.outputs.size(); ++t) {
        ASSERT_TRUE(r4.outputs[t].shape() == r1.outputs[t].shape());
        for (std::size_t i = 0; i < r1.outputs[t].numel(); ++i)
            ASSERT_EQ(r4.outputs[t].at(i), r1.outputs[t].at(i))
                << "sample " << t << " diverged at " << i;
    }
    EXPECT_EQ(r4.audited, r1.audited);
    EXPECT_EQ(r4.mispredicted, r1.mispredicted);
    ASSERT_EQ(r4.events.size(), r1.events.size());
    for (std::size_t e = 0; e < r1.events.size(); ++e) {
        EXPECT_EQ(r4.events[e].sample, r1.events[e].sample);
        EXPECT_EQ(r4.events[e].conv, r1.events[e].conv);
        EXPECT_EQ(r4.events[e].kernel, r1.events[e].kernel);
        EXPECT_EQ(r4.events[e].kind, r1.events[e].kind);
        EXPECT_EQ(r4.events[e].toAlpha, r1.events[e].toAlpha);
    }
    const ThresholdSet final1 = guard1.effectiveThresholds();
    const ThresholdSet final4 = guard4.effectiveThresholds();
    for (const auto &[conv, alphas] : final1.all()) {
        for (std::size_t m = 0; m < alphas.size(); ++m)
            EXPECT_EQ(final4.of(conv, m), alphas[m]);
    }
}

TEST(GuardedRunner, CleanWorkloadStaysQuiet)
{
    // Thresholds tuned by Algorithm 1 on the same distribution the
    // guard then watches: the mispredict rate is inside the calibrated
    // budget, so a generous tolerance must produce zero backoffs.
    Network net = tinyBcnn(7);
    BcnnTopology topo(net);
    IndicatorSet indicators(topo);
    std::vector<Tensor> dataset;
    for (std::uint64_t s = 0; s < 4; ++s)
        dataset.push_back(randomInput(100 + s));
    OptimizerOptions oopts;
    oopts.confidence = 0.68;
    oopts.samples = 4;
    const OptimizeResult tuned =
        tryOptimizeThresholds(topo, indicators, dataset, oopts).value();

    GuardOptions gopts = fastGuardOptions(0.6);
    gopts.decisionInterval = 8;
    gopts.minAudited = 64;
    SkipGuard guard(topo, tuned.thresholds, gopts);

    GuardedMcOptions mc;
    mc.samples = 32;
    mc.seed = 3;
    Expected<GuardedMcResult> run = tryRunGuardedMc(
        topo, indicators, guard, dataset[0], mc);
    ASSERT_TRUE(run.hasValue()) << run.error().toString();
    EXPECT_TRUE(run.value().events.empty());
    EXPECT_EQ(run.value().finalSnapshot.degradedKernels, 0u);
    EXPECT_GT(run.value().audited, 0u);
}

namespace {

/**
 * The serial oracle of a guarded run — the dedicated sample loop the
 * MC runner replaced: per block of decisionInterval samples, snapshot
 * the thresholds, draw each sample's masks with sampleMasks(), run
 * predictiveForward, audit, then fold the block's audits in ascending
 * sample order.
 */
GuardedMcResult
serialGuardedReference(const BcnnTopology &topo,
                       const IndicatorSet &indicators, SkipGuard &guard,
                       const Tensor &input, const McOptions &mc)
{
    const Network &net = topo.network();
    const AuditOptions &audit = guard.options().audit;
    const std::size_t interval = guard.options().decisionInterval;
    const std::size_t eventsBefore = guard.eventCount();
    GuardedMcResult ref;
    ref.preOutput = net.forward(input, nullptr);
    const ZeroMaps zeroMaps = computeZeroMaps(topo, input);
    for (std::size_t lo = 0; lo < mc.samples; lo += interval) {
        const std::size_t hi = std::min(mc.samples, lo + interval);
        const ThresholdSet thresholds = guard.effectiveThresholds();
        std::vector<SampleAudit> audits;
        for (std::size_t t = lo; t < hi; ++t) {
            auto brng = makeBrng(mc.brng, mc.dropRate,
                                 sampleSeed(mc.seed, t));
            const MaskSet masks = sampleMasks(net, *brng);
            PredictiveOptions popts;
            popts.captureNodeOutputs = true;
            PredictiveResult pres =
                predictiveForward(topo, indicators, zeroMaps,
                                  thresholds, input, masks, popts);
            audits.push_back(auditPredictedNeurons(
                topo, input, pres.nodeOutputs, pres.predicted, audit,
                t));
            ref.predictedNeurons += pres.predictedNeurons;
            ref.outputs.push_back(std::move(pres.output));
        }
        for (const SampleAudit &a : audits) {
            ref.audited += a.audited();
            ref.mispredicted += a.mispredicted();
            guard.onSampleAudit(a);
        }
    }
    ref.summary = summarizeSamples(ref.outputs);
    ref.events = guard.eventsSince(eventsBefore);
    ref.finalSnapshot = guard.snapshot();
    return ref;
}

bool
sameBits(const Tensor &a, const Tensor &b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.data().data(), b.data().data(),
                       a.numel() * sizeof(float)) == 0;
}

/** Outputs [0, want.size()) and preOutput match bit for bit. */
void
expectSamplePrefix(const GuardedMcResult &want,
                   const GuardedMcResult &got)
{
    EXPECT_TRUE(sameBits(want.preOutput, got.preOutput));
    ASSERT_LE(want.outputs.size(), got.outputs.size());
    for (std::size_t t = 0; t < want.outputs.size(); ++t)
        EXPECT_TRUE(sameBits(want.outputs[t], got.outputs[t]))
            << "sample " << t;
}

/** Whole-run bit-identity: samples, summary, tallies, events, alphas. */
void
expectSameGuardedRun(const GuardedMcResult &want, const SkipGuard &wantG,
                     const GuardedMcResult &got, const SkipGuard &gotG)
{
    expectSamplePrefix(want, got);
    EXPECT_EQ(want.outputs.size(), got.outputs.size());
    EXPECT_TRUE(sameBits(want.summary.mean, got.summary.mean));
    EXPECT_TRUE(sameBits(want.summary.variance, got.summary.variance));
    EXPECT_EQ(want.predictedNeurons, got.predictedNeurons);
    EXPECT_EQ(want.audited, got.audited);
    EXPECT_EQ(want.mispredicted, got.mispredicted);
    ASSERT_EQ(want.events.size(), got.events.size());
    for (std::size_t e = 0; e < want.events.size(); ++e) {
        EXPECT_EQ(want.events[e].sample, got.events[e].sample);
        EXPECT_EQ(want.events[e].conv, got.events[e].conv);
        EXPECT_EQ(want.events[e].kernel, got.events[e].kernel);
        EXPECT_EQ(want.events[e].kind, got.events[e].kind);
        EXPECT_EQ(want.events[e].fromAlpha, got.events[e].fromAlpha);
        EXPECT_EQ(want.events[e].toAlpha, got.events[e].toAlpha);
    }
    EXPECT_EQ(want.finalSnapshot.samplesSeen,
              got.finalSnapshot.samplesSeen);
    EXPECT_EQ(want.finalSnapshot.degradedKernels,
              got.finalSnapshot.degradedKernels);
    const ThresholdSet a = wantG.effectiveThresholds();
    const ThresholdSet b = gotG.effectiveThresholds();
    EXPECT_EQ(a.all(), b.all());
}

/** The drift setup: stale thresholds the guard must back off. */
struct DriftCase {
    Network net = tinyBcnn(5);
    BcnnTopology topo{net};
    IndicatorSet indicators{topo};
    Tensor input = randomInput(21);
    ThresholdSet stale{topo, 6};
    GuardOptions gopts;

    explicit DriftCase(std::size_t interval)
    {
        gopts = fastGuardOptions(0.02);
        gopts.decisionInterval = interval;
        gopts.minAudited = 32;
        gopts.cooldownRounds = 2;
    }
};

/** A one-spec fault plan killing @p samples. */
FaultPlan
killPlan(std::initializer_list<std::size_t> samples)
{
    FaultPlan plan;
    for (std::size_t t : samples) {
        FaultSpec kill;
        kill.kind = FaultKind::SampleKill;
        kill.sample = t;
        plan.add(kill);
    }
    return plan;
}

} // namespace

TEST(GuardedRunner, MatchesSerialReferenceAcrossThreadsAndSimd)
{
    DriftCase c(4);
    McOptions mc;
    mc.samples = 42;  // not a multiple of the interval: a short block
    mc.seed = 9;
    mc.recordMasks = false;

    SkipGuard refGuard(c.topo, c.stale, c.gopts);
    simd::setLevel(simd::SimdLevel::Scalar);
    const GuardedMcResult ref =
        serialGuardedReference(c.topo, c.indicators, refGuard, c.input,
                               mc);
    simd::setLevel(simd::detectedLevel());
    ASSERT_FALSE(ref.events.empty()) << "the oracle should see drift";

    for (int l = 0; l < simd::kSimdLevelCount; ++l) {
        const auto level = static_cast<simd::SimdLevel>(l);
        if (!simd::levelAvailable(level))
            continue;
        simd::setLevel(level);
        for (const std::size_t threads : {1u, 4u}) {
            SCOPED_TRACE(std::string(simd::simdLevelName(level)) +
                         " x " + std::to_string(threads));
            SkipGuard guard(c.topo, c.stale, c.gopts);
            McOptions opts = mc;
            opts.threads = threads;
            Expected<GuardedMcResult> run = tryRunGuardedMc(
                c.topo, c.indicators, guard, c.input, opts);
            ASSERT_TRUE(run.hasValue()) << run.error().toString();
            expectSameGuardedRun(ref, refGuard, run.value(), guard);
            EXPECT_EQ(run.value().census.survived, mc.samples);
            EXPECT_FALSE(run.value().degraded());
        }
        simd::setLevel(simd::detectedLevel());
    }
}

TEST(GuardedRunner, SampleKillDegradesToSurvivors)
{
    DriftCase c(4);
    c.gopts.tolerance = 0.99;  // no decisions: survivors stay comparable
    McOptions mc;
    mc.samples = 12;
    mc.seed = 4;
    mc.threads = 4;
    const FaultPlan plan = killPlan({2, 7});
    McOptions faulted = mc;
    faulted.faults = &plan;

    SkipGuard clean(c.topo, c.stale, c.gopts);
    Expected<GuardedMcResult> full =
        tryRunGuardedMc(c.topo, c.indicators, clean, c.input, mc);
    ASSERT_TRUE(full.hasValue()) << full.error().toString();
    SkipGuard guard(c.topo, c.stale, c.gopts);
    Expected<GuardedMcResult> run =
        tryRunGuardedMc(c.topo, c.indicators, guard, c.input, faulted);
    ASSERT_TRUE(run.hasValue()) << run.error().toString();
    const GuardedMcResult &r = run.value();

    EXPECT_TRUE(r.degraded());
    EXPECT_EQ(r.census.requested, 12u);
    EXPECT_EQ(r.census.survived, 10u);
    ASSERT_EQ(r.census.failures.size(), 2u);
    EXPECT_EQ(r.census.failures[0].sample, 2u);
    EXPECT_EQ(r.census.failures[1].sample, 7u);
    EXPECT_EQ(r.census.failures[0].code, ErrorCode::FaultInjected);
    ASSERT_EQ(r.outputs.size(), 10u);
    ASSERT_EQ(r.sampleIndices.size(), 10u);
    for (std::size_t i = 0; i < r.outputs.size(); ++i) {
        const std::size_t t = r.sampleIndices[i];
        EXPECT_NE(t, 2u);
        EXPECT_NE(t, 7u);
        EXPECT_TRUE(sameBits(r.outputs[i], full.value().outputs[t]))
            << "survivor " << t;
    }
    // Only survivors' audits reach the guard and the tallies.
    EXPECT_EQ(r.finalSnapshot.samplesSeen, 10u);
    EXPECT_LT(r.audited, full.value().audited);
    EXPECT_LT(r.predictedNeurons, full.value().predictedNeurons);
}

TEST(GuardedRunner, UnmetQuorumFails)
{
    DriftCase c(4);
    McOptions mc;
    mc.samples = 8;
    mc.quorum = 7;
    const FaultPlan plan = killPlan({1, 5});
    mc.faults = &plan;
    SkipGuard guard(c.topo, c.stale, c.gopts);
    Expected<GuardedMcResult> run =
        tryRunGuardedMc(c.topo, c.indicators, guard, c.input, mc);
    ASSERT_FALSE(run.hasValue());
    EXPECT_EQ(run.error().code(), ErrorCode::QuorumNotMet);
}

TEST(GuardedRunner, RejectsInt8)
{
    DriftCase c(4);
    McOptions mc;
    mc.samples = 4;
    mc.precision = Precision::Int8;
    SkipGuard guard(c.topo, c.stale, c.gopts);
    Expected<GuardedMcResult> run =
        tryRunGuardedMc(c.topo, c.indicators, guard, c.input, mc);
    ASSERT_FALSE(run.hasValue());
    EXPECT_EQ(run.error().code(), ErrorCode::InvalidArgument);
    EXPECT_EQ(guard.snapshot().samplesSeen, 0u);
}

TEST(GuardedRunner, AdaptiveExitIsPrefixOfFixedRun)
{
    // Blocks of 3 against checkpoints 5, 9, 13, ...: most checkpoints
    // fall inside a block.  Every guard first folds two samples, so
    // its decisions fire on each block's first fold (t = 0, 3, 6, ...):
    // a threshold snapshot anywhere but a block start would let the
    // samples after a checkpoint see them a block early.
    DriftCase c(3);
    McOptions mc;
    mc.samples = 48;
    mc.seed = 11;
    mc.minSamples = 5;
    mc.recordMasks = false;
    const auto warmGuard = [&c]() {
        auto guard = std::make_unique<SkipGuard>(c.topo, c.stale, c.gopts);
        McOptions two;
        two.samples = 2;
        EXPECT_TRUE(tryRunGuardedMc(c.topo, c.indicators, *guard,
                                    c.input, two)
                        .hasValue());
        return guard;
    };

    const auto fixedGuard = warmGuard();
    Expected<GuardedMcResult> fixed = tryRunGuardedMc(
        c.topo, c.indicators, *fixedGuard, c.input, mc);
    ASSERT_TRUE(fixed.hasValue()) << fixed.error().toString();
    ASSERT_FALSE(fixed.value().events.empty());

    for (const std::size_t threads : {1u, 4u}) {
        SCOPED_TRACE(threads);
        // A target no run can meet: every checkpoint cuts a block,
        // none stops the run, and the run equals the fixed-T one.
        McOptions never = mc;
        never.threads = threads;
        never.targetCiWidth = 1e-12;
        const auto neverGuard = warmGuard();
        Expected<GuardedMcResult> cut = tryRunGuardedMc(
            c.topo, c.indicators, *neverGuard, c.input, never);
        ASSERT_TRUE(cut.hasValue()) << cut.error().toString();
        EXPECT_FALSE(cut.value().census.converged);
        expectSameGuardedRun(fixed.value(), *fixedGuard, cut.value(),
                             *neverGuard);

        // A target every run meets: stop at the first checkpoint,
        // mid-block, with exactly the fixed run's first five samples.
        McOptions early = never;
        early.targetCiWidth = 1e9;
        const auto earlyGuard = warmGuard();
        Expected<GuardedMcResult> stop = tryRunGuardedMc(
            c.topo, c.indicators, *earlyGuard, c.input, early);
        ASSERT_TRUE(stop.hasValue()) << stop.error().toString();
        EXPECT_TRUE(stop.value().census.converged);
        EXPECT_EQ(stop.value().census.convergedAt, 5u);
        ASSERT_EQ(stop.value().outputs.size(), 5u);
        expectSamplePrefix(stop.value(), fixed.value());
        EXPECT_EQ(earlyGuard->snapshot().samplesSeen, 7u);
    }
}

TEST(Engine, GuardWiringAndToleranceDerivation)
{
    ModelOptions mopts;
    mopts.dropRate = 0.3;
    Network net = buildLenet5(mopts);
    calibrateSparsity(net, {makeMnistLikeImage(0, 1)});

    EngineOptions eopts;
    eopts.mc.samples = 8;
    eopts.optimizer.samples = 2;
    eopts.optimizer.confidence = 0.68;
    eopts.guard.enabled = true;
    eopts.guard.audit.rate = 0.05;
    const std::unique_ptr<FastBcnnEngine> created =
        FastBcnnEngine::create(std::move(net), eopts).value();
    FastBcnnEngine &engine = *created;

    // Guard does not exist before calibration, and the guarded path
    // reports that as an error instead of aborting.
    EXPECT_EQ(engine.guard(), nullptr);
    Expected<GuardedMcResult> early =
        engine.tryGuardedMc(makeMnistLikeImage(1, 2));
    ASSERT_FALSE(early.hasValue());

    const Dataset calib = makeDataset(true, 4, 2, 42);
    std::vector<Tensor> inputs;
    for (const Example &e : calib.examples)
        inputs.push_back(e.image);
    ASSERT_TRUE(engine.tryCalibrate(inputs).isOk());

    ASSERT_NE(engine.guard(), nullptr);
    // tolerance 0 derives the calibrated budget 1 - p_cf.
    EXPECT_NEAR(engine.guard()->options().tolerance, 0.32, 1e-9);

    Expected<GuardedMcResult> run =
        engine.tryGuardedMc(makeMnistLikeImage(1, 2));
    ASSERT_TRUE(run.hasValue()) << run.error().toString();
    EXPECT_EQ(run.value().outputs.size(), 8u);
    EXPECT_GT(run.value().predictedNeurons, 0u);
}

TEST(Engine, GuardDisabledPathErrors)
{
    ModelOptions mopts;
    Network net = buildLenet5(mopts);
    calibrateSparsity(net, {makeMnistLikeImage(0, 1)});
    EngineOptions eopts;
    eopts.optimizer.samples = 2;
    const std::unique_ptr<FastBcnnEngine> created =
        FastBcnnEngine::create(std::move(net), eopts).value();
    FastBcnnEngine &engine = *created;
    const Dataset calib = makeDataset(true, 2, 2, 7);
    std::vector<Tensor> inputs;
    for (const Example &e : calib.examples)
        inputs.push_back(e.image);
    ASSERT_TRUE(engine.tryCalibrate(inputs).isOk());

    EXPECT_EQ(engine.guard(), nullptr);
    Expected<GuardedMcResult> run =
        engine.tryGuardedMc(makeMnistLikeImage(1, 2));
    ASSERT_FALSE(run.hasValue());
    EXPECT_EQ(run.error().code(), ErrorCode::InvalidArgument);
}
