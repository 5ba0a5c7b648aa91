#include "guarded_mc.hpp"

namespace fastbcnn {

namespace {

/**
 * One guarded run: the prediction-mode forward and the guard's block
 * observer.  Sample lanes only read the zero maps and block thresholds
 * and write their own slot; the runner calls the observer methods on
 * its own thread between stretches.
 */
struct GuardedRun final : McRunObserver {
    /** One sample's side results, filled by its lane. */
    struct Slot {
        SampleAudit audit;
        std::uint64_t predictedNeurons = 0;
    };

    GuardedRun(const BcnnTopology &t, const IndicatorSet &ind,
               SkipGuard &g, std::size_t samples)
        : topo(t), indicators(ind), guard(g), slots(samples)
    {}
    // The target's forward holds a pointer to this object.
    GuardedRun(const GuardedRun &) = delete;
    GuardedRun &operator=(const GuardedRun &) = delete;

    std::size_t blockSize() const override
    {
        return guard.options().decisionInterval;
    }

    void onBlockStart(std::size_t) override
    {
        // Frozen for the whole block: every sample in it sees the same
        // alphas no matter which lane runs it.
        thresholds = guard.effectiveThresholds();
    }

    void onSampleSurvived(std::size_t t) override
    {
        result.predictedNeurons += slots[t].predictedNeurons;
        result.audited += slots[t].audit.audited();
        result.mispredicted += slots[t].audit.mispredicted();
        guard.onSampleAudit(slots[t].audit);
    }

    Tensor forward(const Tensor &input, ForwardHooks *hooks,
                   std::size_t t)
    {
        if (t == kPreInference) {
            // The one dense pass yields both the pre-inference output
            // and the zero maps every sample's predictor reads.
            Tensor output;
            zeroMaps = computeZeroMaps(topo, input, &output);
            return output;
        }
        // Pull the sample's masks through the runner's hooks in node
        // order: the bit stream sampleMasks() draws, plus any injected
        // mask or BRNG faults.
        const Network &net = topo.network();
        MaskSet masks;
        for (NodeId id = 0; id < net.size(); ++id) {
            const Layer &layer = net.layer(id);
            if (layer.kind() != LayerKind::Dropout)
                continue;
            if (const BitVolume *mask =
                    hooks->dropoutMask(layer.name(), net.shapeOf(id)))
                masks.emplace(layer.name(), *mask);
        }
        const AuditOptions &audit = guard.options().audit;
        PredictiveOptions popts;
        popts.captureNodeOutputs = audit.rate > 0.0;
        PredictiveResult pres = predictiveForward(
            topo, indicators, zeroMaps, thresholds, input, masks, popts);
        Slot &slot = slots[t];
        slot.predictedNeurons = pres.predictedNeurons;
        if (audit.rate > 0.0) {
            slot.audit = auditPredictedNeurons(
                topo, input, pres.nodeOutputs, pres.predicted, audit, t);
        } else {
            slot.audit.sample = t;
        }
        return std::move(pres.output);
    }

    const BcnnTopology &topo;
    const IndicatorSet &indicators;
    SkipGuard &guard;
    ZeroMaps zeroMaps;
    ThresholdSet thresholds;
    std::vector<Slot> slots;
    GuardedMcResult result;  ///< skip tallies of the survivors so far
};

} // namespace

Expected<GuardedMcResult>
tryRunGuardedMc(const BcnnTopology &topo, const IndicatorSet &indicators,
                SkipGuard &guard, const Tensor &input,
                const GuardedMcOptions &opts)
{
    if (opts.precision != Precision::Float32) {
        return errorf(ErrorCode::InvalidArgument,
                      "guarded skip inference is float-only; "
                      "precision %s is not supported",
                      precisionName(opts.precision));
    }
    GuardedRun run(topo, indicators, guard, opts.samples);
    ForwardTarget target;
    target.forward = [&run](const Tensor &in, ForwardHooks *hooks,
                            std::size_t t) {
        return run.forward(in, hooks, t);
    };
    target.name = topo.network().name();
    target.inputShape = topo.network().inputShape();

    const std::size_t eventsBefore = guard.eventCount();
    Expected<McResult> mc = tryRunMcDropoutWith(target, input, opts, &run);
    if (!mc.hasValue())
        return std::move(mc).takeError();
    static_cast<McResult &>(run.result) = std::move(mc).value();
    run.result.events = guard.eventsSince(eventsBefore);
    run.result.finalSnapshot = guard.snapshot();
    return std::move(run.result);
}

} // namespace fastbcnn
