#include "predictive_inference.hpp"

namespace fastbcnn {

PredictiveResult
predictiveForward(const BcnnTopology &topo,
                  const IndicatorSet &indicators,
                  const ZeroMaps &zero_maps,
                  const ThresholdSet &thresholds, const Tensor &input,
                  const MaskSet &masks, const PredictiveOptions &opts)
{
    const Network &net = topo.network();
    ReplayHooks replay(masks);

    PredictiveResult result;
    std::vector<Tensor> outputs(net.size());

    for (NodeId id = 0; id < net.size(); ++id) {
        outputs[id] = net.forwardNode(id, input, outputs, &replay);

        if (net.layer(id).kind() != LayerKind::Conv2d)
            continue;
        const ConvBlock &block = topo.blockOfConv(id);
        if (block.index > opts.upToBlock)
            continue;

        // Emulate the central predictor for this block: count dropped
        // nw-inputs from the effective input mask, compare with the
        // per-kernel thresholds, AND with the zero index, then force
        // the predicted neurons to zero (the MUX in the skip engine).
        const auto &conv = static_cast<const Conv2d &>(net.layer(id));
        const BitVolume in_mask = effectiveInputMask(topo, id, masks);
        const CountVolume counts =
            countDroppedNwInputs(conv, in_mask, indicators.of(id));
        BitVolume predicted = predictUnaffected(
            zero_maps.at(id), counts, thresholds, id);

        Tensor &out = outputs[id];
        for (std::size_t i = 0; i < out.numel(); ++i) {
            if (predicted.getFlat(i))
                out.at(i) = 0.0f;
        }
        result.predictedNeurons += predicted.popcount();
        if (opts.captureConvOutputs)
            result.convOutputs.emplace(id, out);
        result.predicted.emplace(id, std::move(predicted));
    }

    result.output = outputs.back();
    if (opts.captureNodeOutputs)
        result.nodeOutputs = std::move(outputs);
    return result;
}

} // namespace fastbcnn
