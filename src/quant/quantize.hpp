/**
 * @file
 * Quantized int8 inference engine (DESIGN.md §15).
 *
 * Offline flow: run a calibration sweep over representative inputs to
 * record per-layer activation ranges (tryCalibrateActivations), then
 * build a QuantizedNetwork from the float network plus the profile.
 * Quantization is symmetric per-layer (real ≈ q * scale, zero-point
 * 0): int8 weights and activations, int32 accumulators, and a
 * per-layer round-half-up right shift folding the scale chain back
 * into int8 — the arithmetic the SimdKernels quant entries implement.
 *
 * The scale chain is pinned exactly: for every parametric layer,
 *   outScale == inScale * wScale * 2^shift   (bit-exact in float)
 * because wScale is derived from the target output scale and outScale
 * is then recomputed from the rounded wScale.  fromRecords() verifies
 * this invariant on load, so a checkpoint can never smuggle in an
 * inconsistent chain.
 *
 * Determinism: integer arithmetic is exact and associative, so int8
 * outputs are bit-identical across SIMD levels and thread counts by
 * construction (the QuantDispatch suite pins it anyway).  Non-finite
 * *runtime* inputs map deterministically (NaN → 0, ±inf → ±sat);
 * non-finite *calibration* inputs are rejected (InvalidArgument) —
 * a poisoned sweep must not silently produce scales.
 */

#ifndef FASTBCNN_QUANT_QUANTIZE_HPP
#define FASTBCNN_QUANT_QUANTIZE_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bayes/mc_runner.hpp"
#include "common/bitvolume.hpp"
#include "common/error.hpp"
#include "nn/network.hpp"
#include "nn/serialize.hpp"
#include "quant/precision.hpp"

namespace fastbcnn::quant {

/**
 * Per-layer activation ranges from an offline calibration sweep.
 * Keys of outputMaxAbs are parametric-layer (Conv2d / Linear) names.
 */
struct CalibrationProfile {
    float inputMaxAbs = 0.0f;                 ///< maxabs over inputs
    std::map<std::string, float> outputMaxAbs;///< per-layer output maxabs
    std::size_t samples = 0;                  ///< inputs swept
};

/**
 * Sweep @p calib through non-dropout forward passes of @p net and
 * record the running maxabs of every parametric layer's output.
 *
 * Errors (InvalidArgument): empty @p calib, an input whose shape does
 * not match net.inputShape(), any non-finite element in an input, or
 * a non-finite captured activation.
 */
[[nodiscard]] Expected<CalibrationProfile> tryCalibrateActivations(
    const Network &net, const std::vector<Tensor> &calib);

/**
 * Symmetric scale for a signed-int8 range: max_abs / 127.  A layer
 * whose calibration range collapsed to zero (constant-zero output —
 * e.g. a dead ReLU block) gets scale 1.0: every quantized value is 0
 * either way, and the scale stays valid (no division by zero
 * anywhere downstream).
 */
float scaleFromMaxAbs(float max_abs);

/** Quantize one float against a scale: sat8(lround(x / scale)),
 *  with NaN → 0 and ±inf → ±saturation (deterministic). */
std::int8_t quantizeValue(float x, float scale);

/**
 * One node of the quantized graph — a flattened, sequential mirror of
 * the float network's node (same id, same name) plus the quantized
 * parameters for Conv2d / Linear nodes.
 */
struct QuantNode {
    NodeId id = 0;
    LayerKind kind = LayerKind::Conv2d;
    std::string name;
    Shape inShape;   ///< input feature-map shape
    Shape outShape;  ///< output feature-map shape

    // Parametric (Conv2d / Linear) state.
    std::vector<std::int8_t> weights;
    std::vector<std::int32_t> bias;
    float wScale = 1.0f;
    float inScale = 1.0f;
    float outScale = 1.0f;
    std::int32_t shift = 0;
    bool head = false;  ///< last Linear: dequantizes to float logits

    // Conv2d / pooling geometry (zero when not applicable).
    std::size_t kernel = 0;
    std::size_t stride = 0;
    std::size_t padding = 0;

    /** For a ReLU fed by a Conv2d: the producing conv's node id
     *  (zero-map key); Network::inputNode otherwise. */
    NodeId convProducer = Network::inputNode;
};

/**
 * An int8 mirror of a sequential BCNN, runnable with the same
 * ForwardHooks as the float network (dropout masks are requested per
 * Dropout node in node order, so SamplingHooks / ReplayHooks produce
 * identical masks on both paths).
 *
 * Supported topology: single-input sequential chains of Conv2d, ReLU,
 * MaxPool2d, Dropout, Flatten and Linear, ending in a Linear head
 * optionally followed by Softmax.  Anything else (Concat, AvgPool,
 * GlobalAvgPool, LocalResponseNorm, branches) is rejected with
 * InvalidArgument at build time — the int8 engine covers the paper's
 * B-LeNet-5 / B-VGG16 family, not arbitrary graphs.
 */
class QuantizedNetwork
{
  public:
    QuantizedNetwork(QuantizedNetwork &&) = default;
    QuantizedNetwork &operator=(QuantizedNetwork &&) = default;

    /**
     * Quantize @p net against a calibration profile.
     *
     * Errors: InvalidArgument for unsupported topology, a parametric
     * layer missing from the profile, a non-finite recorded range, or
     * an int32 overflow hazard (taps * 127^2 + |bias| exceeding int32
     * — impossible for the supported zoo, checked anyway).
     */
    [[nodiscard]] static Expected<QuantizedNetwork> build(
        const Network &net, const CalibrationProfile &calib);

    /**
     * Rebuild from checkpointed quant records against the float
     * network's topology.  Validates record count and order (Mismatch),
     * name/kind/geometry agreement (Mismatch), scale sanity — finite,
     * positive, shift in [0, 30] (InvalidArgument) — and the exact
     * requant invariant outScale == inScale * wScale * 2^shift plus
     * inter-layer scale continuity (Mismatch).
     */
    [[nodiscard]] static Expected<QuantizedNetwork> fromRecords(
        const Network &net, const std::vector<QuantRecord> &records);

    /**
     * Run an int8 forward pass.  The input is quantized against the
     * calibrated input scale, every hidden layer runs in int8 through
     * the active SimdKernels table, and the head Linear dequantizes
     * its raw int32 accumulators to float logits (followed by the
     * float Softmax when present).  @p hooks supplies dropout masks
     * exactly as on the float path; activation-capture callbacks are
     * NOT invoked (there are no intermediate float tensors to report).
     */
    Tensor forward(const Tensor &input, ForwardHooks *hooks = nullptr)
        const;

    /**
     * Quantized analogue of skip's computeZeroMaps(): run the
     * non-dropout pre-inference and record, for every ReLU fed by a
     * Conv2d, which post-ReLU int8 neurons are zero — keyed by the
     * conv's NodeId, same keys and shapes as the float zero maps.
     */
    std::map<NodeId, BitVolume> computeZeroMaps(const Tensor &input)
        const;

    /** Snapshot the quantized parameters for checkpointing. */
    std::vector<QuantRecord> records() const;

    /** @return the calibrated input activation scale. */
    float inputScale() const { return inputScale_; }
    /** @return the mirrored model's name. */
    const std::string &modelName() const { return modelName_; }
    /** @return the network input shape (CHW). */
    const Shape &inputShape() const { return inputShape_; }
    /** @return the network output shape. */
    const Shape &outputShape() const { return outputShape_; }
    /** @return number of mirrored nodes. */
    std::size_t size() const { return nodes_.size(); }
    /** @return node @p i in execution order. */
    const QuantNode &node(std::size_t i) const { return nodes_[i]; }

  private:
    QuantizedNetwork() = default;

    /** Structural pass shared by build() and fromRecords(): mirrors
     *  the topology, leaving parameters/scales default. */
    [[nodiscard]] static Expected<QuantizedNetwork> fromSkeleton(
        const Network &net);

    Tensor run(const Tensor &input, ForwardHooks *hooks,
               std::map<NodeId, BitVolume> *zero_maps) const;

    std::string modelName_;
    Shape inputShape_;
    Shape outputShape_;
    float inputScale_ = 1.0f;
    std::vector<QuantNode> nodes_;
};

/**
 * @return the int8 MC target: @p qnet's forward, for
 *         tryRunMcDropoutWith() (@p qnet must outlive the target).
 */
ForwardTarget int8Target(const QuantizedNetwork &qnet);

} // namespace fastbcnn::quant

#endif // FASTBCNN_QUANT_QUANTIZE_HPP
