/**
 * @file
 * Internal glue of the SIMD kernel layer: per-level table providers
 * (consumed by dispatch.cpp) and the shared scalar reference
 * implementations.
 *
 * The scalar kernels are inline here — not in kernels_scalar.cpp — so
 * the AVX2 translation unit can fall back to them for shapes its
 * vector paths do not cover (e.g. exotic strides, k + padding too
 * wide for single-word windows) while still being compiled under
 * the same -ffp-contract=off policy.  Falling back never changes
 * results: the scalar kernels ARE the semantics, the vector kernels
 * are bit-identical reimplementations (see simd.hpp).
 */

#ifndef FASTBCNN_SIMD_KERNELS_INTERNAL_HPP
#define FASTBCNN_SIMD_KERNELS_INTERNAL_HPP

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>

#include "common/check.hpp"
#include "simd/simd.hpp"

namespace fastbcnn::simd::detail {

/** @return the scalar reference table (always available). */
const SimdKernels &scalarTable();
/** @return the AVX2 table, or nullptr when not compiled in. */
const SimdKernels *avx2TableOrNull();

/**
 * Widest (k + padding) the single-word sliding-window formulation of
 * countKernelPlane supports: the k window bits plus up to p bits of
 * left-edge shift must fit one 64-bit extract with headroom.
 */
inline constexpr std::size_t kMaxWordWindow = 57;

/** Read bit @p pos of a packed bit array. */
FASTBCNN_HOT inline bool
bitAt(const std::uint64_t *w, std::size_t pos)
{
    return ((w[pos >> 6] >> (pos & 63)) & 1ull) != 0;
}

/**
 * Extract 64 bits starting at bit @p pos.  Requires one readable
 * guard word past the last data word (BitVolume over-allocates it).
 */
FASTBCNN_HOT inline std::uint64_t
extract64(const std::uint64_t *w, std::size_t pos)
{
    const std::size_t wi = pos >> 6;
    const std::size_t sh = pos & 63;
    const std::uint64_t lo = w[wi] >> sh;
    return sh == 0 ? lo : (lo | (w[wi + 1] << (64 - sh)));
}

// ------------------------------------------------- scalar references

/** Scalar conv forward (the historical convForwardKernel, verbatim). */
FASTBCNN_HOT inline void
scalarConvForward(const float *in_data, const float *w_data,
                  const float *bias, float *out_data,
                  std::size_t in_channels, std::size_t out_channels,
                  std::size_t in_h, std::size_t in_w, std::size_t out_h,
                  std::size_t out_w, std::size_t kernel,
                  std::size_t stride, std::size_t padding)
{
    for (std::size_t m = 0; m < out_channels; ++m) {
        float *out_plane = out_data + m * out_h * out_w;
        const float b = bias[m];
        for (std::size_t i = 0; i < out_h * out_w; ++i)
            out_plane[i] = b;
        for (std::size_t n = 0; n < in_channels; ++n) {
            const float *in_plane = in_data + n * in_h * in_w;
            const float *w_kernel =
                w_data + (m * in_channels + n) * kernel * kernel;
            for (std::size_t i = 0; i < kernel; ++i) {
                for (std::size_t j = 0; j < kernel; ++j) {
                    const float wv = w_kernel[i * kernel + j];
                    if (wv == 0.0f)
                        continue;
                    for (std::size_t r = 0; r < out_h; ++r) {
                        const std::ptrdiff_t in_r =
                            static_cast<std::ptrdiff_t>(r * stride + i)
                            - static_cast<std::ptrdiff_t>(padding);
                        if (in_r < 0 ||
                            in_r >= static_cast<std::ptrdiff_t>(in_h)) {
                            continue;
                        }
                        const float *in_row = in_plane + in_r * in_w;
                        float *out_row = out_plane + r * out_w;
                        for (std::size_t c = 0; c < out_w; ++c) {
                            const std::ptrdiff_t in_c =
                                static_cast<std::ptrdiff_t>(
                                    c * stride + j) -
                                static_cast<std::ptrdiff_t>(padding);
                            if (in_c < 0 ||
                                in_c >=
                                    static_cast<std::ptrdiff_t>(in_w)) {
                                continue;
                            }
                            out_row[c] += wv * in_row[in_c];
                        }
                    }
                }
            }
        }
    }
}

/**
 * Scalar dense forward with the lane-strided accumulation contract:
 * eight double partial sums over lanes i % 8, reduced in lane order
 * after the bias.  This IS the reference semantics all vector levels
 * reproduce (see simd.hpp).
 */
FASTBCNN_HOT inline void
scalarDenseForward(const float *w, const float *bias, const float *x,
                   float *out, std::size_t out_features,
                   std::size_t in_features)
{
    for (std::size_t o = 0; o < out_features; ++o) {
        const float *row = w + o * in_features;
        double lanes[8] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
        std::size_t i = 0;
        for (; i + 8 <= in_features; i += 8) {
            for (std::size_t l = 0; l < 8; ++l) {
                lanes[l] += static_cast<double>(row[i + l]) *
                            static_cast<double>(x[i + l]);
            }
        }
        for (; i < in_features; ++i) {
            lanes[i & 7] += static_cast<double>(row[i]) *
                            static_cast<double>(x[i]);
        }
        double acc = bias[o];
        for (std::size_t l = 0; l < 8; ++l)
            acc += lanes[l];
        out[o] = static_cast<float>(acc);
    }
}

/** Scalar windowed max-pool: acc = (acc < v) ? v : acc over taps. */
FASTBCNN_HOT inline void
scalarPoolMax(const float *in, float *out, std::size_t channels,
              std::size_t in_h, std::size_t in_w, std::size_t out_h,
              std::size_t out_w, std::size_t k, std::size_t s,
              std::size_t p, float init)
{
    for (std::size_t ch = 0; ch < channels; ++ch) {
        const float *in_plane = in + ch * in_h * in_w;
        float *out_plane = out + ch * out_h * out_w;
        for (std::size_t r = 0; r < out_h; ++r) {
            for (std::size_t c = 0; c < out_w; ++c) {
                float acc = init;
                for (std::size_t i = 0; i < k; ++i) {
                    const std::ptrdiff_t in_r =
                        static_cast<std::ptrdiff_t>(r * s + i) -
                        static_cast<std::ptrdiff_t>(p);
                    if (in_r < 0 ||
                        in_r >= static_cast<std::ptrdiff_t>(in_h)) {
                        continue;
                    }
                    for (std::size_t j = 0; j < k; ++j) {
                        const std::ptrdiff_t in_c =
                            static_cast<std::ptrdiff_t>(c * s + j) -
                            static_cast<std::ptrdiff_t>(p);
                        if (in_c < 0 ||
                            in_c >= static_cast<std::ptrdiff_t>(in_w)) {
                            continue;
                        }
                        const float v =
                            in_plane[static_cast<std::size_t>(in_r) *
                                         in_w +
                                     static_cast<std::size_t>(in_c)];
                        acc = (acc < v) ? v : acc;
                    }
                }
                out_plane[r * out_w + c] = acc;
            }
        }
    }
}

/** Scalar windowed average-pool: tap sum divided by k*k. */
FASTBCNN_HOT inline void
scalarPoolAvg(const float *in, float *out, std::size_t channels,
              std::size_t in_h, std::size_t in_w, std::size_t out_h,
              std::size_t out_w, std::size_t k, std::size_t s,
              std::size_t p)
{
    for (std::size_t ch = 0; ch < channels; ++ch) {
        const float *in_plane = in + ch * in_h * in_w;
        float *out_plane = out + ch * out_h * out_w;
        for (std::size_t r = 0; r < out_h; ++r) {
            for (std::size_t c = 0; c < out_w; ++c) {
                float acc = 0.0f;
                for (std::size_t i = 0; i < k; ++i) {
                    const std::ptrdiff_t in_r =
                        static_cast<std::ptrdiff_t>(r * s + i) -
                        static_cast<std::ptrdiff_t>(p);
                    if (in_r < 0 ||
                        in_r >= static_cast<std::ptrdiff_t>(in_h)) {
                        continue;
                    }
                    for (std::size_t j = 0; j < k; ++j) {
                        const std::ptrdiff_t in_c =
                            static_cast<std::ptrdiff_t>(c * s + j) -
                            static_cast<std::ptrdiff_t>(p);
                        if (in_c < 0 ||
                            in_c >= static_cast<std::ptrdiff_t>(in_w)) {
                            continue;
                        }
                        acc += in_plane[static_cast<std::size_t>(in_r) *
                                            in_w +
                                        static_cast<std::size_t>(in_c)];
                    }
                }
                out_plane[r * out_w + c] =
                    acc / static_cast<float>(k * k);
            }
        }
    }
}

/** Scalar ReLU: out[i] = in[i] > 0 ? in[i] : 0. */
FASTBCNN_HOT inline void
scalarRelu(const float *in, float *out, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        out[i] = in[i] > 0.0f ? in[i] : 0.0f;
}

/** Scalar whole-array popcount. */
FASTBCNN_HOT inline std::size_t
scalarPopcountWords(const std::uint64_t *w, std::size_t n)
{
    std::size_t total = 0;
    for (std::size_t i = 0; i < n; ++i)
        total += static_cast<std::size_t>(std::popcount(w[i]));
    return total;
}

/** Scalar bit-range popcount (bit-by-bit, the historical walk). */
FASTBCNN_HOT inline std::size_t
scalarPopcountBits(const std::uint64_t *w, std::size_t start_bit,
                   std::size_t n_bits)
{
    std::size_t total = 0;
    for (std::size_t i = 0; i < n_bits; ++i)
        total += bitAt(w, start_bit + i) ? 1 : 0;
    return total;
}

/** Scalar AND-popcount over word pairs. */
FASTBCNN_HOT inline std::size_t
scalarAndPopcountWords(const std::uint64_t *a, const std::uint64_t *b,
                       std::size_t n)
{
    std::size_t total = 0;
    for (std::size_t i = 0; i < n; ++i)
        total += static_cast<std::size_t>(std::popcount(a[i] & b[i]));
    return total;
}

/**
 * Scalar Eq. 5 counting (the historical countKernelPlane, bit-by-bit
 * over raw words).  @p row_scratch is unused at this level.
 */
FASTBCNN_HOT inline void
scalarCountKernelPlane(const std::uint64_t *mask_words,
                       const std::uint64_t *ind_words,
                       std::uint16_t *out, std::uint32_t *row_scratch,
                       std::size_t in_channels, std::size_t in_h,
                       std::size_t in_w, std::size_t out_h,
                       std::size_t out_w, std::size_t k, std::size_t s,
                       std::size_t p)
{
    (void)row_scratch;
    for (std::size_t r = 0; r < out_h; ++r) {
        for (std::size_t c = 0; c < out_w; ++c) {
            std::uint32_t n_d = 0;
            for (std::size_t n = 0; n < in_channels; ++n) {
                for (std::size_t i = 0; i < k; ++i) {
                    const std::ptrdiff_t in_r =
                        static_cast<std::ptrdiff_t>(r * s + i) -
                        static_cast<std::ptrdiff_t>(p);
                    if (in_r < 0 ||
                        in_r >= static_cast<std::ptrdiff_t>(in_h)) {
                        continue;
                    }
                    for (std::size_t j = 0; j < k; ++j) {
                        const std::ptrdiff_t in_c =
                            static_cast<std::ptrdiff_t>(c * s + j) -
                            static_cast<std::ptrdiff_t>(p);
                        if (in_c < 0 ||
                            in_c >=
                                static_cast<std::ptrdiff_t>(in_w)) {
                            continue;
                        }
                        const std::size_t mask_bit =
                            (n * in_h +
                             static_cast<std::size_t>(in_r)) *
                                in_w +
                            static_cast<std::size_t>(in_c);
                        const std::size_t ind_bit =
                            (n * k + i) * k + j;
                        if (bitAt(mask_words, mask_bit) &&
                            bitAt(ind_words, ind_bit)) {
                            ++n_d;
                        }
                    }
                }
            }
            out[r * out_w + c] = static_cast<std::uint16_t>(
                std::min<std::uint32_t>(n_d, 0xffffu));
        }
    }
}

// ------------------------------------ scalar int8 quant references

/** Saturate an int32 accumulator to the int8 range. */
FASTBCNN_HOT inline std::int8_t
sat8(std::int32_t v)
{
    if (v > 127)
        return 127;
    if (v < -128)
        return -128;
    return static_cast<std::int8_t>(v);
}

/**
 * The pinned requantization convention (see simd.hpp): round-half-up
 * right shift, then saturate.  shift == 0 is a plain saturation.
 * Shared by every level — integer arithmetic is exact, so there is
 * nothing level-specific to reimplement.
 */
FASTBCNN_HOT inline std::int8_t
requantSat(std::int32_t acc, std::int32_t shift)
{
    if (shift > 0)
        acc = (acc + (std::int32_t{1} << (shift - 1))) >> shift;
    return sat8(acc);
}

/**
 * Scalar quantized conv forward: int32 accumulation into @p acc
 * (out_h * out_w caller scratch) per output channel, then one
 * requantization pass.  Mirrors scalarConvForward's tap order and
 * zero-weight skip.
 */
FASTBCNN_HOT inline void
scalarQuantConvForward(const std::int8_t *in_data,
                       const std::int8_t *w_data,
                       const std::int32_t *bias, std::int8_t *out_data,
                       std::int32_t *acc, std::size_t in_channels,
                       std::size_t out_channels, std::size_t in_h,
                       std::size_t in_w, std::size_t out_h,
                       std::size_t out_w, std::size_t kernel,
                       std::size_t stride, std::size_t padding,
                       std::int32_t shift)
{
    for (std::size_t m = 0; m < out_channels; ++m) {
        const std::int32_t b = bias[m];
        for (std::size_t z = 0; z < out_h * out_w; ++z)
            acc[z] = b;
        for (std::size_t n = 0; n < in_channels; ++n) {
            const std::int8_t *in_plane = in_data + n * in_h * in_w;
            const std::int8_t *w_kernel =
                w_data + (m * in_channels + n) * kernel * kernel;
            for (std::size_t i = 0; i < kernel; ++i) {
                for (std::size_t j = 0; j < kernel; ++j) {
                    const std::int32_t wv = w_kernel[i * kernel + j];
                    if (wv == 0)
                        continue;
                    for (std::size_t r = 0; r < out_h; ++r) {
                        const std::ptrdiff_t in_r =
                            static_cast<std::ptrdiff_t>(r * stride + i)
                            - static_cast<std::ptrdiff_t>(padding);
                        if (in_r < 0 ||
                            in_r >= static_cast<std::ptrdiff_t>(in_h)) {
                            continue;
                        }
                        const std::int8_t *in_row =
                            in_plane + in_r * static_cast<std::ptrdiff_t>(
                                                  in_w);
                        std::int32_t *acc_row = acc + r * out_w;
                        for (std::size_t c = 0; c < out_w; ++c) {
                            const std::ptrdiff_t in_c =
                                static_cast<std::ptrdiff_t>(
                                    c * stride + j) -
                                static_cast<std::ptrdiff_t>(padding);
                            if (in_c < 0 ||
                                in_c >=
                                    static_cast<std::ptrdiff_t>(in_w)) {
                                continue;
                            }
                            acc_row[c] += wv * in_row[in_c];
                        }
                    }
                }
            }
        }
        std::int8_t *out_plane = out_data + m * out_h * out_w;
        for (std::size_t z = 0; z < out_h * out_w; ++z)
            out_plane[z] = requantSat(acc[z], shift);
    }
}

/** Scalar quantized dense accumulation (raw int32, no requant). */
FASTBCNN_HOT inline void
scalarQuantDenseAccum(const std::int8_t *w, const std::int32_t *bias,
                      const std::int8_t *x, std::int32_t *acc,
                      std::size_t out_features, std::size_t in_features)
{
    for (std::size_t o = 0; o < out_features; ++o) {
        const std::int8_t *row = w + o * in_features;
        std::int32_t sum = bias[o];
        for (std::size_t i = 0; i < in_features; ++i) {
            sum += static_cast<std::int32_t>(row[i]) *
                   static_cast<std::int32_t>(x[i]);
        }
        acc[o] = sum;
    }
}

/** Scalar int8 ReLU. */
FASTBCNN_HOT inline void
scalarQuantRelu(const std::int8_t *in, std::int8_t *out, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        out[i] = in[i] > 0 ? in[i] : std::int8_t{0};
}

/** Scalar int8 windowed max-pool: acc = (acc < v) ? v : acc. */
FASTBCNN_HOT inline void
scalarQuantPoolMax(const std::int8_t *in, std::int8_t *out,
                   std::size_t channels, std::size_t in_h,
                   std::size_t in_w, std::size_t out_h,
                   std::size_t out_w, std::size_t k, std::size_t s,
                   std::size_t p, std::int8_t init)
{
    for (std::size_t ch = 0; ch < channels; ++ch) {
        const std::int8_t *in_plane = in + ch * in_h * in_w;
        std::int8_t *out_plane = out + ch * out_h * out_w;
        for (std::size_t r = 0; r < out_h; ++r) {
            for (std::size_t c = 0; c < out_w; ++c) {
                std::int8_t acc = init;
                for (std::size_t i = 0; i < k; ++i) {
                    const std::ptrdiff_t in_r =
                        static_cast<std::ptrdiff_t>(r * s + i) -
                        static_cast<std::ptrdiff_t>(p);
                    if (in_r < 0 ||
                        in_r >= static_cast<std::ptrdiff_t>(in_h)) {
                        continue;
                    }
                    for (std::size_t j = 0; j < k; ++j) {
                        const std::ptrdiff_t in_c =
                            static_cast<std::ptrdiff_t>(c * s + j) -
                            static_cast<std::ptrdiff_t>(p);
                        if (in_c < 0 ||
                            in_c >= static_cast<std::ptrdiff_t>(in_w)) {
                            continue;
                        }
                        const std::int8_t v =
                            in_plane[static_cast<std::size_t>(in_r) *
                                         in_w +
                                     static_cast<std::size_t>(in_c)];
                        acc = (acc < v) ? v : acc;
                    }
                }
                out_plane[r * out_w + c] = acc;
            }
        }
    }
}

// --------------------------------------- shared word-parallel Eq. 5

/**
 * Word-parallel Eq. 5 counting: the j loop collapses into one
 * popcount(window & indicator_row) per (n, i) tap row — the xnor/
 * popcount formulation of binarized-network inference, applied to the
 * skip predictor's AND-count.
 *
 * Narrow planes (in_w <= 64, every CNN the paper evaluates) take the
 * row-resident path: one funnel shift per (n, i, input row) yields the
 * whole masked row with zeros at and past in_w, so every window along
 * it is edge-masked for free by a plain shift — the indicator row is
 * hoisted out of the row loop entirely.  Wider planes fall back to
 * per-window extraction.  Both paths accumulate into a caller-provided
 * out_h * out_w uint32 scratch plane and saturate into @p out at the
 * end.  @p kUnroll = 4 gives the unrolled 4x64-bit popcount lanes the
 * AVX2 level uses (independent popcnt chains).
 *
 * Instantiated inside each vector TU so std::popcount lowers to the
 * hardware POPCNT of that TU's -m flags.  Integer arithmetic only —
 * identical counts to scalarCountKernelPlane by construction.
 * Requires k + p <= kMaxWordWindow (callers gate and fall back).
 */
template <int kUnroll>
FASTBCNN_HOT inline void
countKernelPlaneWords(const std::uint64_t *mask_words,
                      const std::uint64_t *ind_words,
                      std::uint16_t *out, std::uint32_t *scratch,
                      std::size_t in_channels, std::size_t in_h,
                      std::size_t in_w, std::size_t out_h,
                      std::size_t out_w, std::size_t k, std::size_t s,
                      std::size_t p)
{
    const std::uint64_t kmask = (1ull << k) - 1;
    for (std::size_t z = 0; z < out_h * out_w; ++z)
        scratch[z] = 0;
    const bool narrow =
        in_w <= 64 && p <= 63 &&
        (out_w == 0 || (out_w - 1) * s <= 63 + p);
    if (narrow) {
        const std::uint64_t row_mask =
            in_w >= 64 ? ~0ull : (1ull << in_w) - 1;
        for (std::size_t n = 0; n < in_channels; ++n) {
            for (std::size_t i = 0; i < k; ++i) {
                const std::uint64_t ind =
                    extract64(ind_words, (n * k + i) * k) & kmask;
                if (ind == 0)
                    continue;
                for (std::size_t r = 0; r < out_h; ++r) {
                    const std::ptrdiff_t in_r =
                        static_cast<std::ptrdiff_t>(r * s + i) -
                        static_cast<std::ptrdiff_t>(p);
                    if (in_r < 0 ||
                        in_r >= static_cast<std::ptrdiff_t>(in_h)) {
                        continue;
                    }
                    const std::uint64_t mrow =
                        extract64(
                            mask_words,
                            (n * in_h +
                             static_cast<std::size_t>(in_r)) *
                                in_w) &
                        row_mask;
                    if (mrow == 0)
                        continue;
                    std::uint32_t *srow = scratch + r * out_w;
                    const auto windowCount =
                        [&](std::size_t c0) -> std::uint32_t {
                        const std::ptrdiff_t base =
                            static_cast<std::ptrdiff_t>(c0 * s) -
                            static_cast<std::ptrdiff_t>(p);
                        const std::uint64_t win =
                            base < 0 ? mrow << (-base) : mrow >> base;
                        return static_cast<std::uint32_t>(
                            std::popcount(win & ind));
                    };
                    std::size_t c = 0;
                    if constexpr (kUnroll == 4) {
                        for (; c + 4 <= out_w; c += 4) {
                            const std::uint32_t p0 = windowCount(c);
                            const std::uint32_t p1 = windowCount(c + 1);
                            const std::uint32_t p2 = windowCount(c + 2);
                            const std::uint32_t p3 = windowCount(c + 3);
                            srow[c] += p0;
                            srow[c + 1] += p1;
                            srow[c + 2] += p2;
                            srow[c + 3] += p3;
                        }
                    }
                    for (; c < out_w; ++c)
                        srow[c] += windowCount(c);
                }
            }
        }
    } else {
        for (std::size_t r = 0; r < out_h; ++r) {
            std::uint32_t *srow = scratch + r * out_w;
            for (std::size_t n = 0; n < in_channels; ++n) {
                for (std::size_t i = 0; i < k; ++i) {
                    const std::ptrdiff_t in_r =
                        static_cast<std::ptrdiff_t>(r * s + i) -
                        static_cast<std::ptrdiff_t>(p);
                    if (in_r < 0 ||
                        in_r >= static_cast<std::ptrdiff_t>(in_h)) {
                        continue;
                    }
                    const std::uint64_t ind =
                        extract64(ind_words, (n * k + i) * k) & kmask;
                    if (ind == 0)
                        continue;
                    const std::size_t row_bit =
                        (n * in_h + static_cast<std::size_t>(in_r)) *
                        in_w;
                    const auto windowCount =
                        [&](std::size_t c0) -> std::uint32_t {
                        const std::ptrdiff_t base =
                            static_cast<std::ptrdiff_t>(c0 * s) -
                            static_cast<std::ptrdiff_t>(p);
                        std::uint64_t win;
                        if (base < 0) {
                            win = extract64(mask_words, row_bit)
                                  << (-base);
                        } else {
                            win = extract64(
                                mask_words,
                                row_bit +
                                    static_cast<std::size_t>(base));
                        }
                        const std::ptrdiff_t valid_bits =
                            static_cast<std::ptrdiff_t>(in_w) - base;
                        std::uint64_t valid = kmask;
                        if (valid_bits <= 0)
                            valid = 0;
                        else if (valid_bits <
                                 static_cast<std::ptrdiff_t>(k))
                            valid &= (1ull << valid_bits) - 1;
                        return static_cast<std::uint32_t>(
                            std::popcount(win & ind & valid));
                    };
                    std::size_t c = 0;
                    if constexpr (kUnroll == 4) {
                        for (; c + 4 <= out_w; c += 4) {
                            const std::uint32_t p0 = windowCount(c);
                            const std::uint32_t p1 = windowCount(c + 1);
                            const std::uint32_t p2 = windowCount(c + 2);
                            const std::uint32_t p3 = windowCount(c + 3);
                            srow[c] += p0;
                            srow[c + 1] += p1;
                            srow[c + 2] += p2;
                            srow[c + 3] += p3;
                        }
                    }
                    for (; c < out_w; ++c)
                        srow[c] += windowCount(c);
                }
            }
        }
    }
    for (std::size_t z = 0; z < out_h * out_w; ++z) {
        out[z] = static_cast<std::uint16_t>(
            std::min<std::uint32_t>(scratch[z], 0xffffu));
    }
}

/** Word-at-a-time bit-range popcount (masked first/last words). */
FASTBCNN_HOT inline std::size_t
popcountBitsWords(const std::uint64_t *w, std::size_t start_bit,
                  std::size_t n_bits)
{
    if (n_bits == 0)
        return 0;
    const std::size_t end_bit = start_bit + n_bits;
    const std::size_t first = start_bit >> 6;
    const std::size_t last = (end_bit - 1) >> 6;
    const std::size_t lo_sh = start_bit & 63;
    const std::size_t hi_used = ((end_bit - 1) & 63) + 1;
    const std::uint64_t lo_mask = ~0ull << lo_sh;
    const std::uint64_t hi_mask =
        hi_used == 64 ? ~0ull : ((1ull << hi_used) - 1);
    if (first == last) {
        return static_cast<std::size_t>(
            std::popcount(w[first] & lo_mask & hi_mask));
    }
    std::size_t total =
        static_cast<std::size_t>(std::popcount(w[first] & lo_mask));
    for (std::size_t i = first + 1; i < last; ++i)
        total += static_cast<std::size_t>(std::popcount(w[i]));
    total += static_cast<std::size_t>(std::popcount(w[last] & hi_mask));
    return total;
}

/** Unrolled 4x64-bit whole-array popcount. */
FASTBCNN_HOT inline std::size_t
popcountWords4(const std::uint64_t *w, std::size_t n)
{
    std::size_t t0 = 0, t1 = 0, t2 = 0, t3 = 0;
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        t0 += static_cast<std::size_t>(std::popcount(w[i]));
        t1 += static_cast<std::size_t>(std::popcount(w[i + 1]));
        t2 += static_cast<std::size_t>(std::popcount(w[i + 2]));
        t3 += static_cast<std::size_t>(std::popcount(w[i + 3]));
    }
    for (; i < n; ++i)
        t0 += static_cast<std::size_t>(std::popcount(w[i]));
    return t0 + t1 + t2 + t3;
}

/** Unrolled 4x64-bit AND-popcount over word pairs. */
FASTBCNN_HOT inline std::size_t
andPopcountWords4(const std::uint64_t *a, const std::uint64_t *b,
                  std::size_t n)
{
    std::size_t t0 = 0, t1 = 0, t2 = 0, t3 = 0;
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        t0 += static_cast<std::size_t>(std::popcount(a[i] & b[i]));
        t1 += static_cast<std::size_t>(
            std::popcount(a[i + 1] & b[i + 1]));
        t2 += static_cast<std::size_t>(
            std::popcount(a[i + 2] & b[i + 2]));
        t3 += static_cast<std::size_t>(
            std::popcount(a[i + 3] & b[i + 3]));
    }
    for (; i < n; ++i)
        t0 += static_cast<std::size_t>(std::popcount(a[i] & b[i]));
    return t0 + t1 + t2 + t3;
}

} // namespace fastbcnn::simd::detail

#endif // FASTBCNN_SIMD_KERNELS_INTERNAL_HPP
