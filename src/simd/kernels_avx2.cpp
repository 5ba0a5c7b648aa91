/**
 * @file
 * AVX2 dispatch table: 8-wide float kernels with 4-wide/scalar tails
 * and the unrolled 4x64-bit popcount lanes for the bit side.
 * Compiled with -mavx2 -mpopcnt -ffp-contract=off and only when
 * FASTBCNN_SIMD_BUILD_AVX2 is defined (x86 targets with the
 * FASTBCNN_SIMD_AVX2 CMake option on).
 *
 * Bit-identity notes (full contract in simd.hpp): vectorize across
 * output columns only, scalar tap order per output element, separate
 * mul + add (never fmadd, which would double-round differently),
 * cmp + blendv max semantics, cmp + and ReLU semantics, lane-strided
 * dense doubles (two __m256d registers = the 8 scalar lanes).  Conv
 * column tails narrow to 4-wide SSE and then scalar — same
 * per-element mul + add either way.
 */

#include "simd/kernels_internal.hpp"

#if defined(FASTBCNN_SIMD_BUILD_AVX2)

#include <immintrin.h>

namespace fastbcnn::simd::detail {
namespace {

/** Valid output-column range [c0, c1) for tap offset d = j - p at
 *  stride 1: keeps c + d inside [0, in_w). */
inline void
validRangeS1(std::ptrdiff_t d, std::size_t out_w, std::size_t in_w,
             std::size_t &c0, std::size_t &c1)
{
    c0 = d < 0 ? static_cast<std::size_t>(-d) : 0;
    const std::ptrdiff_t hi = static_cast<std::ptrdiff_t>(in_w) - d;
    c1 = hi <= 0 ? 0
                 : std::min(out_w, static_cast<std::size_t>(hi));
    if (c0 > c1)
        c0 = c1;
}

/** Valid output-column range [c0, c1) for tap offset d at stride 2:
 *  keeps 2c + d inside [0, in_w). */
inline void
validRangeS2(std::ptrdiff_t d, std::size_t out_w, std::size_t in_w,
             std::size_t &c0, std::size_t &c1)
{
    c0 = d < 0 ? static_cast<std::size_t>((-d) + 1) / 2 : 0;
    const std::ptrdiff_t hi =
        static_cast<std::ptrdiff_t>(in_w) - 1 - d;
    c1 = hi < 0 ? 0
                : std::min(out_w,
                           static_cast<std::size_t>(hi) / 2 + 1);
    if (c0 > c1)
        c0 = c1;
}

/** [in[b], in[b+2], ..., in[b+14]] — stride-2 gather of 8 floats.
 *  Reads 16 floats starting at @p b (caller guarantees in-range). */
FASTBCNN_HOT inline __m256
loadEven8(const float *in, std::size_t b)
{
    const __m256 a = _mm256_loadu_ps(in + b);
    const __m256 c = _mm256_loadu_ps(in + b + 8);
    const __m256 sh = _mm256_shuffle_ps(a, c, _MM_SHUFFLE(2, 0, 2, 0));
    const __m256d perm = _mm256_permute4x64_pd(_mm256_castps_pd(sh),
                                               _MM_SHUFFLE(3, 1, 2, 0));
    return _mm256_castpd_ps(perm);
}

FASTBCNN_HOT void
avx2ConvForward(const float *in_data, const float *w_data,
                const float *bias, float *out_data,
                std::size_t in_channels, std::size_t out_channels,
                std::size_t in_h, std::size_t in_w, std::size_t out_h,
                std::size_t out_w, std::size_t kernel,
                std::size_t stride, std::size_t padding)
{
    if (stride != 1) {
        scalarConvForward(in_data, w_data, bias, out_data, in_channels,
                          out_channels, in_h, in_w, out_h, out_w,
                          kernel, stride, padding);
        return;
    }
    for (std::size_t m = 0; m < out_channels; ++m) {
        float *out_plane = out_data + m * out_h * out_w;
        const float b = bias[m];
        const __m256 b8 = _mm256_set1_ps(b);
        std::size_t z = 0;
        for (; z + 8 <= out_h * out_w; z += 8)
            _mm256_storeu_ps(out_plane + z, b8);
        for (; z < out_h * out_w; ++z)
            out_plane[z] = b;
        for (std::size_t n = 0; n < in_channels; ++n) {
            const float *in_plane = in_data + n * in_h * in_w;
            const float *w_kernel =
                w_data + (m * in_channels + n) * kernel * kernel;
            for (std::size_t i = 0; i < kernel; ++i) {
                for (std::size_t j = 0; j < kernel; ++j) {
                    const float wv = w_kernel[i * kernel + j];
                    if (wv == 0.0f)
                        continue;
                    const std::ptrdiff_t d =
                        static_cast<std::ptrdiff_t>(j) -
                        static_cast<std::ptrdiff_t>(padding);
                    std::size_t c0, c1;
                    validRangeS1(d, out_w, in_w, c0, c1);
                    const __m256 wv8 = _mm256_set1_ps(wv);
                    const __m128 wv4 = _mm_set1_ps(wv);
                    for (std::size_t r = 0; r < out_h; ++r) {
                        const std::ptrdiff_t in_r =
                            static_cast<std::ptrdiff_t>(r + i) -
                            static_cast<std::ptrdiff_t>(padding);
                        if (in_r < 0 ||
                            in_r >= static_cast<std::ptrdiff_t>(in_h)) {
                            continue;
                        }
                        const float *in_row = in_plane + in_r * in_w;
                        float *out_row = out_plane + r * out_w;
                        std::size_t c = c0;
                        for (; c + 8 <= c1; c += 8) {
                            const __m256 v = _mm256_loadu_ps(
                                in_row +
                                (static_cast<std::ptrdiff_t>(c) + d));
                            const __m256 o =
                                _mm256_loadu_ps(out_row + c);
                            _mm256_storeu_ps(
                                out_row + c,
                                _mm256_add_ps(o,
                                              _mm256_mul_ps(wv8, v)));
                        }
                        // Tails narrow to 4-wide + scalar: masked
                        // 256-bit load/store is microcoded on common
                        // server cores, and narrow late-layer planes
                        // (out_w = 4, 2) are all tail.
                        for (; c + 4 <= c1; c += 4) {
                            const __m128 v = _mm_loadu_ps(
                                in_row +
                                (static_cast<std::ptrdiff_t>(c) + d));
                            const __m128 o = _mm_loadu_ps(out_row + c);
                            _mm_storeu_ps(
                                out_row + c,
                                _mm_add_ps(o, _mm_mul_ps(wv4, v)));
                        }
                        for (; c < c1; ++c) {
                            out_row[c] +=
                                wv *
                                in_row[static_cast<std::ptrdiff_t>(c) +
                                       d];
                        }
                    }
                }
            }
        }
    }
}

FASTBCNN_HOT void
avx2DenseForward(const float *w, const float *bias, const float *x,
                 float *out, std::size_t out_features,
                 std::size_t in_features)
{
    for (std::size_t o = 0; o < out_features; ++o) {
        const float *row = w + o * in_features;
        __m256d lo = _mm256_setzero_pd();
        __m256d hi = _mm256_setzero_pd();
        std::size_t i = 0;
        for (; i + 8 <= in_features; i += 8) {
            const __m128 r0 = _mm_loadu_ps(row + i);
            const __m128 r1 = _mm_loadu_ps(row + i + 4);
            const __m128 x0 = _mm_loadu_ps(x + i);
            const __m128 x1 = _mm_loadu_ps(x + i + 4);
            lo = _mm256_add_pd(lo,
                               _mm256_mul_pd(_mm256_cvtps_pd(r0),
                                             _mm256_cvtps_pd(x0)));
            hi = _mm256_add_pd(hi,
                               _mm256_mul_pd(_mm256_cvtps_pd(r1),
                                             _mm256_cvtps_pd(x1)));
        }
        double lanes[8];
        _mm256_storeu_pd(lanes + 0, lo);
        _mm256_storeu_pd(lanes + 4, hi);
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

FASTBCNN_HOT void
avx2PoolMax(const float *in, float *out, std::size_t channels,
            std::size_t in_h, std::size_t in_w, std::size_t out_h,
            std::size_t out_w, std::size_t k, std::size_t s,
            std::size_t p, float init)
{
    if (s > 2) {
        scalarPoolMax(in, out, channels, in_h, in_w, out_h, out_w, k,
                      s, p, init);
        return;
    }
    const __m256 init8 = _mm256_set1_ps(init);
    for (std::size_t ch = 0; ch < channels; ++ch) {
        const float *in_plane = in + ch * in_h * in_w;
        float *out_plane = out + ch * out_h * out_w;
        std::size_t z = 0;
        for (; z + 8 <= out_h * out_w; z += 8)
            _mm256_storeu_ps(out_plane + z, init8);
        for (; z < out_h * out_w; ++z)
            out_plane[z] = init;
        for (std::size_t r = 0; r < out_h; ++r) {
            float *out_row = out_plane + r * out_w;
            for (std::size_t i = 0; i < k; ++i) {
                const std::ptrdiff_t in_r =
                    static_cast<std::ptrdiff_t>(r * s + i) -
                    static_cast<std::ptrdiff_t>(p);
                if (in_r < 0 ||
                    in_r >= static_cast<std::ptrdiff_t>(in_h)) {
                    continue;
                }
                const float *in_row = in_plane + in_r * in_w;
                for (std::size_t j = 0; j < k; ++j) {
                    const std::ptrdiff_t d =
                        static_cast<std::ptrdiff_t>(j) -
                        static_cast<std::ptrdiff_t>(p);
                    std::size_t c0, c1;
                    std::size_t c;
                    if (s == 1) {
                        validRangeS1(d, out_w, in_w, c0, c1);
                        c = c0;
                        for (; c + 8 <= c1; c += 8) {
                            const __m256 v = _mm256_loadu_ps(
                                in_row +
                                (static_cast<std::ptrdiff_t>(c) + d));
                            const __m256 acc =
                                _mm256_loadu_ps(out_row + c);
                            const __m256 lt =
                                _mm256_cmp_ps(acc, v, _CMP_LT_OQ);
                            _mm256_storeu_ps(
                                out_row + c,
                                _mm256_blendv_ps(acc, v, lt));
                        }
                    } else {
                        validRangeS2(d, out_w, in_w, c0, c1);
                        c = c0;
                        for (; c + 8 <= c1 &&
                               static_cast<std::ptrdiff_t>(2 * c + 16) +
                                       d <=
                                   static_cast<std::ptrdiff_t>(in_w);
                             c += 8) {
                            const __m256 v = loadEven8(
                                in_row, static_cast<std::size_t>(
                                            static_cast<std::ptrdiff_t>(
                                                2 * c) +
                                            d));
                            const __m256 acc =
                                _mm256_loadu_ps(out_row + c);
                            const __m256 lt =
                                _mm256_cmp_ps(acc, v, _CMP_LT_OQ);
                            _mm256_storeu_ps(
                                out_row + c,
                                _mm256_blendv_ps(acc, v, lt));
                        }
                    }
                    for (; c < c1; ++c) {
                        const float v =
                            in_row[static_cast<std::ptrdiff_t>(c * s) +
                                   d];
                        const float acc = out_row[c];
                        out_row[c] = (acc < v) ? v : acc;
                    }
                }
            }
        }
    }
}

FASTBCNN_HOT void
avx2PoolAvg(const float *in, float *out, std::size_t channels,
            std::size_t in_h, std::size_t in_w, std::size_t out_h,
            std::size_t out_w, std::size_t k, std::size_t s,
            std::size_t p)
{
    if (s > 2) {
        scalarPoolAvg(in, out, channels, in_h, in_w, out_h, out_w, k,
                      s, p);
        return;
    }
    const __m256 zero8 = _mm256_setzero_ps();
    const __m256 denom8 = _mm256_set1_ps(static_cast<float>(k * k));
    for (std::size_t ch = 0; ch < channels; ++ch) {
        const float *in_plane = in + ch * in_h * in_w;
        float *out_plane = out + ch * out_h * out_w;
        std::size_t z = 0;
        for (; z + 8 <= out_h * out_w; z += 8)
            _mm256_storeu_ps(out_plane + z, zero8);
        for (; z < out_h * out_w; ++z)
            out_plane[z] = 0.0f;
        for (std::size_t r = 0; r < out_h; ++r) {
            float *out_row = out_plane + r * out_w;
            for (std::size_t i = 0; i < k; ++i) {
                const std::ptrdiff_t in_r =
                    static_cast<std::ptrdiff_t>(r * s + i) -
                    static_cast<std::ptrdiff_t>(p);
                if (in_r < 0 ||
                    in_r >= static_cast<std::ptrdiff_t>(in_h)) {
                    continue;
                }
                const float *in_row = in_plane + in_r * in_w;
                for (std::size_t j = 0; j < k; ++j) {
                    const std::ptrdiff_t d =
                        static_cast<std::ptrdiff_t>(j) -
                        static_cast<std::ptrdiff_t>(p);
                    std::size_t c0, c1;
                    std::size_t c;
                    if (s == 1) {
                        validRangeS1(d, out_w, in_w, c0, c1);
                        c = c0;
                        for (; c + 8 <= c1; c += 8) {
                            const __m256 v = _mm256_loadu_ps(
                                in_row +
                                (static_cast<std::ptrdiff_t>(c) + d));
                            const __m256 acc =
                                _mm256_loadu_ps(out_row + c);
                            _mm256_storeu_ps(out_row + c,
                                             _mm256_add_ps(acc, v));
                        }
                    } else {
                        validRangeS2(d, out_w, in_w, c0, c1);
                        c = c0;
                        for (; c + 8 <= c1 &&
                               static_cast<std::ptrdiff_t>(2 * c + 16) +
                                       d <=
                                   static_cast<std::ptrdiff_t>(in_w);
                             c += 8) {
                            const __m256 v = loadEven8(
                                in_row, static_cast<std::size_t>(
                                            static_cast<std::ptrdiff_t>(
                                                2 * c) +
                                            d));
                            const __m256 acc =
                                _mm256_loadu_ps(out_row + c);
                            _mm256_storeu_ps(out_row + c,
                                             _mm256_add_ps(acc, v));
                        }
                    }
                    for (; c < c1; ++c) {
                        out_row[c] +=
                            in_row[static_cast<std::ptrdiff_t>(c * s) +
                                   d];
                    }
                }
            }
        }
        z = 0;
        for (; z + 8 <= out_h * out_w; z += 8) {
            _mm256_storeu_ps(
                out_plane + z,
                _mm256_div_ps(_mm256_loadu_ps(out_plane + z), denom8));
        }
        for (; z < out_h * out_w; ++z)
            out_plane[z] /= static_cast<float>(k * k);
    }
}

FASTBCNN_HOT void
avx2Relu(const float *in, float *out, std::size_t n)
{
    const __m256 zero8 = _mm256_setzero_ps();
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256 v = _mm256_loadu_ps(in + i);
        const __m256 gt = _mm256_cmp_ps(v, zero8, _CMP_GT_OQ);
        _mm256_storeu_ps(out + i, _mm256_and_ps(v, gt));
    }
    for (; i < n; ++i)
        out[i] = in[i] > 0.0f ? in[i] : 0.0f;
}

FASTBCNN_HOT std::size_t
avx2PopcountWords(const std::uint64_t *w, std::size_t n)
{
    return popcountWords4(w, n);
}

FASTBCNN_HOT std::size_t
avx2PopcountBits(const std::uint64_t *w, std::size_t start_bit,
                 std::size_t n_bits)
{
    return popcountBitsWords(w, start_bit, n_bits);
}

FASTBCNN_HOT std::size_t
avx2AndPopcountWords(const std::uint64_t *a, const std::uint64_t *b,
                     std::size_t n)
{
    return andPopcountWords4(a, b, n);
}

FASTBCNN_HOT void
avx2CountKernelPlane(const std::uint64_t *mask_words,
                     const std::uint64_t *ind_words, std::uint16_t *out,
                     std::uint32_t *row_scratch,
                     std::size_t in_channels, std::size_t in_h,
                     std::size_t in_w, std::size_t out_h,
                     std::size_t out_w, std::size_t k, std::size_t s,
                     std::size_t p)
{
    if (k + p > kMaxWordWindow) {
        scalarCountKernelPlane(mask_words, ind_words, out, row_scratch,
                               in_channels, in_h, in_w, out_h, out_w,
                               k, s, p);
        return;
    }
    countKernelPlaneWords<4>(mask_words, ind_words, out, row_scratch,
                             in_channels, in_h, in_w, out_h, out_w, k,
                             s, p);
}

/*
 * int8 quant kernels.  Integer arithmetic is exact (simd.hpp), so
 * these may vectorize across reductions freely; only saturation and
 * the requantSat convention are pinned, both shared from
 * kernels_internal.hpp.
 */

/** Pack an (i16, i16) weight pair into the i32 operand of madd_epi16:
 *  low word multiplies the even (channel n) lanes, high word the odd
 *  (channel n+1) lanes of the interleaved activation vector. */
FASTBCNN_HOT inline std::int32_t
packWeightPair(std::int32_t w0, std::int32_t w1)
{
    return static_cast<std::int32_t>(
        (static_cast<std::uint32_t>(w0) & 0xffffu) |
        (static_cast<std::uint32_t>(w1) << 16));
}

/*
 * Register-resident int8 conv: one 16- or 8-column output block stays
 * in accumulator registers across the whole (n, i, j) tap loop, and
 * input channels are consumed in PAIRS so each madd_epi16 retires two
 * MACs per i32 lane — double the ALU density of the float path.
 * Products |w*x| <= 16129 fit i16, so the madd pair-sum is exact; the
 * per-lane summation order differs from scalar but integer addition is
 * associative, so the result is bit-identical (simd.hpp).
 *
 * Requires stride 1 and padding 0 (callers pre-pad activations into
 * the conv input, which also makes every block load in-range:
 * c0 + 15 + j <= out_w - 1 + kernel - 1 = in_w - 1).  Everything else
 * falls back to the scalar reference.
 */

/** 16-column block: cols [c0, c0+16) of output row r, channel m. */
FASTBCNN_HOT inline void
avx2QuantConvBlock16(const std::int8_t *in_data,
                     const std::int8_t *w_base, std::int32_t b,
                     std::int8_t *out_row, std::size_t c0,
                     std::size_t r, std::size_t in_channels,
                     std::size_t in_h, std::size_t in_w, std::size_t k,
                     std::int32_t shift)
{
    // A = cols (0..3, 8..11), B = cols (4..7, 12..15) of the block —
    // the natural unpacklo/unpackhi + madd lane layout.
    __m256i acc_a = _mm256_set1_epi32(b);
    __m256i acc_b = _mm256_set1_epi32(b);
    std::size_t n = 0;
    for (; n + 2 <= in_channels; n += 2) {
        const std::int8_t *p0 = in_data + n * in_h * in_w;
        const std::int8_t *p1 = p0 + in_h * in_w;
        const std::int8_t *wk0 = w_base + n * k * k;
        const std::int8_t *wk1 = wk0 + k * k;
        for (std::size_t i = 0; i < k; ++i) {
            const std::size_t row = (r + i) * in_w + c0;
            for (std::size_t j = 0; j < k; ++j) {
                const std::int32_t w0 = wk0[i * k + j];
                const std::int32_t w1 = wk1[i * k + j];
                if ((w0 | w1) == 0)
                    continue;
                const __m256i wp =
                    _mm256_set1_epi32(packWeightPair(w0, w1));
                const __m256i a16 =
                    _mm256_cvtepi8_epi16(_mm_loadu_si128(
                        reinterpret_cast<const __m128i *>(p0 + row +
                                                          j)));
                const __m256i b16 =
                    _mm256_cvtepi8_epi16(_mm_loadu_si128(
                        reinterpret_cast<const __m128i *>(p1 + row +
                                                          j)));
                acc_a = _mm256_add_epi32(
                    acc_a,
                    _mm256_madd_epi16(_mm256_unpacklo_epi16(a16, b16),
                                      wp));
                acc_b = _mm256_add_epi32(
                    acc_b,
                    _mm256_madd_epi16(_mm256_unpackhi_epi16(a16, b16),
                                      wp));
            }
        }
    }
    if (n < in_channels) {
        const std::int8_t *p0 = in_data + n * in_h * in_w;
        const std::int8_t *wk0 = w_base + n * k * k;
        for (std::size_t i = 0; i < k; ++i) {
            const std::size_t row = (r + i) * in_w + c0;
            for (std::size_t j = 0; j < k; ++j) {
                const std::int32_t w0 = wk0[i * k + j];
                if (w0 == 0)
                    continue;
                const __m256i wp =
                    _mm256_set1_epi32(packWeightPair(w0, 0));
                const __m256i a16 =
                    _mm256_cvtepi8_epi16(_mm_loadu_si128(
                        reinterpret_cast<const __m128i *>(p0 + row +
                                                          j)));
                acc_a = _mm256_add_epi32(
                    acc_a,
                    _mm256_madd_epi16(_mm256_unpacklo_epi16(a16, a16),
                                      wp));
                acc_b = _mm256_add_epi32(
                    acc_b,
                    _mm256_madd_epi16(_mm256_unpackhi_epi16(a16, a16),
                                      wp));
            }
        }
    }
    alignas(32) std::int32_t tmp[16];
    _mm256_store_si256(reinterpret_cast<__m256i *>(tmp),
                       _mm256_permute2x128_si256(acc_a, acc_b, 0x20));
    _mm256_store_si256(reinterpret_cast<__m256i *>(tmp + 8),
                       _mm256_permute2x128_si256(acc_a, acc_b, 0x31));
    for (std::size_t t = 0; t < 16; ++t)
        out_row[c0 + t] = requantSat(tmp[t], shift);
}

/** 8-column block (same scheme at SSE width, for narrow planes). */
FASTBCNN_HOT inline void
avx2QuantConvBlock8(const std::int8_t *in_data, const std::int8_t *w_base,
                    std::int32_t b, std::int8_t *out_row,
                    std::size_t c0, std::size_t r,
                    std::size_t in_channels, std::size_t in_h,
                    std::size_t in_w, std::size_t k, std::int32_t shift)
{
    __m128i acc_a = _mm_set1_epi32(b); // cols 0..3
    __m128i acc_b = _mm_set1_epi32(b); // cols 4..7
    std::size_t n = 0;
    for (; n + 2 <= in_channels; n += 2) {
        const std::int8_t *p0 = in_data + n * in_h * in_w;
        const std::int8_t *p1 = p0 + in_h * in_w;
        const std::int8_t *wk0 = w_base + n * k * k;
        const std::int8_t *wk1 = wk0 + k * k;
        for (std::size_t i = 0; i < k; ++i) {
            const std::size_t row = (r + i) * in_w + c0;
            for (std::size_t j = 0; j < k; ++j) {
                const std::int32_t w0 = wk0[i * k + j];
                const std::int32_t w1 = wk1[i * k + j];
                if ((w0 | w1) == 0)
                    continue;
                const __m128i wp =
                    _mm_set1_epi32(packWeightPair(w0, w1));
                const __m128i a16 = _mm_cvtepi8_epi16(_mm_loadl_epi64(
                    reinterpret_cast<const __m128i *>(p0 + row + j)));
                const __m128i b16 = _mm_cvtepi8_epi16(_mm_loadl_epi64(
                    reinterpret_cast<const __m128i *>(p1 + row + j)));
                acc_a = _mm_add_epi32(
                    acc_a,
                    _mm_madd_epi16(_mm_unpacklo_epi16(a16, b16), wp));
                acc_b = _mm_add_epi32(
                    acc_b,
                    _mm_madd_epi16(_mm_unpackhi_epi16(a16, b16), wp));
            }
        }
    }
    if (n < in_channels) {
        const std::int8_t *p0 = in_data + n * in_h * in_w;
        const std::int8_t *wk0 = w_base + n * k * k;
        for (std::size_t i = 0; i < k; ++i) {
            const std::size_t row = (r + i) * in_w + c0;
            for (std::size_t j = 0; j < k; ++j) {
                const std::int32_t w0 = wk0[i * k + j];
                if (w0 == 0)
                    continue;
                const __m128i wp =
                    _mm_set1_epi32(packWeightPair(w0, 0));
                const __m128i a16 = _mm_cvtepi8_epi16(_mm_loadl_epi64(
                    reinterpret_cast<const __m128i *>(p0 + row + j)));
                acc_a = _mm_add_epi32(
                    acc_a,
                    _mm_madd_epi16(_mm_unpacklo_epi16(a16, a16), wp));
                acc_b = _mm_add_epi32(
                    acc_b,
                    _mm_madd_epi16(_mm_unpackhi_epi16(a16, a16), wp));
            }
        }
    }
    alignas(16) std::int32_t tmp[8];
    _mm_store_si128(reinterpret_cast<__m128i *>(tmp), acc_a);
    _mm_store_si128(reinterpret_cast<__m128i *>(tmp + 4), acc_b);
    for (std::size_t t = 0; t < 8; ++t)
        out_row[c0 + t] = requantSat(tmp[t], shift);
}

FASTBCNN_HOT void
avx2QuantConvForward(const std::int8_t *in_data, const std::int8_t *w_data,
                     const std::int32_t *bias, std::int8_t *out_data,
                     std::int32_t *acc, std::size_t in_channels,
                     std::size_t out_channels, std::size_t in_h,
                     std::size_t in_w, std::size_t out_h,
                     std::size_t out_w, std::size_t kernel,
                     std::size_t stride, std::size_t padding,
                     std::int32_t shift)
{
    if (stride != 1 || padding != 0) {
        scalarQuantConvForward(in_data, w_data, bias, out_data, acc,
                               in_channels, out_channels, in_h, in_w,
                               out_h, out_w, kernel, stride, padding,
                               shift);
        return;
    }
    for (std::size_t m = 0; m < out_channels; ++m) {
        const std::int8_t *w_base =
            w_data + m * in_channels * kernel * kernel;
        const std::int32_t b = bias[m];
        for (std::size_t r = 0; r < out_h; ++r) {
            std::int8_t *out_row = out_data + (m * out_h + r) * out_w;
            std::size_t c0 = 0;
            for (; c0 + 16 <= out_w; c0 += 16) {
                avx2QuantConvBlock16(in_data, w_base, b, out_row, c0,
                                     r, in_channels, in_h, in_w,
                                     kernel, shift);
            }
            for (; c0 + 8 <= out_w; c0 += 8) {
                avx2QuantConvBlock8(in_data, w_base, b, out_row, c0, r,
                                    in_channels, in_h, in_w, kernel,
                                    shift);
            }
            for (; c0 < out_w; ++c0) {
                std::int32_t a = b;
                for (std::size_t n = 0; n < in_channels; ++n) {
                    const std::int8_t *p0 = in_data + n * in_h * in_w;
                    const std::int8_t *wk = w_base + n * kernel * kernel;
                    for (std::size_t i = 0; i < kernel; ++i) {
                        const std::int8_t *in_row =
                            p0 + (r + i) * in_w + c0;
                        for (std::size_t j = 0; j < kernel; ++j) {
                            a += static_cast<std::int32_t>(
                                     wk[i * kernel + j]) *
                                 static_cast<std::int32_t>(in_row[j]);
                        }
                    }
                }
                out_row[c0] = requantSat(a, shift);
            }
        }
    }
}

FASTBCNN_HOT void
avx2QuantDenseAccum(const std::int8_t *w, const std::int32_t *bias,
                    const std::int8_t *x, std::int32_t *acc,
                    std::size_t out_features, std::size_t in_features)
{
    for (std::size_t o = 0; o < out_features; ++o) {
        const std::int8_t *row = w + o * in_features;
        __m256i acc8 = _mm256_setzero_si256();
        std::size_t i = 0;
        for (; i + 16 <= in_features; i += 16) {
            const __m256i w16 = _mm256_cvtepi8_epi16(_mm_loadu_si128(
                reinterpret_cast<const __m128i *>(row + i)));
            const __m256i x16 = _mm256_cvtepi8_epi16(_mm_loadu_si128(
                reinterpret_cast<const __m128i *>(x + i)));
            acc8 = _mm256_add_epi32(acc8,
                                    _mm256_madd_epi16(w16, x16));
        }
        std::int32_t lanes[8];
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(lanes), acc8);
        std::int32_t sum = bias[o];
        for (std::size_t l = 0; l < 8; ++l)
            sum += lanes[l];
        for (; i < in_features; ++i) {
            sum += static_cast<std::int32_t>(row[i]) *
                   static_cast<std::int32_t>(x[i]);
        }
        acc[o] = sum;
    }
}

FASTBCNN_HOT void
avx2QuantRelu(const std::int8_t *in, std::int8_t *out, std::size_t n)
{
    const __m256i zero32 = _mm256_setzero_si256();
    std::size_t i = 0;
    for (; i + 32 <= n; i += 32) {
        const __m256i v = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(in + i));
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(out + i),
            _mm256_and_si256(v, _mm256_cmpgt_epi8(v, zero32)));
    }
    for (; i < n; ++i)
        out[i] = in[i] > 0 ? in[i] : std::int8_t{0};
}

FASTBCNN_HOT void
avx2QuantPoolMax(const std::int8_t *in, std::int8_t *out,
                 std::size_t channels, std::size_t in_h,
                 std::size_t in_w, std::size_t out_h, std::size_t out_w,
                 std::size_t k, std::size_t s, std::size_t p,
                 std::int8_t init)
{
    if (s != 1) {
        scalarQuantPoolMax(in, out, channels, in_h, in_w, out_h, out_w,
                           k, s, p, init);
        return;
    }
    const __m256i init32 = _mm256_set1_epi8(static_cast<char>(init));
    for (std::size_t ch = 0; ch < channels; ++ch) {
        const std::int8_t *in_plane = in + ch * in_h * in_w;
        std::int8_t *out_plane = out + ch * out_h * out_w;
        std::size_t z = 0;
        for (; z + 32 <= out_h * out_w; z += 32) {
            _mm256_storeu_si256(
                reinterpret_cast<__m256i *>(out_plane + z), init32);
        }
        for (; z < out_h * out_w; ++z)
            out_plane[z] = init;
        for (std::size_t r = 0; r < out_h; ++r) {
            std::int8_t *out_row = out_plane + r * out_w;
            for (std::size_t i = 0; i < k; ++i) {
                const std::ptrdiff_t in_r =
                    static_cast<std::ptrdiff_t>(r + i) -
                    static_cast<std::ptrdiff_t>(p);
                if (in_r < 0 ||
                    in_r >= static_cast<std::ptrdiff_t>(in_h)) {
                    continue;
                }
                const std::int8_t *in_row =
                    in_plane + in_r * static_cast<std::ptrdiff_t>(in_w);
                for (std::size_t j = 0; j < k; ++j) {
                    const std::ptrdiff_t d =
                        static_cast<std::ptrdiff_t>(j) -
                        static_cast<std::ptrdiff_t>(p);
                    std::size_t c0, c1;
                    validRangeS1(d, out_w, in_w, c0, c1);
                    std::size_t c = c0;
                    for (; c + 32 <= c1; c += 32) {
                        const __m256i v = _mm256_loadu_si256(
                            reinterpret_cast<const __m256i *>(
                                in_row +
                                (static_cast<std::ptrdiff_t>(c) + d)));
                        __m256i *op =
                            reinterpret_cast<__m256i *>(out_row + c);
                        _mm256_storeu_si256(
                            op,
                            _mm256_max_epi8(_mm256_loadu_si256(op), v));
                    }
                    for (; c < c1; ++c) {
                        const std::int8_t v =
                            in_row[static_cast<std::ptrdiff_t>(c) + d];
                        const std::int8_t a = out_row[c];
                        out_row[c] = (a < v) ? v : a;
                    }
                }
            }
        }
    }
}

} // namespace

const SimdKernels *
avx2TableOrNull()
{
    static const SimdKernels table = {
        &avx2ConvForward,       &avx2DenseForward,
        &avx2PoolMax,           &avx2PoolAvg,
        &avx2Relu,              &avx2PopcountWords,
        &avx2PopcountBits,      &avx2AndPopcountWords,
        &avx2CountKernelPlane,  &avx2QuantConvForward,
        &avx2QuantDenseAccum,   &avx2QuantRelu,
        &avx2QuantPoolMax,
    };
    return &table;
}

} // namespace fastbcnn::simd::detail

#else // !FASTBCNN_SIMD_BUILD_AVX2

namespace fastbcnn::simd::detail {

const SimdKernels *
avx2TableOrNull()
{
    return nullptr;
}

} // namespace fastbcnn::simd::detail

#endif // FASTBCNN_SIMD_BUILD_AVX2
