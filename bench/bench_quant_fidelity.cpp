/**
 * @file
 * Int8 uncertainty-fidelity benchmark (DESIGN.md §15): does the
 * quantized engine preserve what the Bayesian machinery consumes, and
 * is it actually faster?
 *
 * Four measurements on B-VGG16 at the suite's standard width:
 *  - bit identity: int8 MC sample outputs across every available SIMD
 *    level x {1, 4} threads must agree byte-for-byte (integer
 *    arithmetic is exact, so this is a hard gate);
 *  - skip-decision agreement: Eq. 5 predictions driven by the int8
 *    zero maps vs the float zero maps under identical masks, counts
 *    and thresholds (gate: >= 99.5 %);
 *  - posterior moments: max |Δmean| / |Δvar| between the float and
 *    int8 MC summaries on the same masks, plus argmax agreement
 *    (gated against the tolerances below);
 *  - speedup: wall-clock of the single-threaded int8 MC predictive
 *    path vs float at the best SIMD level (target 1.8x; reported, not
 *    asserted — wall-clock ratios on shared CI machines are not
 *    stable enough to gate on).
 *
 * Output: tables on stdout, machine-readable summary in
 * BENCH_quant_fidelity.json (override with FASTBCNN_QUANT_JSON).
 * Exits nonzero when a fidelity gate fails.
 */

#include <chrono>
#include <cstring>
#include <fstream>
#include <random>
#include <sstream>
#include <vector>

#include "bench_util.hpp"
#include "bayes/mc_runner.hpp"
#include "models/zoo.hpp"
#include "quant/fidelity.hpp"
#include "quant/quantize.hpp"
#include "simd/simd.hpp"

using namespace fastbcnn;
using namespace fastbcnn::bench;

namespace {

/** Fidelity tolerances (softmax outputs; see DESIGN.md §15). */
constexpr double kMeanTol = 0.05;
constexpr double kVarTol = 0.02;
constexpr double kAgreementTarget = 0.995;
constexpr double kSpeedupTarget = 1.8;

int failures = 0;

void
gate(bool ok, const char *what)
{
    if (!ok) {
        std::cerr << "bench_quant_fidelity: GATE FAILED: " << what
                  << "\n";
        ++failures;
    }
}

std::vector<simd::SimdLevel>
availableLevels()
{
    std::vector<simd::SimdLevel> levels;
    for (int l = 0; l < simd::kSimdLevelCount; ++l) {
        const auto level = static_cast<simd::SimdLevel>(l);
        if (simd::levelAvailable(level))
            levels.push_back(level);
    }
    return levels;
}

Tensor
randomInput(const Shape &shape, std::uint64_t seed)
{
    std::mt19937_64 rng(seed);
    std::normal_distribution<float> g(0.3f, 1.0f);
    Tensor t(shape);
    for (float &v : t.data())
        v = g(rng);
    return t;
}

/** Best-of-three wall-clock milliseconds of one call to @p fn. */
template <typename F>
double
timeMsBestOf3(F &&fn)
{
    using clock = std::chrono::steady_clock;
    double best = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
        const auto t0 = clock::now();
        fn();
        const auto t1 = clock::now();
        const double ms =
            std::chrono::duration<double, std::milli>(t1 - t0)
                .count();
        if (ms < best)
            best = ms;
    }
    return best;
}

McResult
mustRun(Expected<McResult> run, const char *what)
{
    if (!run.hasValue())
        fatal("%s: %s", what, run.error().toString().c_str());
    return std::move(run).value();
}

} // namespace

int
main()
{
    const BenchScale scale = benchScale();
    printBanner("int8 quantized inference: uncertainty fidelity and "
                "MC speedup",
                "massive skipping needs trustworthy zero maps; int8 "
                "must preserve skip decisions and posterior moments",
                scale);

    const std::vector<simd::SimdLevel> levels = availableLevels();
    const bool fast = std::getenv("FASTBCNN_BENCH_FAST") != nullptr;

    ModelOptions mopts;
    mopts.widthMultiplier = scale.vggWidth;
    mopts.init.seed = 51;
    Network net = buildVgg16(mopts);
    BcnnTopology topo(net);

    const Tensor input = randomInput(net.inputShape(), 52);
    std::vector<Tensor> calib;
    for (std::uint64_t i = 0; i < 2; ++i)
        calib.push_back(randomInput(net.inputShape(), 53 + i));

    Expected<quant::CalibrationProfile> profile =
        quant::tryCalibrateActivations(net, calib);
    if (!profile.hasValue())
        fatal("calibration: %s", profile.error().toString().c_str());
    Expected<quant::QuantizedNetwork> built =
        quant::QuantizedNetwork::build(net, profile.value());
    if (!built.hasValue())
        fatal("quantization: %s", built.error().toString().c_str());
    const quant::QuantizedNetwork qnet = std::move(built).value();

    McOptions opts;
    opts.samples = scale.vggSamples;
    opts.seed = 54;
    opts.threads = 1;
    opts.recordMasks = false;

    const simd::SimdLevel saved = simd::activeLevel();
    const ForwardTarget qtarget = quant::int8Target(qnet);

    // --- int8 bit identity across levels x threads ------------------
    std::vector<std::vector<float>> ref_outputs;
    bool identical = true;
    for (simd::SimdLevel level : levels) {
        simd::setLevel(level);
        for (std::size_t threads : {std::size_t(1), std::size_t(4)}) {
            McOptions o = opts;
            o.threads = threads;
            const McResult res = mustRun(
                tryRunMcDropoutWith(qtarget, input, o), "int8 MC");
            if (ref_outputs.empty()) {
                for (const Tensor &t : res.outputs)
                    ref_outputs.emplace_back(t.data().begin(),
                                             t.data().end());
                continue;
            }
            if (res.outputs.size() != ref_outputs.size()) {
                identical = false;
                continue;
            }
            for (std::size_t i = 0; i < res.outputs.size(); ++i) {
                if (std::memcmp(res.outputs[i].data().data(),
                                ref_outputs[i].data(),
                                ref_outputs[i].size() *
                                    sizeof(float)) != 0)
                    identical = false;
            }
        }
    }
    gate(identical,
         "int8 MC outputs not bit-identical across levels x threads");
    std::cout << "int8 outputs bit-identical across "
              << levels.size() << " level(s) x {1,4} threads: "
              << (identical ? "yes" : "NO") << "\n\n";

    // --- fidelity at the best available level -----------------------
    simd::setLevel(levels.back());

    const McResult res_f =
        mustRun(tryRunMcDropout(net, input, opts), "float MC");
    const McResult res_q = mustRun(
        tryRunMcDropoutWith(qtarget, input, opts), "int8 MC");
    const quant::MomentFidelity moments =
        quant::compareSummaries(res_f.summary, res_q.summary);

    const std::size_t mask_samples = fast ? 2 : 4;
    const quant::SkipAgreement agreement =
        quant::compareSkipPredictions(topo, qnet, input, 8.0, 0.3, 55,
                                      mask_samples);

    Table fidelity({"metric", "measured", "tolerance", "status"});
    fidelity.addRow(
        {"skip agreement",
         format("%.4f%% (%zu/%zu)", 100.0 * agreement.agreement(),
                agreement.matched, agreement.compared),
         format(">= %.1f%%", 100.0 * kAgreementTarget),
         agreement.agreement() >= kAgreementTarget ? "ok" : "FAIL"});
    fidelity.addRow({"max |mean diff|",
                     format("%.5f", moments.maxMeanDiff),
                     format("<= %.3f", kMeanTol),
                     moments.maxMeanDiff <= kMeanTol ? "ok" : "FAIL"});
    fidelity.addRow({"max |var diff|",
                     format("%.5f", moments.maxVarDiff),
                     format("<= %.3f", kVarTol),
                     moments.maxVarDiff <= kVarTol ? "ok" : "FAIL"});
    fidelity.addRow({"argmax agreement",
                     moments.argmaxMatch ? "match" : "mismatch",
                     "match", moments.argmaxMatch ? "ok" : "FAIL"});
    fidelity.print(std::cout);

    gate(agreement.agreement() >= kAgreementTarget,
         "skip-decision agreement below 99.5%");
    gate(moments.maxMeanDiff <= kMeanTol,
         "posterior mean drifted past tolerance");
    gate(moments.maxVarDiff <= kVarTol,
         "posterior variance drifted past tolerance");
    gate(moments.argmaxMatch, "int8 flipped the argmax class");

    // --- MC speedup, single core, best level ------------------------
    const double ms_f = timeMsBestOf3([&] {
        (void)mustRun(tryRunMcDropout(net, input, opts), "float MC");
    });
    const double ms_q = timeMsBestOf3([&] {
        (void)mustRun(tryRunMcDropoutWith(qtarget, input, opts),
                      "int8 MC");
    });
    const double speedup = ms_q > 0.0 ? ms_f / ms_q : 0.0;

    std::cout << "\nMC predictive path (" << net.name() << ", T="
              << opts.samples << ", 1 thread, "
              << simd::simdLevelName(levels.back()) << "):\n";
    Table perf({"path", "ms/run", "speedup"});
    perf.addRow({"f32", format("%.1f", ms_f), "1.00x"});
    perf.addRow({"int8", format("%.1f", ms_q),
                 format("%.2fx", speedup)});
    perf.print(std::cout);
    std::cout << format("target: >= %.1fx (measured %.2fx)\n",
                        kSpeedupTarget, speedup);

    simd::setLevel(saved);

    // --- JSON summary -----------------------------------------------
    std::ostringstream json;
    json << "{\n  \"bench\": \"quant_fidelity\",\n"
         << "  \"model\": \"" << net.name() << "\",\n"
         << "  \"scale\": \"" << scale.label << "\",\n"
         << "  \"samples\": " << opts.samples << ",\n"
         << "  \"level\": \""
         << simd::simdLevelName(levels.back()) << "\",\n"
         << "  \"bit_identical\": " << (identical ? "true" : "false")
         << ",\n  \"skip_agreement\": {\"compared\": "
         << agreement.compared << ", \"matched\": "
         << agreement.matched << ", \"agreement\": "
         << format("%.6f", agreement.agreement())
         << ", \"target\": " << format("%.3f", kAgreementTarget)
         << "},\n  \"moments\": {\"max_mean_diff\": "
         << format("%.6f", moments.maxMeanDiff)
         << ", \"max_var_diff\": "
         << format("%.6f", moments.maxVarDiff)
         << ", \"mean_tol\": " << format("%.3f", kMeanTol)
         << ", \"var_tol\": " << format("%.3f", kVarTol)
         << ", \"argmax_match\": "
         << (moments.argmaxMatch ? "true" : "false")
         << "},\n  \"speedup\": {\"f32_ms\": "
         << format("%.2f", ms_f) << ", \"int8_ms\": "
         << format("%.2f", ms_q) << ", \"speedup\": "
         << format("%.2f", speedup) << ", \"target\": "
         << format("%.1f", kSpeedupTarget)
         << ", \"threads\": 1},\n  \"verdict\": \""
         << (failures == 0 ? "pass" : "fail") << "\"\n}\n";

    const char *path = std::getenv("FASTBCNN_QUANT_JSON");
    const std::string out_path =
        path != nullptr ? path : "BENCH_quant_fidelity.json";
    std::ofstream file(out_path);
    if (!file) {
        std::cerr << "cannot write " << out_path << "\n";
        ++failures;
    } else {
        file << json.str();
        std::cerr << "bench_quant_fidelity: wrote " << out_path
                  << "\n";
    }

    if (failures > 0) {
        std::cerr << "bench_quant_fidelity: " << failures
                  << " gate(s) FAILED\n";
        return 1;
    }
    std::cerr << "bench_quant_fidelity: all fidelity gates passed\n";
    return 0;
}
