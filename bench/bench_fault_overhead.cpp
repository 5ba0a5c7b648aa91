/**
 * @file
 * Fault-tolerance overhead characterization: the per-sample isolation
 * guard (try/catch + non-finite output scan + survivor compaction)
 * must cost < 2 % wall clock on the clean path relative to the
 * unguarded runner, and a faulted run must degrade gracefully instead
 * of dying.
 *
 * Prints guarded-vs-unguarded timings for the evaluated models and a
 * demonstration degraded run with its census.
 */

#include <algorithm>
#include <chrono>
#include <vector>

#include "bench_util.hpp"
#include "fault/fault.hpp"
#include "sim/report.hpp"

using namespace fastbcnn;
using namespace fastbcnn::bench;

namespace {

using Clock = std::chrono::steady_clock;

/** Median wall-clock milliseconds of @p reps guarded/unguarded runs. */
double
medianRunMs(const Network &net, const Tensor &input,
            const McOptions &opts, int reps)
{
    std::vector<double> ms;
    ms.reserve(static_cast<std::size_t>(reps));
    for (int r = 0; r < reps; ++r) {
        const Clock::time_point t0 = Clock::now();
        const McResult res = tryRunMcDropout(net, input, opts).value();
        const Clock::time_point t1 = Clock::now();
        FASTBCNN_CHECK_EQ(res.outputs.size(), opts.samples);
        ms.push_back(std::chrono::duration<double, std::milli>(
                         t1 - t0).count());
    }
    std::sort(ms.begin(), ms.end());
    return ms[ms.size() / 2];
}

} // namespace

int
main()
{
    const BenchScale scale = benchScale();
    printBanner("Sample-guard overhead (fault-tolerant MC runner)",
                "per-sample fault isolation costs < 2% on the clean "
                "path; injected faults degrade the estimate instead "
                "of killing the run", scale);

    const bool fast = std::getenv("FASTBCNN_BENCH_FAST") != nullptr;
    const int reps = fast ? 3 : 7;

    Table t({"model", "T", "unguarded ms", "guarded ms", "overhead"});
    for (ModelKind kind : evaluatedModels) {
        if (fast && kind != ModelKind::LeNet5)
            continue;
        WorkloadConfig cfg = workloadFor(kind, scale);
        if (std::getenv("FASTBCNN_BENCH_FULL") == nullptr)
            cfg.width = std::min(cfg.width, 0.5);
        ModelOptions mopts;
        mopts.widthMultiplier = cfg.width;
        const Network net = buildModel(kind, mopts);
        Tensor input(net.inputShape());
        input.fill(0.5f);

        McOptions opts;
        opts.samples = std::min<std::size_t>(cfg.samples, 10);
        opts.recordMasks = false;

        opts.sampleGuard = false;
        const double off = medianRunMs(net, input, opts, reps);
        opts.sampleGuard = true;
        const double on = medianRunMs(net, input, opts, reps);
        t.addRow({modelKindName(kind),
                  format("%zu", opts.samples),
                  format("%.2f", off), format("%.2f", on),
                  format("%+.2f%%", 100.0 * (on - off) / off)});
    }
    t.print(std::cout);
    std::cout << "target: guarded overhead < 2% (timing noise can "
                 "dominate on small models; the guard adds one "
                 "output scan per sample)\n\n";

    // Demonstration: a fault plan killing lanes degrades the run.
    ModelOptions mopts;
    mopts.widthMultiplier = 0.5;
    const Network net = buildLenet5(mopts);
    Tensor input(net.inputShape());
    input.fill(0.5f);
    McOptions opts;
    opts.samples = 10;
    opts.recordMasks = false;
    FaultPlan plan(2026);
    plan.killRandomSamples(3, opts.samples);
    opts.faults = &plan;
    Expected<McResult> hurt = tryRunMcDropout(net, input, opts);
    FASTBCNN_CHECK(hurt.hasValue(), "degraded run must still succeed");
    std::cout << "fault demo (3 injected lane kills, T = 10):\n";
    printDegradation(hurt.value().census, std::cout);
    return 0;
}
