/**
 * @file
 * perfbench — the serving benchmark.  See README.md beside this
 * directory for the workloads, the metrics and how to run it.
 *
 *   perfbench --workload <vgg_dense|vgg_skip|lenet_mix> --seed <n>
 *             --seconds <s> --trace <0|1> [--commit <id>]
 *             [--spans <path>]
 *
 * Prints a run record line, then the result as one JSON object on the
 * last line.  Exit codes: 0 ok, 1 a failed run (set-up error or
 * correctness gate), 2 usage, 3 the model failed the non-degeneracy
 * precondition.
 */

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "models.hpp"
#include "replay.hpp"
#include "serving.hpp"
#include "simd/simd.hpp"
#include "stats.hpp"

using namespace perfbench;

namespace {

struct Args {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    int trace = -1;
    std::string commit = "unknown";
    std::string spansPath;
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string val = argv[i + 1];
        char *end = nullptr;
        if (key == "--workload") {
            a.workload = val;
        } else if (key == "--seed") {
            a.seed = std::strtoull(val.c_str(), &end, 10);
            if (*end != '\0')
                return false;
        } else if (key == "--seconds") {
            a.seconds = std::strtod(val.c_str(), &end);
            if (*end != '\0')
                return false;
        } else if (key == "--trace") {
            a.trace = val == "1" ? 1 : val == "0" ? 0 : -1;
        } else if (key == "--commit") {
            a.commit = val;
        } else if (key == "--spans") {
            a.spansPath = val;
        } else {
            return false;
        }
    }
    return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0.0 &&
           a.trace >= 0;
}

double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
}

std::string
hostCpu()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            return colon == std::string::npos ? line
                                              : line.substr(colon + 2);
        }
    }
    return "unknown";
}

double
median(std::vector<double> v)
{
    return percentile(std::move(v), 0.5);
}

void
printRunRecord(const Args &a, const WorkloadSpec &spec)
{
    namespace simd = fastbcnn::simd;
    std::cout << "run_record {\"workload\": \"" << spec.name
              << "\", \"seed\": " << a.seed
              << ", \"seconds\": " << jsonNumber(a.seconds)
              << ", \"trace\": " << a.trace << ", \"host_cpu\": \""
              << jsonEscape(hostCpu()) << "\", \"nproc\": "
              << std::thread::hardware_concurrency()
              << ", \"compiler\": \"" << jsonEscape(PERFBENCH_COMPILER)
              << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
              << "\", \"simd\": \""
              << simd::simdLevelName(simd::activeLevel())
              << "\", \"commit\": \"" << jsonEscape(a.commit) << "\"}\n";
}

int
fail(const std::string &what, std::size_t attempted, std::size_t failed)
{
    std::cerr << "perfbench: " << what << "\n";
    std::cout << Report().json(false, attempted, failed) << "\n";
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::cerr << "usage: perfbench --workload <vgg_dense|vgg_skip|"
                     "lenet_mix> --seed <n> --seconds <s> --trace <0|1> "
                     "[--commit <id>] [--spans <path>]\n";
        return 2;
    }
    const std::optional<WorkloadSpec> found = workloadByName(args.workload);
    if (!found) {
        std::cerr << "perfbench: unknown workload '" << args.workload
                  << "'\n";
        return 2;
    }
    const WorkloadSpec &spec = *found;
    printRunRecord(args, spec);

    // Precondition: never measure a model whose outputs ignore the
    // input or the dropout masks.
    {
        const Network net = buildCalibratedNetwork(spec);
        const Status ok = checkNonDegenerate(net, probeInputs(spec.model));
        if (!ok.isOk()) {
            std::cerr << "perfbench: refused: " << ok.toString() << "\n";
            return 3;
        }
    }

    std::vector<double> setupS;
    std::vector<SetupTimes> setupTimes;
    std::unique_ptr<serve::InferenceServer> server;
    for (int i = 0; i < spec.setups; ++i) {
        if (server)
            server->drain();
        server.reset();
        auto setup = setUpServer(spec);
        if (!setup.hasValue())
            return fail("set-up failed: " + setup.error().toString(), 0, 0);
        setupS.push_back(setup.value().seconds);
        setupTimes.push_back(setup.value().times);
        server = std::move(setup.value().server);
    }

    const RequestSource src(spec, args.seed);
    const bool traced = args.trace == 1;
    SpanRecorder spans;
    const Window window = runWindow(*server, src, args.seconds, nullptr);
    // The traced run serves a second, traced window of the same length
    // (a window's worth of requests supports the same percentiles).
    Window tracedWindow;
    if (traced) {
        const RequestSource srcB(spec, args.seed ^ 0x7ace0000ull);
        tracedWindow = runWindow(*server, srcB, args.seconds, &spans);
    }
    server->drain();

    const EndToEnd e2e = summarizeWindow(window, spec);
    const std::size_t failed = e2e.attempted - e2e.ok;
    double gateAgreePct = 0.0;
    if (Status gate = correctnessGate(window, src, &gateAgreePct);
        !gate.isOk()) {
        return fail("correctness gate failed: " + gate.toString(),
                    e2e.attempted, failed);
    }
    auto fidelity = fidelityPass(spec);
    if (!fidelity.hasValue())
        return fail("fidelity pass failed: " + fidelity.error().toString(),
                    e2e.attempted, failed);
    const std::optional<Fidelity> &fid = fidelity.value();

    Report report;
    if (!traced) {
        report.add("throughput_rps", e2e.throughputRps, "1/s");
        report.add("latency_p50_ms", e2e.p50Ms, "ms");
        report.add("success_pct", e2e.successPct, "%");
        report.add("argmax_agree_pct",
                   fid ? fid->argmaxAgreePct : gateAgreePct, "%");
        report.add("setup_s", median(setupS), "s");
        report.add("peak_rss_mb", peakRssMb(), "MB");
    } else {
        ReplayTally tally;
        if (Status st = replayWindow(window, src, spans, tally);
            !st.isOk()) {
            return fail("traced replay failed: " + st.toString(),
                        e2e.attempted, failed);
        }
        reportReplay(spans, tally, report);

        const EndToEnd tr = summarizeWindow(tracedWindow, spec);
        std::vector<double> queue, service, batch, submit;
        double audited = 0.0, mispredicted = 0.0, events = 0.0;
        std::size_t shed = 0, refused = 0, guardedOk = 0;
        for (const Served &s : tracedWindow.requests) {
            submit.push_back(s.submitUs);
            refused += s.refused ? 1 : 0;
            shed += s.response.outcome == serve::Outcome::Shed ? 1 : 0;
            if (!s.response.ok())
                continue;
            queue.push_back(s.response.queueMs);
            service.push_back(s.response.serviceMs);
            batch.push_back(static_cast<double>(s.response.batchSize));
            if (s.response.guarded) {
                ++guardedOk;
                audited += static_cast<double>(s.response.guarded->audited);
                mispredicted +=
                    static_cast<double>(s.response.guarded->mispredicted);
                events += static_cast<double>(s.response.guarded->events.size());
            }
        }
        report.add("guard.audited",
                   guardedOk > 0 ? audited / static_cast<double>(guardedOk)
                                 : 0.0,
                   "count");
        report.add("guard.mispredict_frac",
                   audited > 0.0 ? mispredicted / audited : 0.0, "fraction");
        report.add("guard.events", events, "count");
        report.add("serve.queue_ms_p50", percentile(queue, 0.50), "ms");
        report.add("serve.queue_ms_p99", supportedPercentile(queue, 0.99),
                   "ms");
        report.add("serve.service_ms_p50", percentile(service, 0.50), "ms");
        report.add("serve.batch_size_mean", mean(batch), "count");
        report.add("serve.submit_us_p50", percentile(submit, 0.50), "us");
        report.add("serve.shed", static_cast<double>(shed), "count");
        report.add("serve.rejected", static_cast<double>(refused), "count");

        std::vector<double> build, sparsity, create, calibrate, quantize;
        for (const SetupTimes &t : setupTimes) {
            build.push_back(t.build);
            sparsity.push_back(t.sparsity);
            create.push_back(t.create);
            calibrate.push_back(t.calibrate);
            quantize.push_back(t.quantize);
        }
        report.add("models.build_s", median(build), "s");
        report.add("models.sparsity_s", median(sparsity), "s");
        report.add("core.create_s", median(create), "s");
        report.add("core.calibrate_s", median(calibrate), "s");
        report.add("core.quantize_s", median(quantize), "s");

        report.add("gen.lag_ms_p99", tr.lagP99Ms, "ms");
        report.add("trace.overhead_pct",
                   e2e.p50Ms > 0.0 ? 100.0 * (tr.p50Ms - e2e.p50Ms) / e2e.p50Ms
                                   : 0.0,
                   "%");
        report.add("latency_p90_ms", e2e.p90Ms, "ms");
        report.add("latency_p99_ms", e2e.p99Ms, "ms");
        report.add("deadline_miss_pct", e2e.deadlineMissPct, "%");
        report.add("posterior_mean_err", fid ? fid->posteriorMeanErr : 0.0,
                   "prob");
        if (!args.spansPath.empty() &&
            !spans.writeJsonLines(args.spansPath)) {
            std::cerr << "perfbench: could not write spans to "
                      << args.spansPath << "\n";
        }
    }
    std::cout << report.json(true, e2e.attempted, failed) << std::endl;
    return 0;
}
