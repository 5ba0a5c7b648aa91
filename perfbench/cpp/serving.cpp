#include "serving.hpp"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <limits>
#include <mutex>
#include <thread>

#include "schedule.hpp"
#include "stats.hpp"

namespace perfbench {

using namespace fastbcnn;
using Clock = std::chrono::steady_clock;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/** Warm-up and fidelity inputs come from seeds no request uses. */
constexpr std::uint64_t kWarmupSeed = 0x3a3a3a3a3aull;
constexpr std::uint64_t kFidelitySeed = 0xf1de117ull;

/** Requests of each class a latency slice must hold. */
constexpr std::size_t kSliceRequests = 100;

/** Gate subset: full-T responses replayed per numeric path. */
constexpr std::size_t kGateReplays = 3;

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

std::size_t
argmaxOf(const Tensor &t)
{
    std::size_t best = 0;
    for (std::size_t i = 1; i < t.numel(); ++i) {
        if (t.at(i) > t.at(best))
            best = i;
    }
    return best;
}

/** Per-sample argmax agreement counts of two MC runs. */
void
countAgreement(const std::vector<Tensor> &a, const std::vector<Tensor> &b,
               std::size_t &agree, std::size_t &total)
{
    const std::size_t n = std::min(a.size(), b.size());
    for (std::size_t t = 0; t < n; ++t)
        agree += argmaxOf(a[t]) == argmaxOf(b[t]) ? 1 : 0;
    total += std::max(a.size(), b.size());
}

double
maxAbsDiff(const Tensor &a, const Tensor &b)
{
    double worst = 0.0;
    for (std::size_t i = 0; i < a.numel(); ++i)
        worst = std::max(worst, std::fabs(static_cast<double>(a.at(i)) -
                                          static_cast<double>(b.at(i))));
    return worst;
}

McOptions
replayOptions(const FastBcnnEngine &engine, const WorkloadSpec &spec,
              std::uint64_t seed, Precision precision,
              std::size_t threads)
{
    McOptions mc = engine.options().mc;
    mc.samples = spec.samples;
    mc.seed = seed;
    mc.precision = precision;
    mc.threads = threads;
    return mc;
}

GuardedMcOptions
guardedOptions(const FastBcnnEngine &engine, const WorkloadSpec &spec,
               std::uint64_t seed, std::size_t threads)
{
    const McOptions &mc = engine.options().mc;
    GuardedMcOptions g;
    g.samples = spec.samples;
    g.dropRate = mc.dropRate;
    g.brng = mc.brng;
    g.seed = seed;
    g.threads = threads;
    return g;
}

} // namespace

bool
sameBits(const Tensor &a, const Tensor &b)
{
    return a.numel() == b.numel() &&
           std::memcmp(a.data().data(), b.data().data(),
                       a.numel() * sizeof(float)) == 0;
}

bool
sameBits(const std::vector<Tensor> &a, const std::vector<Tensor> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (!sameBits(a[i], b[i]))
            return false;
    }
    return true;
}

RequestSource::RequestSource(const WorkloadSpec &s, std::uint64_t run_seed)
    : spec(s), seed(run_seed)
{
    const std::size_t n = spec.openLoopRate > 0.0 ? 64 : 32;
    for (std::size_t i = 0; i < n; ++i)
        pool.push_back(requestInput(spec.model, requestInputSeed(seed, i)));
}

const Tensor &
RequestSource::input(std::uint64_t index) const
{
    return pool[index % pool.size()];
}

namespace {

serve::InferRequest
makeRequest(const WorkloadSpec &spec, const Tensor &input,
            std::uint64_t mc_seed, bool interactive)
{
    serve::InferRequest r;
    r.modelId = spec.name;
    r.input = input;
    r.mc.samples = spec.samples;
    r.mc.threads = spec.lanes;
    r.mc.seed = mc_seed;
    r.useGuardedSkip = spec.guardedSkip;
    if (spec.int8Mix) {
        r.priority = interactive ? serve::Priority::Interactive
                                 : serve::Priority::Standard;
        r.mc.precision =
            interactive ? Precision::Int8 : Precision::Float32;
        r.deadlineMs = interactive ? spec.interactiveDeadlineMs
                                   : spec.standardDeadlineMs;
    }
    return r;
}

} // namespace

serve::InferRequest
RequestSource::request(std::uint64_t index, bool interactive) const
{
    return makeRequest(spec, input(index), requestMcSeed(seed, index),
                       interactive);
}

serve::InferRequest
warmupRequest(const WorkloadSpec &spec, bool interactive)
{
    return makeRequest(spec, requestInput(spec.model, kWarmupSeed),
                       kWarmupSeed, interactive);
}

Expected<ServerSetup>
setUpServer(const WorkloadSpec &spec)
{
    ServerSetup setup;
    auto times = std::make_shared<std::pair<std::mutex, SetupTimes>>();
    serve::ModelSpec model;
    model.id = spec.name;
    model.factory = [spec, times]() {
        SetupTimes t;
        auto engine = buildReplica(spec, &t);
        std::lock_guard<std::mutex> lock(times->first);
        SetupTimes &sum = times->second;
        sum.build += t.build;
        sum.sparsity += t.sparsity;
        sum.create += t.create;
        sum.calibrate += t.calibrate;
        sum.quantize += t.quantize;
        return engine;
    };
    serve::ServerOptions sopts;
    sopts.workers = spec.workers;
    sopts.maxBatch = spec.maxBatch;

    const Clock::time_point t0 = Clock::now();
    std::vector<serve::ModelSpec> models;
    models.push_back(std::move(model));
    auto server = serve::InferenceServer::create(std::move(models), sopts);
    if (!server.hasValue())
        return std::move(server).takeError();
    setup.server = std::move(server).value();

    // Warm every worker: one request on the closed-loop servers, one
    // per worker and class on the open-loop mix.
    std::vector<serve::RequestHandle> handles;
    const std::size_t warmups = spec.int8Mix ? 2 * spec.workers : 1;
    for (std::size_t i = 0; i < warmups; ++i) {
        auto h = setup.server->submit(warmupRequest(spec, i % 2 == 0));
        if (!h.hasValue())
            return std::move(h).takeError().withContext("warm-up");
        handles.push_back(std::move(h).value());
    }
    for (serve::RequestHandle &h : handles) {
        serve::InferResponse r = h.response.get();
        if (!r.ok())
            return std::move(r.error).withContext("warm-up");
    }
    setup.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
    setup.times = times->second;
    return setup;
}

namespace {

Window
runClosedLoop(serve::InferenceServer &server, const RequestSource &src,
              double seconds, SpanRecorder *spans)
{
    Window w;
    const Clock::time_point start = Clock::now();
    const Clock::time_point stop =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    Clock::time_point last = start;
    for (std::uint64_t i = 0; Clock::now() < stop; ++i) {
        serve::InferRequest req = src.request(i, false);
        Served s;
        s.index = i;
        const std::uint32_t span =
            spans ? spans->begin("serve.submit", 0,
                                 static_cast<std::uint32_t>(i + 1))
                  : 0;
        const Clock::time_point t0 = Clock::now();
        auto handle = server.submit(std::move(req));
        const Clock::time_point t1 = Clock::now();
        if (spans)
            spans->end(span);
        s.submitUs = msBetween(t0, t1) * 1e3;
        if (!handle.hasValue()) {
            s.refused = true;
            s.latencyMs = kInf;
        } else {
            s.response = handle.value().response.get();
            last = Clock::now();
            s.latencyMs = s.response.ok() ? msBetween(t0, last) : kInf;
        }
        w.requests.push_back(std::move(s));
    }
    w.seconds = std::chrono::duration<double>(last - start).count();
    return w;
}

Window
runOpenLoop(serve::InferenceServer &server, const RequestSource &src,
            double seconds, SpanRecorder *spans)
{
    const std::vector<Arrival> schedule =
        openLoopSchedule(src.seed, src.spec.openLoopRate, seconds);
    const std::size_t n = schedule.size();
    std::vector<serve::InferRequest> requests;
    requests.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        requests.push_back(src.request(i, schedule[i].interactive));

    Window w;
    w.requests.resize(n);
    std::vector<std::optional<std::future<serve::InferResponse>>> futures(n);
    std::mutex mu;
    std::condition_variable cv;
    std::size_t published = 0;

    const Clock::time_point start =
        Clock::now() + std::chrono::milliseconds(5);
    const auto due = [&](std::size_t i) {
        return start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double, std::milli>(
                               schedule[i].atMs));
    };
    std::thread generator([&]() {
        for (std::size_t i = 0; i < n; ++i) {
            std::this_thread::sleep_until(due(i));
            Served &s = w.requests[i];
            s.index = i;
            s.interactive = schedule[i].interactive;
            const std::uint32_t span =
                spans ? spans->begin("serve.submit", 0,
                                     static_cast<std::uint32_t>(i + 1))
                      : 0;
            const Clock::time_point t0 = Clock::now();
            auto handle = server.submit(std::move(requests[i]));
            const Clock::time_point t1 = Clock::now();
            if (spans)
                spans->end(span);
            s.lagMs = msBetween(due(i), t0);
            s.submitUs = msBetween(t0, t1) * 1e3;
            std::lock_guard<std::mutex> lock(mu);
            if (handle.hasValue())
                futures[i] = std::move(handle.value().response);
            else
                s.refused = true;
            ++published;
            cv.notify_one();
        }
    });

    double lastMs = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        std::optional<std::future<serve::InferResponse>> fut;
        {
            std::unique_lock<std::mutex> lock(mu);
            cv.wait(lock, [&] { return published > i; });
            fut = std::move(futures[i]);
        }
        Served &s = w.requests[i];
        if (!fut) {
            s.latencyMs = kInf;
            continue;
        }
        s.response = fut->get();
        // Timed from the scheduled send, so generator lateness counts.
        const double lat = s.lagMs + s.response.totalMs;
        lastMs = std::max(lastMs, schedule[i].atMs + lat);
        s.latencyMs = s.response.ok() ? lat : kInf;
    }
    generator.join();
    w.seconds = lastMs / 1e3;
    return w;
}

} // namespace

Window
runWindow(serve::InferenceServer &server, const RequestSource &src,
          double seconds, SpanRecorder *spans)
{
    return src.spec.openLoopRate > 0.0
               ? runOpenLoop(server, src, seconds, spans)
               : runClosedLoop(server, src, seconds, spans);
}

EndToEnd
summarizeWindow(const Window &w, const WorkloadSpec &spec)
{
    EndToEnd e;
    e.attempted = w.requests.size();
    std::vector<double> lat, lag;
    std::size_t missed = 0, perClass[2] = {0, 0};
    for (const Served &s : w.requests) {
        lat.push_back(s.latencyMs);
        lag.push_back(s.lagMs);
        ++perClass[s.interactive ? 1 : 0];
        if (s.response.ok() && !s.refused)
            ++e.ok;
        const double limit = s.interactive ? spec.interactiveDeadlineMs
                                           : spec.standardDeadlineMs;
        if (!(s.latencyMs <= limit))
            ++missed;
    }
    if (e.attempted == 0)
        return e;
    const double n = static_cast<double>(e.attempted);
    e.throughputRps = w.seconds > 0.0 ? e.ok / w.seconds : 0.0;
    // p50/p90 are taken per class and averaged over the classes: in an
    // even two-class mix the pooled median is the slowest request of
    // the fast class or the fastest of the slow one, an extreme order
    // statistic that swings with every queueing burst.  The window is
    // cut into consecutive slices that each still hold kSliceRequests
    // of every class (so each slice's p90 has 10 samples beyond it),
    // and the median over slices is reported, so one burst does not
    // decide the run.
    std::size_t fewest = std::max(perClass[0], perClass[1]);
    for (std::size_t c : perClass)
        fewest = c > 0 ? std::min(fewest, c) : fewest;
    const std::size_t slices =
        std::max<std::size_t>(1, fewest / kSliceRequests);
    std::vector<double> p50s, p90s;
    for (std::size_t k = 0; k < slices; ++k) {
        const std::size_t lo = w.requests.size() * k / slices;
        const std::size_t hi = w.requests.size() * (k + 1) / slices;
        std::vector<double> byClass[2];
        for (std::size_t i = lo; i < hi; ++i) {
            byClass[w.requests[i].interactive ? 1 : 0].push_back(
                w.requests[i].latencyMs);
        }
        double p50 = 0.0, p90 = 0.0, classes = 0.0;
        for (const std::vector<double> &c : byClass) {
            if (c.empty())
                continue;
            p50 += percentile(c, 0.50);
            p90 += percentile(c, 0.90);
            classes += 1.0;
        }
        p50s.push_back(p50 / classes);
        p90s.push_back(p90 / classes);
    }
    e.p50Ms = percentile(p50s, 0.50);
    e.p90Ms = percentile(p90s, 0.50);
    e.p99Ms = supportedPercentile(lat, 0.99);
    e.successPct = 100.0 * static_cast<double>(e.ok) / n;
    if (spec.openLoopRate > 0.0) {
        e.deadlineMissPct = 100.0 * static_cast<double>(missed) / n;
        e.lagP99Ms = percentile(lag, 0.99);
    }
    return e;
}

Status
correctnessGate(const Window &w, const RequestSource &src,
                double *agree_pct)
{
    const WorkloadSpec &spec = src.spec;
    for (const Served &s : w.requests) {
        if (!s.response.ok())
            continue;
        const Tensor &mean = s.response.guarded
                                 ? s.response.guarded->summary.mean
                                 : s.response.result->summary.mean;
        double sum = 0.0;
        for (float p : mean.data()) {
            if (!std::isfinite(p)) {
                return errorf(ErrorCode::NonFinite,
                              "gate: request %llu has a non-finite "
                              "class probability",
                              static_cast<unsigned long long>(s.index));
            }
            sum += p;
        }
        if (std::fabs(sum - 1.0) > 1e-4) {
            return errorf(ErrorCode::Mismatch,
                          "gate: request %llu probabilities sum to %.7f",
                          static_cast<unsigned long long>(s.index), sum);
        }
    }

    auto replica = buildReplica(spec);
    if (!replica.hasValue())
        return std::move(replica).takeError().withContext("gate replica");
    FastBcnnEngine &fresh = *replica.value();
    std::size_t agree = 0, total = 0;

    if (spec.guardedSkip) {
        // The guard's backoff state depends on request order: replay
        // the warm-up, then the served sequence from its start.
        const serve::InferRequest warm = warmupRequest(spec, false);
        auto r = fresh.tryGuardedMc(
            warm.input, guardedOptions(fresh, spec, *warm.mc.seed, 1));
        if (!r.hasValue())
            return std::move(r).takeError().withContext("gate warm-up");
        const std::size_t n = std::min(kGateReplays, w.requests.size());
        for (std::size_t i = 0; i < n; ++i) {
            const Served &s = w.requests[i];
            if (!s.response.ok() || !s.response.guarded) {
                return errorf(ErrorCode::Mismatch,
                              "gate: guarded request %zu was not served",
                              i);
            }
            const GuardedMcResult &got = *s.response.guarded;
            auto want = fresh.tryGuardedMc(
                src.input(s.index),
                guardedOptions(fresh, spec,
                               requestMcSeed(src.seed, s.index), 1));
            if (!want.hasValue())
                return std::move(want).takeError().withContext("gate");
            const GuardedMcResult &ref = want.value();
            if (!sameBits(got.outputs, ref.outputs) ||
                !sameBits(got.summary.mean, ref.summary.mean) ||
                got.predictedNeurons != ref.predictedNeurons ||
                got.audited != ref.audited ||
                got.mispredicted != ref.mispredicted ||
                got.events.size() != ref.events.size()) {
                return errorf(ErrorCode::Mismatch,
                              "gate: guarded request %zu does not replay "
                              "bit-identically on a fresh replica", i);
            }
            countAgreement(got.outputs, ref.outputs, agree, total);
        }
    } else {
        std::size_t replayed[2] = {0, 0};
        for (const Served &s : w.requests) {
            if (!s.response.ok() || !s.response.result)
                continue;
            const McResult &got = *s.response.result;
            const std::size_t path =
                s.response.precision == Precision::Int8 ? 1 : 0;
            // Deadline-truncated runs are legitimately partial.
            if (got.census.survived != spec.samples ||
                replayed[path] >= kGateReplays) {
                continue;
            }
            ++replayed[path];
            auto want = fresh.tryMcReference(
                src.input(s.index),
                replayOptions(fresh, spec,
                              requestMcSeed(src.seed, s.index),
                              s.response.precision, 1));
            if (!want.hasValue())
                return std::move(want).takeError().withContext("gate");
            const McResult &ref = want.value();
            if (!sameBits(got.outputs, ref.outputs) ||
                !sameBits(got.summary.mean, ref.summary.mean) ||
                !sameBits(got.summary.variance, ref.summary.variance)) {
                return errorf(ErrorCode::Mismatch,
                              "gate: %s request %llu does not replay "
                              "bit-identically through tryMcReference",
                              precisionName(s.response.precision),
                              static_cast<unsigned long long>(s.index));
            }
            countAgreement(got.outputs, ref.outputs, agree, total);
        }
        const std::size_t want_paths = spec.int8Mix ? 2 : 1;
        for (std::size_t p = 0; p < want_paths; ++p) {
            if (replayed[p] == 0) {
                return errorf(ErrorCode::Mismatch,
                              "gate: no full-T %s response to replay",
                              p == 1 ? "int8" : "f32");
            }
        }
    }
    if (agree_pct != nullptr)
        *agree_pct = total > 0 ? 100.0 * static_cast<double>(agree) /
                                     static_cast<double>(total)
                               : 0.0;
    return Status::ok();
}

Expected<std::optional<Fidelity>>
fidelityPass(const WorkloadSpec &spec)
{
    if (!spec.guardedSkip && !spec.int8Mix)
        return std::optional<Fidelity>();
    auto replica = buildReplica(spec);
    if (!replica.hasValue())
        return std::move(replica).takeError().withContext(
            "fidelity replica");
    FastBcnnEngine &engine = *replica.value();

    const std::size_t items = spec.guardedSkip ? 4 : 32;
    std::size_t agree = 0, total = 0;
    double errSum = 0.0;
    for (std::size_t i = 0; i < items; ++i) {
        const Tensor x = requestInput(spec.model, kFidelitySeed + i);
        const std::uint64_t seed = kFidelitySeed ^ (i * 0x9e37ull + 1);
        auto exact = engine.tryMcReference(
            x, replayOptions(engine, spec, seed, Precision::Float32,
                             spec.lanes));
        if (!exact.hasValue())
            return std::move(exact).takeError().withContext("fidelity");
        const McResult &ref = exact.value();
        if (spec.guardedSkip) {
            auto approx = engine.tryGuardedMc(
                x, guardedOptions(engine, spec, seed, spec.lanes));
            if (!approx.hasValue())
                return std::move(approx).takeError().withContext(
                    "fidelity");
            countAgreement(approx.value().outputs, ref.outputs, agree,
                           total);
            errSum += maxAbsDiff(approx.value().summary.mean,
                                 ref.summary.mean);
        } else {
            auto approx = engine.tryMcReference(
                x, replayOptions(engine, spec, seed, Precision::Int8,
                                 spec.lanes));
            if (!approx.hasValue())
                return std::move(approx).takeError().withContext(
                    "fidelity");
            countAgreement(approx.value().outputs, ref.outputs, agree,
                           total);
            errSum += maxAbsDiff(approx.value().summary.mean,
                                 ref.summary.mean);
        }
    }
    Fidelity f;
    f.argmaxAgreePct =
        100.0 * static_cast<double>(agree) / static_cast<double>(total);
    f.posteriorMeanErr = errSum / static_cast<double>(items);
    return std::optional<Fidelity>(f);
}

} // namespace perfbench
