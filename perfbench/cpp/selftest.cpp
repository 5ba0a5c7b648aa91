/**
 * @file
 * Self-tests of the benchmark's own logic.  Run with
 * `python3 perfbench/run.py --self-test` (or the built
 * perfbench_selftest binary); exits non-zero on the first failure.
 */

#include <cmath>
#include <cstdio>
#include <limits>

#include "models.hpp"
#include "schedule.hpp"
#include "spans.hpp"
#include "stats.hpp"

using namespace perfbench;

namespace {

int failures = 0;

void
check(bool ok, const char *what)
{
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
    failures += ok ? 0 : 1;
}

void
testPercentileRule()
{
    const auto ramp = [](int n) {
        std::vector<double> v;
        for (int i = 1; i <= n; ++i)
            v.push_back(i);
        return v;
    };
    check(samplesBeyond(100, 0.9) == 10, "100 samples: 10 beyond p90");
    check(supportedPercentile(ramp(100), 0.9) == 90.0,
          "100 samples support p90");
    check(supportedPercentile(ramp(99), 0.9) == 0.0,
          "99 samples do not support p90");
    check(supportedPercentile(ramp(1000), 0.99) == 990.0,
          "1000 samples support p99");
    check(supportedPercentile(ramp(999), 0.99) == 0.0,
          "999 samples do not support p99");
    check(supportedPercentile(ramp(15), 0.5) == 0.0,
          "15 samples do not support p50");

    std::vector<double> v = ramp(100);
    check(percentile(v, 0.5) == 50.0 && percentile(v, 0.9) == 90.0,
          "nearest-rank p50/p90 of 1..100");
    v[0] = std::numeric_limits<double>::infinity();
    check(percentile(v, 0.9) == 91.0 && std::isinf(percentile(v, 1.0)),
          "a failed request sorts beyond every percentile");
}

Span
span(std::uint32_t id, std::uint32_t parent, std::int64_t lo,
     std::int64_t hi)
{
    Span s;
    s.id = id;
    s.parent = parent;
    s.name = "s" + std::to_string(id);
    s.startNs = lo;
    s.endNs = hi;
    return s;
}

void
testSelfTime()
{
    // 1 [0,100] has children 2 [10,40], 3 [30,60] (overlapping each
    // other) and 5 [90,120] (overhanging the parent); 2 has a nested
    // child 4 [15,20].
    const std::vector<Span> spans = {span(1, 0, 0, 100),
                                     span(2, 1, 10, 40),
                                     span(3, 1, 30, 60),
                                     span(4, 2, 15, 20),
                                     span(5, 1, 90, 120)};
    const std::vector<std::int64_t> self = selfTimesNs(spans);
    check(self[0] == 100 - 50 - 10,
          "self time counts overlapping children once, clips overhang");
    check(self[1] == 25, "nested child subtracted from its parent only");
    check(self[2] == 30 && self[3] == 5 && self[4] == 30,
          "leaf self time is its duration");

    // Disjoint, fully nested children: self times sum to the root.
    const std::vector<Span> flat = {span(1, 0, 0, 100), span(2, 1, 0, 30),
                                    span(3, 1, 30, 70), span(4, 3, 40, 50)};
    std::int64_t total = 0;
    for (std::int64_t s : selfTimesNs(flat))
        total += s;
    check(total == 100, "self times of a proper tree sum to the root");
}

void
testMetricNames()
{
    check(legalMetricName("latency_p50_ms"), "plain name is legal");
    check(legalMetricName("nn.conv_ms.conv13"), "dotted name is legal");
    check(legalMetricName("9-lives_ok"), "digit first is legal");
    check(!legalMetricName(""), "empty name is illegal");
    check(!legalMetricName(".hidden"), "leading dot is illegal");
    check(!legalMetricName("has space"), "space is illegal");
    check(!legalMetricName("slash/name"), "slash is illegal");
    check(!legalMetricName(std::string(65, 'a')), "65 letters is illegal");
    check(legalMetricName(std::string(64, 'a')), "64 letters is legal");
    check(!legalMetricName("a+b") && !legalMetricName("a:b"),
          "punctuation other than _ . - is illegal");
}

void
testSchedule()
{
    const double rate = workloadByName("lenet_mix")->openLoopRate;
    const auto a = openLoopSchedule(7, rate, 20.0);
    const auto b = openLoopSchedule(7, rate, 20.0);
    const auto c = openLoopSchedule(8, rate, 20.0);
    bool same = a.size() == b.size(), differ = false;
    for (std::size_t i = 0; same && i < a.size(); ++i)
        same = a[i].atMs == b[i].atMs && a[i].interactive == b[i].interactive;
    std::size_t classDiffs = 0;
    for (std::size_t i = 0; i < a.size() && i < c.size(); ++i) {
        differ = differ || a[i].atMs != c[i].atMs;
        classDiffs += a[i].interactive != c[i].interactive ? 1 : 0;
    }
    check(same, "same seed gives the same schedule and class mix");
    check(differ && classDiffs > 0,
          "another seed gives other times and another class order");
    std::size_t interactive = 0;
    for (const Arrival &x : a)
        interactive += x.interactive ? 1 : 0;
    check(interactive == a.size() / 2, "exactly half are Interactive");
    check(requestMcSeed(7, 3) == requestMcSeed(7, 3) &&
              requestMcSeed(7, 3) != requestMcSeed(8, 3) &&
              requestInputSeed(7, 3) != requestInputSeed(7, 4),
          "request seeds are pure functions of (run seed, index)");
}

void
testPoissonRate()
{
    const double rate = workloadByName("lenet_mix")->openLoopRate;
    const double seconds = 600.0;
    const auto s = openLoopSchedule(11, rate, seconds);
    const double realised = static_cast<double>(s.size()) / seconds;
    check(std::fabs(realised - rate) <= 1.0 / seconds,
          "realised arrival rate equals the constant");
    double sum = 0.0, sq = 0.0;
    double prev = 0.0;
    for (const Arrival &a : s) {
        const double gap = (a.atMs - prev) / 1e3;
        sum += gap;
        sq += gap * gap;
        prev = a.atMs;
    }
    const double n = static_cast<double>(s.size());
    const double m = sum / n;
    const double cv = std::sqrt(sq / n - m * m) / m;
    check(std::fabs(m * rate - 1.0) < 0.02,
          "mean inter-arrival gap is 1/rate");
    check(std::fabs(cv - 1.0) < 0.05,
          "inter-arrival gaps are exponential (CV ~ 1)");
    bool sorted = true;
    for (std::size_t i = 1; i < s.size(); ++i)
        sorted = sorted && s[i - 1].atMs <= s[i].atMs;
    check(sorted && s.back().atMs < seconds * 1e3,
          "arrivals are ordered inside the window");
}

void
testNonDegeneracy()
{
    const WorkloadSpec vgg = *workloadByName("vgg_dense");
    fastbcnn::ModelOptions mopts;
    mopts.widthMultiplier = 0.5;
    const Network raw = fastbcnn::buildVgg16(mopts);
    const Status refused = checkNonDegenerate(raw, probeInputs(vgg.model));
    check(!refused.isOk(), "uncalibrated B-VGG16 w0.5 is refused");
    std::printf("     (%s)\n", refused.toString().c_str());

    const Network calibrated = buildCalibratedNetwork(vgg);
    const Status accepted =
        checkNonDegenerate(calibrated, probeInputs(vgg.model));
    check(accepted.isOk(), "calibrated B-VGG16 w0.5 is accepted");

    const Network lenet =
        buildCalibratedNetwork(*workloadByName("lenet_mix"));
    check(checkNonDegenerate(lenet, probeInputs(ModelKind::LeNet5)).isOk(),
          "calibrated B-LeNet-5 is accepted");
}

} // namespace

int
main()
{
    testPercentileRule();
    testSelfTime();
    testMetricNames();
    testSchedule();
    testPoissonRate();
    testNonDegeneracy();
    std::printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL",
                failures);
    return failures == 0 ? 0 : 1;
}
