/**
 * @file
 * Small statistics and reporting helpers of the serving benchmark:
 * nearest-rank percentiles with the "at least ten samples beyond"
 * rule, metric-name legality, and the one-line JSON result.
 */

#ifndef PERFBENCH_STATS_HPP
#define PERFBENCH_STATS_HPP

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

/** Samples a reported percentile needs strictly beyond it. */
inline constexpr std::size_t kMinBeyond = 10;

/**
 * Nearest-rank percentile of @p values (need not be sorted; +inf
 * entries stand for failed or refused requests and sort last).
 * @param q in (0, 1]
 * @return the value at rank ceil(q·n), or 0 for an empty input
 */
double percentile(std::vector<double> values, double q);

/** @return how many of @p n samples lie beyond the q-th percentile. */
std::size_t samplesBeyond(std::size_t n, double q);

/**
 * @return the q-th percentile of @p values when at least kMinBeyond
 * samples lie beyond it, else 0 (the sample cannot support it).
 */
double supportedPercentile(const std::vector<double> &values, double q);

/** @return the arithmetic mean (0 for an empty input). */
double mean(const std::vector<double> &values);

/**
 * @return true when @p name is a legal metric name: 1 to 64 letters,
 * digits, '_', '.', '-', starting with a letter or digit.
 */
bool legalMetricName(std::string_view name);

/** One reported metric. */
struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** An ordered set of metrics with the run's pass/fail accounting. */
class Report
{
  public:
    /** Add a metric; a duplicate or illegal name panics (a bug). */
    void add(std::string name, double value, std::string unit);

    /**
     * @return the result line: {"correct", "attempted", "failed",
     * "metrics": {name: {"value", "unit"}}} on one line.
     */
    std::string json(bool correct, std::size_t attempted,
                     std::size_t failed) const;

  private:
    std::vector<Metric> metrics_;
};

/** @return @p s escaped for a JSON string literal (no quotes). */
std::string jsonEscape(std::string_view s);

/** @return @p v formatted with all significant digits for JSON. */
std::string jsonNumber(double v);

} // namespace perfbench

#endif // PERFBENCH_STATS_HPP
