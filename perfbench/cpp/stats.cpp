#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/logging.hpp"

namespace perfbench {

double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const auto n = static_cast<double>(values.size());
    std::size_t rank = static_cast<std::size_t>(std::ceil(q * n));
    rank = std::clamp<std::size_t>(rank, 1, values.size());
    return values[rank - 1];
}

std::size_t
samplesBeyond(std::size_t n, double q)
{
    if (n == 0)
        return 0;
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(n)));
    return n - std::clamp<std::size_t>(rank, 1, n);
}

double
supportedPercentile(const std::vector<double> &values, double q)
{
    return samplesBeyond(values.size(), q) >= kMinBeyond
               ? percentile(values, q)
               : 0.0;
}

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

bool
legalMetricName(std::string_view name)
{
    if (name.empty() || name.size() > 64)
        return false;
    const auto alnum = [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
               (c >= '0' && c <= '9');
    };
    if (!alnum(name.front()))
        return false;
    return std::all_of(name.begin(), name.end(), [&](char c) {
        return alnum(c) || c == '_' || c == '.' || c == '-';
    });
}

void
Report::add(std::string name, double value, std::string unit)
{
    if (!legalMetricName(name))
        fastbcnn::panic("illegal metric name '%s'", name.c_str());
    for (const Metric &m : metrics_) {
        if (m.name == name)
            fastbcnn::panic("duplicate metric '%s'", name.c_str());
    }
    metrics_.push_back(Metric{std::move(name), value, std::move(unit)});
}

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
Report::json(bool correct, std::size_t attempted, std::size_t failed) const
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        const Metric &m = metrics_[i];
        if (i > 0)
            out += ", ";
        out += "\"" + m.name + "\": {\"value\": " + jsonNumber(m.value) +
               ", \"unit\": \"" + jsonEscape(m.unit) + "\"}";
    }
    out += "}}";
    return out;
}

} // namespace perfbench
