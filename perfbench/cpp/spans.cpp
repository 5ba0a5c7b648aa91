#include "spans.hpp"

#include <algorithm>
#include <fstream>
#include <utility>

#include "stats.hpp"

namespace perfbench {

std::int64_t
SpanRecorder::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
}

std::uint32_t
SpanRecorder::begin(std::string name, std::uint32_t parent,
                    std::uint32_t request)
{
    Span s;
    s.id = static_cast<std::uint32_t>(spans_.size() + 1);
    s.parent = parent;
    s.request = request;
    s.name = std::move(name);
    s.startNs = nowNs();
    spans_.push_back(std::move(s));
    return spans_.back().id;
}

void
SpanRecorder::end(std::uint32_t id)
{
    spans_[id - 1].endNs = nowNs();
}

bool
SpanRecorder::writeJsonLines(const std::string &path) const
{
    std::ofstream out(path);
    for (const Span &s : spans_) {
        out << "{\"id\": " << s.id << ", \"parent\": " << s.parent
            << ", \"request\": " << s.request << ", \"name\": \""
            << jsonEscape(s.name) << "\", \"start_ns\": " << s.startNs
            << ", \"end_ns\": " << s.endNs << "}\n";
    }
    return static_cast<bool>(out);
}

std::vector<std::int64_t>
selfTimesNs(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
        spans.size());
    for (const Span &s : spans) {
        if (s.parent == 0 || s.parent > spans.size())
            continue;
        const Span &p = spans[s.parent - 1];
        const std::int64_t lo = std::max(s.startNs, p.startNs);
        const std::int64_t hi = std::min(s.endNs, p.endNs);
        if (lo < hi)
            kids[s.parent - 1].emplace_back(lo, hi);
    }
    std::vector<std::int64_t> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        std::int64_t covered = 0;
        std::int64_t curLo = 0, curHi = 0;
        bool open = false;
        for (const auto &[lo, hi] : iv) {
            if (open && lo <= curHi) {
                curHi = std::max(curHi, hi);
                continue;
            }
            if (open)
                covered += curHi - curLo;
            curLo = lo;
            curHi = hi;
            open = true;
        }
        if (open)
            covered += curHi - curLo;
        self[i] = (spans[i].endNs - spans[i].startNs) - covered;
    }
    return self;
}

} // namespace perfbench
