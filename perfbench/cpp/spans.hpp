/**
 * @file
 * In-memory trace spans recorded around the library calls the
 * benchmark makes, and the self-time arithmetic over them.  Spans are
 * only recorded by the traced run; they are written out at exit.
 */

#ifndef PERFBENCH_SPANS_HPP
#define PERFBENCH_SPANS_HPP

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** One recorded interval. */
struct Span {
    std::uint32_t id = 0;       ///< 1-based; index + 1 in the recorder
    std::uint32_t parent = 0;   ///< 0 = root
    std::uint32_t request = 0;  ///< the request the work belongs to
    std::string name;           ///< "<module>.<operation>"
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;

    double ms() const { return static_cast<double>(endNs - startNs) / 1e6; }
};

/** Records spans in memory (single-threaded use). */
class SpanRecorder
{
  public:
    SpanRecorder() : origin_(std::chrono::steady_clock::now()) {}

    /** Open a span now; @return its id. */
    std::uint32_t begin(std::string name, std::uint32_t parent,
                        std::uint32_t request);
    /** Close span @p id now. */
    void end(std::uint32_t id);

    const std::vector<Span> &spans() const { return spans_; }

    /** Write one JSON object per span to @p path; @return success. */
    bool writeJsonLines(const std::string &path) const;

  private:
    std::int64_t nowNs() const;

    std::chrono::steady_clock::time_point origin_;
    std::vector<Span> spans_;
};

/** RAII span: opened by the constructor, closed by the destructor. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &rec, std::string name, std::uint32_t parent,
               std::uint32_t request)
        : rec_(rec), id_(rec.begin(std::move(name), parent, request))
    {}
    ~ScopedSpan() { rec_.end(id_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::uint32_t id() const { return id_; }

  private:
    SpanRecorder &rec_;
    std::uint32_t id_;
};

/**
 * Self time of every span in ns: its duration minus the part of its
 * interval that its direct children cover.  Children may nest or
 * overlap each other; overlapping coverage is counted once, and
 * coverage outside the parent's interval is ignored.
 * @return one entry per span, in span order
 */
std::vector<std::int64_t> selfTimesNs(const std::vector<Span> &spans);

} // namespace perfbench

#endif // PERFBENCH_SPANS_HPP
