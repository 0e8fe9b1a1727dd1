/**
 * @file
 * In-memory host-time spans and the small statistics the benchmark
 * reports over them.
 *
 * A SpanRecorder belongs to one simulation point and one thread.  The
 * benchmark opens a span around each public call it makes into a
 * simulator layer; spans nest through an open-span stack, so every
 * span knows the span that caused it.  Nothing is written until the
 * run ends (writeSpansJsonl).
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Nanoseconds on the steady clock (the span time base). */
std::int64_t nowNs();

/** Seconds between two nowNs() readings. */
inline double
secondsBetween(std::int64_t start_ns, std::int64_t end_ns)
{
    return static_cast<double>(end_ns - start_ns) * 1e-9;
}

/** One recorded interval. */
struct Span
{
    const char *name = ""; ///< static string: the layer call it wraps
    std::int32_t parent = -1; ///< index in the same recorder; -1 = root
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;

    double seconds() const { return secondsBetween(startNs, endNs); }
};

/** Spans of one point, recorded by one thread. */
class SpanRecorder
{
  public:
    explicit SpanRecorder(std::string point_id) : pointId(std::move(point_id))
    {
    }

    /** Open a span whose parent is the innermost open span. */
    std::size_t open(const char *name);
    /** Close span `index`, the innermost open span. */
    void close(std::size_t index);

    const std::vector<Span> &spans() const { return items; }
    const std::string &point() const { return pointId; }

  private:
    std::string pointId;
    std::vector<Span> items;
    std::vector<std::size_t> stack;
};

/** RAII span; a null recorder makes it a no-op (untraced runs). */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder *recorder, const char *name)
        : rec(recorder), index(recorder ? recorder->open(name) : 0)
    {
    }
    ~ScopedSpan()
    {
        if (rec)
            rec->close(index);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanRecorder *rec;
    std::size_t index;
};

/**
 * Self time of every span: its duration minus the part of its
 * interval covered by its direct children (the union of the children's
 * intervals clipped to the parent, so overlapping or out-of-range
 * children are never counted twice).
 */
std::vector<double> selfSeconds(const std::vector<Span> &spans);

/** Per-name totals over a set of spans. */
struct NameTotals
{
    std::uint64_t count = 0;
    double totalSeconds = 0;
    double selfSeconds = 0;
};

/** Accumulate `spans` into per-name totals. */
void addNameTotals(const std::vector<Span> &spans,
                   std::map<std::string, NameTotals> &totals);

/**
 * Write spans as JSON lines, one object per span:
 * {"point", "id", "name", "parent", "start_ns", "end_ns", "self_ns"}.
 * `id` and `parent` index spans within their point; start/end are
 * steady-clock nanoseconds.  Returns false when the file cannot be
 * written.
 */
bool writeSpansJsonl(const std::string &path,
                     const std::vector<const SpanRecorder *> &recorders);

/** Median (mean of the middle pair for an even count); 0 when empty. */
double median(std::vector<double> values);

/**
 * The three quartile cut points of `values`, computed exactly as
 * Python's statistics.quantiles(values, n=4) with its default
 * 'exclusive' method.  Needs at least two values.
 */
std::vector<double> quartiles(std::vector<double> values);

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
