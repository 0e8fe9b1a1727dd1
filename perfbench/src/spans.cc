#include "spans.hh"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace perfbench
{

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

std::size_t
SpanRecorder::open(const char *name)
{
    Span span;
    span.name = name;
    span.parent = stack.empty() ? -1
                                : static_cast<std::int32_t>(stack.back());
    span.startNs = nowNs();
    items.push_back(span);
    stack.push_back(items.size() - 1);
    return items.size() - 1;
}

void
SpanRecorder::close(std::size_t index)
{
    // ScopedSpan's scoping keeps spans nested: `index` is the top.
    stack.pop_back();
    items[index].endNs = nowNs();
}

std::vector<double>
selfSeconds(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::size_t>> children(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        std::int32_t p = spans[i].parent;
        if (p >= 0 && static_cast<std::size_t>(p) < spans.size())
            children[static_cast<std::size_t>(p)].push_back(i);
    }

    std::vector<double> self(spans.size());
    std::vector<std::pair<std::int64_t, std::int64_t>> cover;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &span = spans[i];
        cover.clear();
        for (std::size_t c : children[i]) {
            std::int64_t lo = std::max(spans[c].startNs, span.startNs);
            std::int64_t hi = std::min(spans[c].endNs, span.endNs);
            if (hi > lo)
                cover.emplace_back(lo, hi);
        }
        std::sort(cover.begin(), cover.end());
        std::int64_t covered = 0;
        std::int64_t run_lo = 0, run_hi = 0;
        bool open_run = false;
        for (const auto &[lo, hi] : cover) {
            if (open_run && lo <= run_hi) {
                run_hi = std::max(run_hi, hi);
                continue;
            }
            if (open_run)
                covered += run_hi - run_lo;
            run_lo = lo;
            run_hi = hi;
            open_run = true;
        }
        if (open_run)
            covered += run_hi - run_lo;
        self[i] = secondsBetween(0, span.endNs - span.startNs - covered);
    }
    return self;
}

void
addNameTotals(const std::vector<Span> &spans,
              std::map<std::string, NameTotals> &totals)
{
    std::vector<double> self = selfSeconds(spans);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        NameTotals &t = totals[spans[i].name];
        ++t.count;
        t.totalSeconds += spans[i].seconds();
        t.selfSeconds += self[i];
    }
}

bool
writeSpansJsonl(const std::string &path,
                const std::vector<const SpanRecorder *> &recorders)
{
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (!out)
        return false;
    for (const SpanRecorder *rec : recorders) {
        const std::vector<Span> &spans = rec->spans();
        std::vector<double> self = selfSeconds(spans);
        for (std::size_t i = 0; i < spans.size(); ++i)
            std::fprintf(out,
                         "{\"point\":\"%s\",\"id\":%zu,\"name\":\"%s\","
                         "\"parent\":%d,\"start_ns\":%lld,"
                         "\"end_ns\":%lld,\"self_ns\":%lld}\n",
                         rec->point().c_str(), i, spans[i].name,
                         static_cast<int>(spans[i].parent),
                         static_cast<long long>(spans[i].startNs),
                         static_cast<long long>(spans[i].endNs),
                         static_cast<long long>(self[i] * 1e9 + 0.5));
    }
    return std::fclose(out) == 0;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : (values[n / 2 - 1] + values[n / 2]) / 2;
}

std::vector<double>
quartiles(std::vector<double> values)
{
    // statistics.quantiles(data, n=4, method='exclusive').
    const long n = 4;
    const long ld = static_cast<long>(values.size());
    if (ld < 2)
        throw std::invalid_argument("quartiles need at least two values");
    std::sort(values.begin(), values.end());
    const long m = ld + 1;
    std::vector<double> cuts;
    for (long i = 1; i < n; ++i) {
        long j = i * m / n;
        j = j < 1 ? 1 : j > ld - 1 ? ld - 1 : j;
        long delta = i * m - j * n;
        cuts.push_back((values[static_cast<std::size_t>(j - 1)] *
                            static_cast<double>(n - delta) +
                        values[static_cast<std::size_t>(j)] *
                            static_cast<double>(delta)) /
                       static_cast<double>(n));
    }
    return cuts;
}

} // namespace perfbench
