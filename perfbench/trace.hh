/**
 * @file
 * In-memory span recorder for the benchmark's traced pass, plus the
 * self-time arithmetic that turns spans into a per-layer ledger.
 *
 * A span is {name, layer, start, end, parent}. The harness opens spans
 * around its own calls into the library (ExperimentRunner::run,
 * SweepDriver::run, ...) and adds the System construct/run/teardown
 * spans after each pass from the timestamps its probe workloads take,
 * so the library itself is never instrumented. A span's self time is
 * its duration minus the part of its interval covered by the union of
 * its children — children may overlap when they ran on different
 * worker threads, and the union keeps them from being subtracted
 * twice.
 */

#ifndef TOKENCMP_PERFBENCH_TRACE_HH
#define TOKENCMP_PERFBENCH_TRACE_HH

#include <algorithm>
#include <chrono>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds since a fixed process-wide origin. */
inline double
now()
{
    static const Clock::time_point origin = Clock::now();
    return std::chrono::duration<double>(Clock::now() - origin).count();
}

struct Span
{
    std::string name;
    std::string layer;  //!< src/ module the span's self time charges
    double start = 0.0;
    double end = 0.0;
    int parent = -1;    //!< index into the span list; -1 for a root
};

/** Length of the union of [start, end) intervals, each clipped to
 *  [lo, hi). */
inline double
coveredLength(std::vector<std::pair<double, double>> iv, double lo,
              double hi)
{
    for (auto &[s, e] : iv) {
        s = std::max(s, lo);
        e = std::min(e, hi);
    }
    std::sort(iv.begin(), iv.end());
    double total = 0.0;
    double cur_s = 0.0;
    double cur_e = 0.0;
    bool open = false;
    for (const auto &[s, e] : iv) {
        if (e <= s)
            continue;
        if (open && s <= cur_e) {
            cur_e = std::max(cur_e, e);
            continue;
        }
        if (open)
            total += cur_e - cur_s;
        cur_s = s;
        cur_e = e;
        open = true;
    }
    if (open)
        total += cur_e - cur_s;
    return total;
}

/** Self time of every span: duration minus its children's union. */
inline std::vector<double>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<double, double>>> kids(
        spans.size());
    for (const Span &s : spans) {
        if (s.parent >= 0 && std::size_t(s.parent) < spans.size())
            kids[s.parent].emplace_back(s.start, s.end);
    }
    std::vector<double> out(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        out[i] = (s.end - s.start) -
                 coveredLength(kids[i], s.start, s.end);
    }
    return out;
}

/** Self time summed per layer. */
inline std::map<std::string, double>
selfTimeByLayer(const std::vector<Span> &spans)
{
    const std::vector<double> self = selfTimes(spans);
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans.size(); ++i)
        out[spans[i].layer] += self[i];
    return out;
}

/**
 * Span list for one traced pass. Spans are opened and closed on the
 * harness's main thread only; spans measured on worker threads are
 * added whole with add() once the pass has joined them. When off,
 * every call is a no-op, and open() returns -1.
 */
class Tracer
{
  public:
    explicit Tracer(bool on) : _on(on) {}

    int
    open(const std::string &name, const std::string &layer,
         int parent = -1)
    {
        if (!_on)
            return -1;
        _spans.push_back({name, layer, now(), 0.0, parent});
        return int(_spans.size()) - 1;
    }

    void
    close(int id)
    {
        if (id >= 0)
            _spans[id].end = now();
    }

    void
    add(Span s)
    {
        if (_on)
            _spans.push_back(std::move(s));
    }

    const std::vector<Span> &spans() const { return _spans; }

  private:
    bool _on;
    std::vector<Span> _spans;
};

} // namespace perfbench

#endif // TOKENCMP_PERFBENCH_TRACE_HH
