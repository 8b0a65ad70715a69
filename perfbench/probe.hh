/**
 * @file
 * Probe workload: a transparent Workload wrapper that timestamps the
 * life of the System running it, from outside the library.
 *
 * ExperimentRunner calls reset() on a fresh workload right before it
 * constructs the System, System::run() calls makeWarmupThread() first
 * and violations() after its final drain, and the workload is
 * destroyed right after the System. Those four hooks bound the spans
 *
 *   system.construct  reset()              -> first makeWarmupThread()
 *   system.run        first makeWarmupThread() -> violations()
 *   system.teardown   violations()         -> ~ProbeWorkload()
 *
 * (teardown covers stats harvest plus System destruction). At
 * violations() every domain's event queue has drained, so the probe
 * reads EventQueue::executed() from each SimContext it was handed.
 * Every call forwards to the wrapped workload unchanged, so simulated
 * results are identical with and without the probe.
 */

#ifndef TOKENCMP_PERFBENCH_PROBE_HH
#define TOKENCMP_PERFBENCH_PROBE_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/controller.hh"
#include "trace.hh"
#include "workload/workload.hh"

namespace perfbench {

/** Protocol family of a probed System (Unknown when not attributable). */
enum class Family : unsigned char { Token, Directory, Hier, Perfect, Unknown };

inline const char *
familyName(Family f)
{
    switch (f) {
    case Family::Token: return "token";
    case Family::Directory: return "directory";
    case Family::Hier: return "hier";
    case Family::Perfect: return "perfect";
    case Family::Unknown: break;
    }
    return "unknown";
}

/** One probed System's life. */
struct SystemRecord
{
    Family family = Family::Unknown;
    int parent = -1;         //!< span the System ran under
    double constructAt = 0;  //!< reset()
    double runAt = 0;        //!< first makeWarmupThread()
    double endAt = 0;        //!< violations()
    double goneAt = 0;       //!< ~ProbeWorkload()
    bool ran = false;        //!< run reached its final drain
    std::vector<std::uint64_t> domainEvents;  //!< executed, per domain

    double constructS() const { return runAt - constructAt; }
    double runS() const { return endAt - runAt; }
    double teardownS() const { return goneAt - endAt; }

    std::uint64_t
    events() const
    {
        std::uint64_t n = 0;
        for (std::uint64_t e : domainEvents)
            n += e;
        return n;
    }
};

/** Thread-safe sink for SystemRecords. */
class Ledger
{
  public:
    void
    add(SystemRecord r)
    {
        std::lock_guard<std::mutex> lock(_mu);
        _records.push_back(std::move(r));
    }

    /** Take every record added so far. */
    std::vector<SystemRecord>
    drain()
    {
        std::lock_guard<std::mutex> lock(_mu);
        return std::exchange(_records, {});
    }

  private:
    std::mutex _mu;
    std::vector<SystemRecord> _records;
};

class ProbeWorkload : public tokencmp::Workload
{
  public:
    ProbeWorkload(std::unique_ptr<tokencmp::Workload> inner, Family family,
                  Ledger &ledger, int parent)
        : _inner(std::move(inner)), _ledger(ledger)
    {
        _rec.family = family;
        _rec.parent = parent;
        _rec.constructAt = now();
    }

    ProbeWorkload(const ProbeWorkload &) = delete;
    ProbeWorkload &operator=(const ProbeWorkload &) = delete;

    ~ProbeWorkload() override
    {
        _rec.goneAt = now();
        if (!_rec.ran)
            _rec.endAt = _rec.runAt = std::max(_rec.runAt, _rec.constructAt);
        _ledger.add(std::move(_rec));
    }

    std::unique_ptr<tokencmp::ThreadContext>
    makeThread(tokencmp::SimContext &ctx, tokencmp::Sequencer &seq,
               unsigned num_procs, std::uint64_t seed) override
    {
        noteContext(ctx);
        return _inner->makeThread(ctx, seq, num_procs, seed);
    }

    std::unique_ptr<tokencmp::ThreadContext>
    makeWarmupThread(tokencmp::SimContext &ctx, tokencmp::Sequencer &seq,
                     unsigned num_procs, std::uint64_t seed) override
    {
        if (!_started) {
            _started = true;
            _rec.runAt = now();
        }
        noteContext(ctx);
        return _inner->makeWarmupThread(ctx, seq, num_procs, seed);
    }

    void
    reset() override
    {
        _rec.constructAt = now();
        _inner->reset();
    }

    std::uint64_t
    violations() const override
    {
        if (!_rec.ran) {
            _rec.endAt = now();
            _rec.ran = true;
            for (const tokencmp::SimContext *c : _contexts)
                _rec.domainEvents.push_back(c->eventq.executed());
        }
        return _inner->violations();
    }

    tokencmp::Tick
    measureStart() const override
    {
        return _inner->measureStart();
    }

    std::string name() const override { return _inner->name(); }

  private:
    void
    noteContext(const tokencmp::SimContext &ctx)
    {
        if (std::find(_contexts.begin(), _contexts.end(), &ctx) ==
            _contexts.end())
            _contexts.push_back(&ctx);
    }

    std::unique_ptr<tokencmp::Workload> _inner;
    Ledger &_ledger;
    std::vector<const tokencmp::SimContext *> _contexts;
    bool _started = false;  //!< System::run has begun
    mutable SystemRecord _rec;  //!< violations() is const in Workload
};

} // namespace perfbench

#endif // TOKENCMP_PERFBENCH_PROBE_HH
