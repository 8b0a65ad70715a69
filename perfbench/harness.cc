/**
 * @file
 * One pass of the repository benchmark: drives the simulator through
 * its public API and prints the pass's metrics (see perfbench/README.md
 * for the workloads, the metric map and the baseline).
 *
 *   perfbench --workload figures|sharded|grid --seed N --trace 0|1
 *             [--pass K] [--out-dir DIR] [--git-sha SHA] [--horizon-ns T]
 *
 * perfbench/run.py runs passes in fresh processes until its time is
 * up, checks every op's digest against the other passes, and reports
 * medians. Each pass is its own process, so every sample starts as a
 * user's run does (fresh heap, first-touch page faults) and the median
 * spans process-to-process variation too. The last stdout line is one
 * JSON object:
 * {traced, wall, attempted, failed, failures, digests, metrics}, with
 * end-to-end metrics (--trace 0) or the per-layer ledger (--trace 1).
 */

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "probe.hh"
#include "sweep/json.hh"
#include "sweep/param_grid.hh"
#include "sweep/sweep_driver.hh"
#include "system/experiment.hh"
#include "trace.hh"
#include "workload/locking.hh"
#include "workload/synthetic.hh"
#include "workload/workload_registry.hh"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_FLAGS
#define PERFBENCH_FLAGS ""
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace tokencmp;

namespace perfbench {
namespace {

// ---- Workload shape ------------------------------------------------

/** Worker threads: the 4-core host the benchmark is sized for. */
constexpr unsigned kWorkers = 4;
/** Seeds per figures cell: 432 simulations a pass, enough work that
 *  the pass time holds still between runs. */
constexpr unsigned kFigureSeeds = 16;
/** sharded run sizes: past the HierShim residency cap on the OLTP
 *  proxy, and ~1/3 of locking misses on the persistent path. */
constexpr unsigned kLongOps = 5000;
constexpr unsigned kLongLocks = 16;
constexpr unsigned kLongAcquires = 1000;

/** Figure 6 "X% faster than DirectoryCMP" for TokenCMP-dst1. */
const std::map<std::string, double> kPaperSpeedupPct = {
    {"OLTP", 50.0}, {"Apache", 29.0}, {"SpecJBB", 10.0}};

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    bool trace = false;
    unsigned pass = 1;  //!< names the spans file
    std::string outDir = ".";
    std::string gitSha = "unknown";
    std::uint64_t horizonNs = 0;  //!< 0: the library default
};

/** Simulation seeds of benchmark seed `s` (disjoint windows). */
std::uint64_t
firstSimSeed(std::uint64_t s)
{
    return s * 1000 + 1;
}

Family
familyOf(Protocol p)
{
    if (isToken(p))
        return Family::Token;
    switch (p) {
    case Protocol::DirectoryCMP:
    case Protocol::DirectoryCMPZero:
        return Family::Directory;
    case Protocol::HierCMP:
        return Family::Hier;
    case Protocol::PerfectL2:
        return Family::Perfect;
    default:
        return Family::Unknown;
    }
}

// ---- Probed grid workloads -----------------------------------------

/** Collects the SystemRecords of every probed System. */
Ledger g_ledger;
/** Span the grid's probed Systems run under (sweep.run). */
std::atomic<int> g_gridParent{-1};
/** Family of grid Systems: Unknown inside SweepDriver::run, whose
 *  cells the probe cannot attribute; set for attribution samples. */
std::atomic<Family> g_gridFamily{Family::Unknown};

std::unique_ptr<Workload>
probed(std::unique_ptr<Workload> inner)
{
    return std::make_unique<ProbeWorkload>(
        std::move(inner), g_gridFamily.load(), g_ledger,
        g_gridParent.load());
}

const WorkloadRegistrar regZipf(
    "probed-zipf", [](const WorkloadParams &wp) {
        return probed(WorkloadRegistry::instance().create("zipf", wp));
    });

const WorkloadRegistrar regOltp(
    "probed-oltp", [](const WorkloadParams &wp) {
        return probed(WorkloadRegistry::instance().create("oltp", wp));
    });

/** The Figure 6 OLTP proxy (only opsPerProc is taken from the grid). */
const WorkloadRegistrar regOltpProxy(
    "probed-oltp-proxy", [](const WorkloadParams &wp) {
        SyntheticParams p = oltpParams();
        if (wp.opsPerProc != 0)
            p.opsPerProc = wp.opsPerProc;
        return probed(std::make_unique<SyntheticWorkload>(p));
    });

const char *kGridTemplate = R"({
  "name": "perfbench_grid",
  "policies": ["dst1", "directory", "hier"],
  "workloads": ["probed-zipf", "probed-oltp", "probed-oltp-proxy"],
  "seeds": 8,
  "firstSeed": @FIRST@,
  "horizonNs": @HORIZON@,
  "workloadKnobs": {"opsPerProc": 600, "keys": 256},
  "overrides": [
    {"label": "default"},
    {"label": "smallpred",
     "knobs": {"token.cmpPredEntries": 64, "token.cmpPredWays": 2}}
  ]
}
)";

// ---- One pass ------------------------------------------------------

/** One simulation (figures/sharded) or grid cell. */
struct Op
{
    std::string key;     //!< (config, input, shard map, seed)
    std::string config;  //!< protocol display name
    std::string input;   //!< workload input label
    bool ok = false;
    bool checked = false;  //!< has a digest to repeat-check
    double runtime = 0.0;
    std::map<std::string, double> stats;
    std::uint64_t digest = 0;
};

struct Pass
{
    double wall = 0.0;
    double cpu = 0.0;
    double gridLoad = 0.0;
    double sweepRun = 0.0;
    double sweepReport = 0.0;
    double journalBytes = 0.0;
    unsigned attempted = 0;
    unsigned failed = 0;
    std::vector<Op> ops;
    std::vector<SystemRecord> systems;
    std::vector<SystemRecord> samples;  //!< grid attribution samples
    std::vector<Span> spans;
    std::vector<std::string> failures;
};

std::uint64_t
fnv(std::uint64_t h, const void *data, std::size_t n)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

std::uint64_t
digestRun(const System::RunResult &r)
{
    std::uint64_t h = kFnvBasis;
    h = fnv(h, &r.completed, sizeof r.completed);
    h = fnv(h, &r.runtime, sizeof r.runtime);
    h = fnv(h, &r.violations, sizeof r.violations);
    for (const auto &[k, v] : r.stats.all()) {
        h = fnv(h, k.data(), k.size());
        h = fnv(h, &v, sizeof v);
    }
    return h;
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_utime.tv_sec) + 1e-6 * double(ru.ru_utime.tv_usec) +
           double(ru.ru_stime.tv_sec) + 1e-6 * double(ru.ru_stime.tv_usec);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/** Runs the ExperimentRunner-driven workloads and the grid. */
class Bench
{
  public:
    explicit Bench(const Options &o) : _o(o)
    {
        if (_o.workload == "grid")
            writeGrid();
    }

    Pass
    runPass(bool traced)
    {
        Pass p;
        Tracer tr(traced);
        g_ledger.drain();
        const double cpu0 = cpuSeconds();
        const double t0 = now();
        const int root = tr.open("pass", "perfbench");
        if (_o.workload == "figures")
            figures(p, tr, root);
        else if (_o.workload == "sharded")
            sharded(p, tr, root);
        else
            grid(p, tr, root);
        tr.close(root);
        p.wall = now() - t0;
        p.cpu = cpuSeconds() - cpu0;
        p.systems = g_ledger.drain();
        if (traced && _o.workload == "grid")
            attributionSamples(p);
        for (const SystemRecord &r : p.systems) {
            tr.add({"system.construct", "system", r.constructAt, r.runAt,
                    r.parent});
            tr.add({"system.run", "sim", r.runAt, r.endAt, r.parent});
            tr.add({"system.teardown", "system", r.endAt, r.goneAt,
                    r.parent});
        }
        p.spans = tr.spans();
        return p;
    }

  private:
    Tick
    horizon() const
    {
        return _o.horizonNs ? ns(_o.horizonNs) : ns(500000000);
    }

    /** One ExperimentRunner::run call, its toJson export, and its ops. */
    void
    runCell(Pass &p, Tracer &tr, int root, SystemConfig cfg,
            const std::string &input,
            const std::function<std::unique_ptr<Workload>()> &make,
            unsigned seeds, unsigned parallelism)
    {
        const Family fam = familyOf(cfg.protocol);
        const std::string config = protocolName(cfg.protocol);
        const std::uint64_t first = firstSimSeed(_o.seed);
        const int span = tr.open("runner.run", "system", root);
        const ExperimentResult e =
            Experiment::of(cfg)
                .workload([&make, fam, span]() -> std::unique_ptr<Workload> {
                    return std::make_unique<ProbeWorkload>(
                        make(), fam, g_ledger, span);
                })
                .seeds(seeds)
                .parallelism(parallelism)
                .firstSeed(first)
                .horizon(horizon())
                .run();
        tr.close(span);
        const int js = tr.open("result.to_json", "system", root);
        const std::string json = e.toJson(config + "/" + input);
        tr.close(js);

        const std::string map =
            cfg.shards ? "/" + std::string(shardMapKindName(cfg.shardMap.kind))
                       : "/serial";
        const bool whole = e.perSeed.size() == seeds;
        p.attempted += seeds;
        p.failed += seeds - unsigned(e.perSeed.size());
        if (!whole) {
            p.failures.push_back(config + "/" + input + ": " +
                                 std::to_string(seeds - e.perSeed.size()) +
                                 " seed(s) did not complete");
        }
        for (std::size_t i = 0; i < e.perSeed.size(); ++i) {
            const System::RunResult &r = e.perSeed[i];
            Op op;
            op.config = config;
            op.input = input;
            op.key = config + "/" + input + map + "/s" +
                     (whole ? std::to_string(first + i)
                            : "completed" + std::to_string(i));
            op.ok = r.completed && r.violations == 0;
            if (!op.ok) {
                ++p.failed;
                p.failures.push_back(op.key + ": " +
                                     std::to_string(r.violations) +
                                     " violation(s)");
            }
            op.checked = true;
            op.runtime = double(r.runtime);
            op.stats = r.stats.all();
            op.digest = digestRun(r);
            p.ops.push_back(std::move(op));
        }
        // The exported report must repeat too: fold it into the first
        // op's digest of this cell.
        if (whole && !e.perSeed.empty()) {
            Op &head = p.ops[p.ops.size() - e.perSeed.size()];
            head.digest = fnv(head.digest, json.data(), json.size());
        }
    }

    void
    figures(Pass &p, Tracer &tr, int root)
    {
        const std::vector<Protocol> protos = {
            Protocol::DirectoryCMP,  Protocol::DirectoryCMP,
            Protocol::DirectoryCMPZero, Protocol::TokenDst4,
            Protocol::TokenDst1,     Protocol::TokenDst1Pred,
            Protocol::TokenDst1Filt, Protocol::HierCMP,
            Protocol::PerfectL2};  // first row: the normalization baseline
        for (const SyntheticParams &wl :
             {oltpParams(), apacheParams(), jbbParams()}) {
            for (Protocol proto : protos) {
                SystemConfig cfg;
                cfg.protocol = proto;
                runCell(p, tr, root, cfg, wl.label,
                        [wl]() { return std::make_unique<SyntheticWorkload>(wl); },
                        kFigureSeeds, kWorkers);
            }
        }
    }

    void
    sharded(Pass &p, Tracer &tr, int root)
    {
        SyntheticParams oltp = oltpParams();
        oltp.opsPerProc = kLongOps;
        LockingParams lock;
        lock.numLocks = kLongLocks;
        lock.acquiresPerProc = kLongAcquires;
        for (Protocol proto : {Protocol::TokenDst1, Protocol::DirectoryCMP,
                               Protocol::HierCMP}) {
            SystemConfig cfg;
            cfg.protocol = proto;
            cfg.shards = kWorkers;
            runCell(p, tr, root, cfg, "OLTP",
                    [oltp]() { return std::make_unique<SyntheticWorkload>(oltp); },
                    1, 1);
            runCell(p, tr, root, cfg, "locking16",
                    [lock]() { return std::make_unique<LockingWorkload>(lock); },
                    1, 1);
        }
    }

    void
    writeGrid()
    {
        std::string text = kGridTemplate;
        auto put = [&text](const std::string &at, const std::string &v) {
            text.replace(text.find(at), at.size(), v);
        };
        put("@FIRST@", std::to_string(firstSimSeed(_o.seed)));
        put("@HORIZON@",
            std::to_string(_o.horizonNs ? _o.horizonNs : 500000000));
        _gridPath = _o.outDir + "/perfbench_grid_seed" +
                    std::to_string(_o.seed) + ".json";
        _journalPath = _o.outDir + "/perfbench_grid_seed" +
                       std::to_string(_o.seed) + ".journal";
        std::ofstream(_gridPath) << text;
    }

    static const char *
    gridConfig(const std::string &policy)
    {
        if (policy == "directory")
            return "DirectoryCMP";
        if (policy == "hier")
            return "HierCMP";
        return "TokenCMP-dst1";
    }

    static Family
    gridFamily(const std::string &policy)
    {
        if (policy == "directory")
            return Family::Directory;
        if (policy == "hier")
            return Family::Hier;
        return Family::Token;
    }

    void
    grid(Pass &p, Tracer &tr, int root)
    {
        double t = now();
        const int load = tr.open("sweep.grid_load", "sweep", root);
        _grid = std::make_unique<ParamGrid>(ParamGrid::fromFile(_gridPath));
        tr.close(load);
        p.gridLoad = now() - t;

        std::remove(_journalPath.c_str());
        SweepOptions so;
        so.journalPath = _journalPath;
        so.threads = kWorkers;
        so.verbose = false;
        SweepDriver driver(*_grid, so);
        t = now();
        const int run = tr.open("sweep.run", "sweep", root);
        g_gridParent = run;
        const SweepDriver::Summary sum = driver.run();
        g_gridParent = -1;
        tr.close(run);
        p.sweepRun = now() - t;

        t = now();
        const int rep = tr.open("sweep.report", "sweep", root);
        const std::string report = driver.mergedReport();
        tr.close(rep);
        p.sweepReport = now() - t;

        p.attempted += sum.total;
        p.failed += sum.failed;
        for (const std::string &f : sum.failures)
            p.failures.push_back(f);
        std::ifstream in(_journalPath);
        std::string line;
        unsigned lines = 0;
        while (std::getline(in, line)) {
            p.journalBytes += double(line.size() + 1);
            std::string err;
            const minijson::Value v = minijson::parse(line, &err);
            if (v.getString("type") != "cell")
                continue;
            ++lines;
            const SweepCell *cell = _grid->cellByHash(v.getString("hash"));
            const minijson::Value *res = v.find("result");
            if (cell == nullptr || res == nullptr) {
                ++p.failed;
                p.failures.push_back("unreadable journal line");
                continue;
            }
            Op op;
            op.key = cell->hash;
            op.config = gridConfig(cell->policy);
            op.input = cell->workload == "probed-oltp-proxy" ? "OLTP"
                                                             : cell->workload;
            const minijson::Value *done = res->find("allCompleted");
            op.ok = done && done->boolean &&
                    res->getNumber("violations", 1.0) == 0.0;
            if (!op.ok) {
                ++p.failed;
                p.failures.push_back(cell->label + ": incomplete or violated");
            }
            if (const minijson::Value *rt = res->find("runtime"))
                op.runtime = rt->getNumber("mean");
            if (const minijson::Value *st = res->find("stats")) {
                for (const auto &[k, s] : st->obj)
                    op.stats[k] = s.getNumber("mean");
            }
            const std::size_t at = line.find("\"result\": ");
            op.checked = true;
            op.digest = fnv(kFnvBasis, line.data() + at, line.size() - at);
            _rawResult[cell->hash] = line.substr(at + 10, line.size() - at - 11);
            p.ops.push_back(std::move(op));
        }
        if (lines != sum.total) {
            p.failed += sum.total > lines ? sum.total - lines : 0;
            p.failures.push_back("journal holds " + std::to_string(lines) +
                                 " of " + std::to_string(sum.total) +
                                 " cells");
        }
        // The merged report is deterministic, so it is an op too.
        Op merged;
        merged.key = "merged-report";
        merged.ok = true;
        merged.checked = true;
        merged.digest = fnv(kFnvBasis, report.data(), report.size());
        p.ops.push_back(std::move(merged));
    }

    /**
     * SweepDriver's workers run cells the probe cannot attribute to a
     * protocol family, so a traced grid pass re-runs the first cell of
     * each policy through SweepDriver::runCellJson (the child-process
     * entry point) with the family known. Outside the pass's wall
     * time; the result must equal the journal's copy byte for byte.
     */
    void
    attributionSamples(Pass &p)
    {
        for (const std::string policy : {"dst1", "directory", "hier"}) {
            const SweepCell *cell = nullptr;
            for (const SweepCell &c : _grid->cells()) {
                if (c.policy == policy) {
                    cell = &c;
                    break;
                }
            }
            if (cell == nullptr)
                continue;
            g_gridFamily = gridFamily(policy);
            const std::string json = SweepDriver::runCellJson(*_grid, *cell);
            g_gridFamily = Family::Unknown;
            for (SystemRecord &r : g_ledger.drain())
                p.samples.push_back(std::move(r));
            ++p.attempted;
            if (json != _rawResult[cell->hash]) {
                ++p.failed;
                p.failures.push_back(cell->label +
                                     ": runCellJson differs from journal");
            }
        }
    }

    const Options &_o;
    std::string _gridPath;
    std::string _journalPath;
    std::unique_ptr<ParamGrid> _grid;
    std::map<std::string, std::string> _rawResult;
};

// ---- Metrics -------------------------------------------------------

double
ratio(double a, double b)
{
    return b != 0.0 ? a / b : 0.0;
}

struct Sums
{
    std::map<std::string, double> s;
    double get(const std::string &k) const
    {
        auto it = s.find(k);
        return it == s.end() ? 0.0 : it->second;
    }
};

/** Stats summed over the completed ops matching `pred`. */
Sums
sumOps(const std::vector<Op> &ops, const std::function<bool(const Op &)> &pred)
{
    Sums out;
    for (const Op &op : ops) {
        if (!op.ok || !pred(op))
            continue;
        for (const auto &[k, v] : op.stats)
            out.s[k] += v;
    }
    return out;
}

bool
isDst1(const Op &op)
{
    return op.config == "TokenCMP-dst1";
}

/** Exact simulated metrics of one pass (identical on every pass). */
std::map<std::string, double>
exactMetrics(const std::vector<Op> &ops)
{
    std::map<std::string, double> m;

    // Figure 6 fidelity: dst1 vs DirectoryCMP on each paper proxy run.
    double gap = 0.0;
    unsigned proxies = 0;
    for (const auto &[label, paper] : kPaperSpeedupPct) {
        double dir = 0.0, tok = 0.0;
        unsigned nd = 0, nt = 0;
        for (const Op &op : ops) {
            if (!op.ok || op.input != label)
                continue;
            if (op.config == "DirectoryCMP") {
                dir += op.runtime;
                ++nd;
            } else if (isDst1(op)) {
                tok += op.runtime;
                ++nt;
            }
        }
        if (nd == 0 || nt == 0 || tok == 0.0)
            continue;
        const double speedup = ((dir / nd) / (tok / nt) - 1.0) * 100.0;
        gap += std::fabs(speedup - paper);
        ++proxies;
    }
    m["paper_gap_pp"] = proxies ? gap / proxies : 0.0;
    const Sums d1 = sumOps(ops, isDst1);
    m["persistent_pct"] =
        100.0 * ratio(d1.get("token.persistentIssued"), d1.get("l1.misses"));
    m["inter_bytes_per_miss"] =
        ratio(d1.get("traffic.inter.total"), d1.get("l1.misses"));

    const Sums all = sumOps(ops, [](const Op &) { return true; });
    m["net.messages"] = all.get("net.messages");
    m["net.msgs_per_miss"] = ratio(all.get("net.messages"), all.get("l1.misses"));
    m["net.intra_bytes_per_miss"] =
        ratio(all.get("traffic.intra.total"), all.get("l1.misses"));
    m["sim.windows"] = all.get("kernel.windows");

    const Sums tok = sumOps(ops, [](const Op &op) {
        return op.stats.count("token.relays") != 0;
    });
    m["core.relays_per_miss"] =
        ratio(tok.get("token.relays"), tok.get("l1.misses"));
    m["core.escalations"] = tok.get("token.escalations");
    m["core.transient_yield"] =
        tok.get("token.transients") > 0
            ? 1.0 - tok.get("token.escalations") / tok.get("token.transients")
            : 0.0;

    const Sums dir = sumOps(
        ops, [](const Op &op) { return op.stats.count("dir.forwards") != 0; });
    m["directory.forwards_per_miss"] =
        ratio(dir.get("dir.forwards"), dir.get("l1.misses"));

    const Sums hier = sumOps(
        ops, [](const Op &op) { return op.stats.count("hier.localServes") != 0; });
    m["hier.local_serve_frac"] =
        ratio(hier.get("hier.localServes"),
              hier.get("hier.localServes") + hier.get("hier.fetches"));
    m["hier.silent_drops"] = hier.get("hier.silentDrops");
    m["hier.writebacks"] = hier.get("hier.writebacks");
    return m;
}

struct Timing
{
    double setup = 0.0;
    double runS = 0.0;
    double events = 0.0;
    double teardown = 0.0;
    double busy = 0.0;  //!< construct + run + teardown, thread-seconds
};

Timing
timing(const std::vector<SystemRecord> &systems)
{
    Timing t;
    for (const SystemRecord &r : systems) {
        t.setup += r.constructS();
        t.runS += r.runS();
        t.events += double(r.events());
        t.teardown += r.teardownS();
        t.busy += r.goneAt - r.constructAt;
    }
    return t;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

std::string
num(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

/** End-to-end metrics of one untraced pass. */
std::vector<Metric>
endToEnd(const Pass &p)
{
    const Timing t = timing(p.systems);
    const auto exact = exactMetrics(p.ops);
    return {
        {"wall_s", p.wall, "s"},
        {"setup_s", t.setup + p.gridLoad, "s"},
        {"sim_events_per_s", ratio(t.events, t.runS), "1/s"},
        {"cpu_s", p.cpu, "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"persistent_pct", exact.at("persistent_pct"), "%"},
        {"inter_bytes_per_miss", exact.at("inter_bytes_per_miss"), "B"},
    };
}

/**
 * Per-layer ledger of one traced pass. `system.busy_s` (System
 * thread-seconds) is the numerator of system.runner_util, which run.py
 * divides by workers x the untraced passes' median wall time.
 */
std::vector<Metric>
perLayer(const Pass &p)
{
    std::map<Family, std::pair<double, unsigned>> construct;
    std::map<Family, std::pair<double, double>> nsPerEvent;
    std::vector<SystemRecord> all = p.systems;
    all.insert(all.end(), p.samples.begin(), p.samples.end());
    for (const SystemRecord &r : all) {
        construct[r.family].first += r.constructS();
        construct[r.family].second += 1;
        nsPerEvent[r.family].first += r.runS();
        nsPerEvent[r.family].second += double(r.events());
    }
    const Timing t = timing(p.systems);
    const auto exact = exactMetrics(p.ops);

    // Sharded layout: per-domain balance of every multi-domain System.
    double imb = 0.0, shardedEvents = 0.0;
    unsigned sharded = 0;
    for (const SystemRecord &r : p.systems) {
        if (r.domainEvents.size() < 2)
            continue;
        const double mean = double(r.events()) / r.domainEvents.size();
        const double mx = double(*std::max_element(r.domainEvents.begin(),
                                                   r.domainEvents.end()));
        imb += ratio(mx, mean);
        shardedEvents += double(r.events());
        ++sharded;
    }

    // Report: each runner's tail after its last System, plus toJson.
    double report = 0.0;
    std::vector<double> lastChild(p.spans.size(), -1.0);
    for (const Span &s : p.spans) {
        if (s.parent >= 0)
            lastChild[s.parent] = std::max(lastChild[s.parent], s.end);
    }
    for (std::size_t i = 0; i < p.spans.size(); ++i) {
        const Span &s = p.spans[i];
        if (s.name == "result.to_json")
            report += s.end - s.start;
        else if (s.name == "runner.run" && lastChild[i] >= 0)
            report += std::max(0.0, s.end - lastChild[i]);
    }

    std::vector<Metric> out;
    for (Family f : {Family::Token, Family::Directory, Family::Hier,
                     Family::Perfect}) {
        const auto &c = construct[f];
        out.push_back({std::string("system.construct_ms.") + familyName(f),
                       c.second ? 1e3 * c.first / c.second : 0.0, "ms"});
    }
    out.push_back({"system.teardown_s", t.teardown, "s"});
    out.push_back({"system.busy_s", t.busy, "s"});
    out.push_back({"system.report_s", report, "s"});
    out.push_back({"fidelity.paper_gap_pp", exact.at("paper_gap_pp"), "pp"});
    out.push_back({"sim.events", t.events, "count"});
    for (Family f : {Family::Token, Family::Directory, Family::Hier}) {
        const auto &e = nsPerEvent[f];
        out.push_back({std::string("sim.ns_per_event.") + familyName(f),
                       1e9 * ratio(e.first, e.second), "ns"});
    }
    out.push_back({"sim.windows", exact.at("sim.windows"), "count"});
    out.push_back({"sim.events_per_window",
                   ratio(shardedEvents, exact.at("sim.windows")), "count"});
    out.push_back({"sim.domain_imbalance", sharded ? imb / sharded : 1.0,
                   "ratio"});
    const std::pair<const char *, const char *> counts[] = {
        {"net.messages", "count"},
        {"net.msgs_per_miss", "ratio"},
        {"net.intra_bytes_per_miss", "B"},
        {"core.relays_per_miss", "ratio"},
        {"core.escalations", "count"},
        {"core.transient_yield", "ratio"},
        {"directory.forwards_per_miss", "ratio"},
        {"hier.local_serve_frac", "ratio"},
        {"hier.silent_drops", "count"},
        {"hier.writebacks", "count"}};
    for (const auto &[k, unit] : counts)
        out.push_back({k, exact.at(k), unit});
    out.push_back({"sweep.grid_load_s", p.gridLoad, "s"});
    out.push_back({"sweep.overhead_s",
                   p.sweepRun > 0 ? p.sweepRun - t.busy / kWorkers : 0.0,
                   "s"});
    out.push_back({"sweep.journal_bytes", p.journalBytes, "B"});
    out.push_back({"sweep.report_s", p.sweepReport, "s"});
    const auto self = selfTimeByLayer(p.spans);
    for (const char *layer : {"perfbench", "system", "sim", "sweep"}) {
        auto it = self.find(layer);
        out.push_back({std::string("self_s.") + layer,
                       it == self.end() ? 0.0 : it->second, "s"});
    }
    out.push_back({"trace.spans", double(p.spans.size()), "count"});
    return out;
}

// ---- Driver --------------------------------------------------------

std::string
metaJson(const Options &o)
{
    const bool warm = o.workload == "sharded";
    return "{\"gitSha\": " + json::quote(o.gitSha) +
           ", \"compiler\": " + json::quote(PERFBENCH_COMPILER) +
           ", \"flags\": " + json::quote(PERFBENCH_FLAGS) +
           ", \"buildType\": " + json::quote(PERFBENCH_BUILD_TYPE) +
           ", \"hwThreads\": " +
           std::to_string(std::thread::hardware_concurrency()) +
           ", \"workload\": " + json::quote(o.workload) +
           ", \"seed\": " + std::to_string(o.seed) +
           ", \"simSeedsFrom\": " + std::to_string(firstSimSeed(o.seed)) +
           ", \"caches\": " + json::quote(warm ? "warm" : "cold") +
           ", \"trace\": " + (o.trace ? "true" : "false") + "}";
}

void
writeSpans(const Options &o, const Pass &p)
{
    const std::string path = o.outDir + "/perfbench_spans_" + o.workload +
                             "_seed" + std::to_string(o.seed) + "_pass" +
                             std::to_string(o.pass) + ".json";
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
        return;
    }
    std::fprintf(f, "{\"meta\": %s, \"wall\": %s, \"spans\": [",
                 metaJson(o).c_str(), num(p.wall).c_str());
    for (std::size_t j = 0; j < p.spans.size(); ++j) {
        const Span &s = p.spans[j];
        std::fprintf(f,
                     "%s\n  {\"name\": %s, \"layer\": %s, \"start\": %s, "
                     "\"end\": %s, \"parent\": %d}",
                     j ? "," : "", json::quote(s.name).c_str(),
                     json::quote(s.layer).c_str(), num(s.start).c_str(),
                     num(s.end).c_str(), s.parent);
    }
    std::fprintf(f, "\n]}\n");
    std::fclose(f);
}

[[noreturn]] void
usage(const char *argv0, const char *why)
{
    std::fprintf(stderr,
                 "%s: %s\nusage: %s --workload figures|sharded|grid "
                 "--seed N --trace 0|1 [--pass K] [--out-dir DIR] "
                 "[--git-sha SHA] [--horizon-ns T]\n",
                 argv0, why, argv0);
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage(argv[0], ("missing value for " + a).c_str());
        const std::string v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            o.workload = v;
        } else if (a == "--seed") {
            o.seed = std::strtoull(v.c_str(), &end, 10);
        } else if (a == "--trace") {
            o.trace = v == "1";
            if (v != "0" && v != "1")
                usage(argv[0], "--trace takes 0 or 1");
        } else if (a == "--pass") {
            o.pass = unsigned(std::strtoul(v.c_str(), &end, 10));
        } else if (a == "--out-dir") {
            o.outDir = v;
        } else if (a == "--git-sha") {
            o.gitSha = v;
        } else if (a == "--horizon-ns") {
            o.horizonNs = std::strtoull(v.c_str(), &end, 10);
        } else {
            usage(argv[0], ("unknown option " + a).c_str());
        }
        if (end != nullptr && *end != '\0')
            usage(argv[0], ("bad number for " + a).c_str());
    }
    if (o.workload != "figures" && o.workload != "sharded" &&
        o.workload != "grid")
        usage(argv[0], "--workload must be figures, sharded or grid");
    return o;
}

std::string
metricsJson(const std::vector<Metric> &ms)
{
    std::string out = "{";
    for (std::size_t i = 0; i < ms.size(); ++i) {
        out += (i ? ", " : "") + json::quote(ms[i].name) +
               ": {\"value\": " + num(ms[i].value) +
               ", \"unit\": " + json::quote(ms[i].unit) + "}";
    }
    return out + "}";
}

int
run(int argc, char **argv)
{
    now();  // fix the clock origin
    const Options o = parse(argc, argv);
    std::printf("meta %s\n", metaJson(o).c_str());
    std::fflush(stdout);
    Bench bench(o);
    Pass p = bench.runPass(o.trace);

    // Ops that share a key within the pass (figures runs the
    // DirectoryCMP baseline twice) must agree; run.py checks the
    // digests across passes.
    std::map<std::string, std::uint64_t> digests;
    for (const Op &op : p.ops) {
        if (!op.ok || !op.checked)
            continue;
        auto [it, fresh] = digests.emplace(op.key, op.digest);
        if (!fresh && it->second != op.digest) {
            ++p.failed;
            p.failures.push_back(op.key + ": stats digest differs from "
                                          "an earlier run");
        }
    }
    if (o.trace)
        writeSpans(o, p);

    std::string out = "{\"traced\": " + std::string(o.trace ? "true" : "false") +
                      ", \"wall\": " + num(p.wall) +
                      ", \"attempted\": " + std::to_string(p.attempted) +
                      ", \"failed\": " + std::to_string(p.failed) +
                      ", \"failures\": [";
    for (std::size_t i = 0; i < p.failures.size(); ++i)
        out += (i ? ", " : "") + json::quote(p.failures[i]);
    out += "], \"digests\": {";
    bool first = true;
    for (const auto &[key, d] : digests) {
        char hex[17];
        std::snprintf(hex, sizeof hex, "%016llx", (unsigned long long)d);
        out += (first ? "" : ", ") + json::quote(key) + ": \"" + hex + "\"";
        first = false;
    }
    out += "}, \"metrics\": " +
           metricsJson(o.trace ? perLayer(p) : endToEnd(p)) + "}";
    std::printf("%s\n", out.c_str());
    return 0;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    return perfbench::run(argc, argv);
}
