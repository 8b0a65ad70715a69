/**
 * @file
 * Self-tests of the benchmark's span arithmetic (perfbench/trace.hh).
 * Exits 0 when every check passes, 1 otherwise; test_perfbench.py
 * runs it beside the end-to-end harness checks.
 */

#include <cmath>
#include <cstdio>

#include "trace.hh"

using perfbench::Span;

namespace {

int failures = 0;

void
expectNear(const char *what, double got, double want)
{
    if (std::fabs(got - want) > 1e-12) {
        std::printf("FAIL %s: got %.15g, want %.15g\n", what, got, want);
        ++failures;
    } else {
        std::printf("ok   %s\n", what);
    }
}

} // namespace

int
main()
{
    // Union of overlapping and disjoint intervals, clipped to a window.
    expectNear("disjoint intervals add",
               perfbench::coveredLength({{0, 1}, {2, 3}}, 0, 10), 2.0);
    expectNear("overlapping intervals count once",
               perfbench::coveredLength({{0, 2}, {1, 3}, {1.5, 2.5}}, 0, 10),
               3.0);
    expectNear("touching intervals merge",
               perfbench::coveredLength({{0, 1}, {1, 2}}, 0, 10), 2.0);
    expectNear("intervals clip to the window",
               perfbench::coveredLength({{-1, 1}, {9, 12}}, 0, 10), 2.0);
    expectNear("empty and inverted intervals are ignored",
               perfbench::coveredLength({{3, 3}, {5, 4}}, 0, 10), 0.0);

    // A root span of 10 s with two serial children of 2 s and 3 s and a
    // grandchild of 1 s: self times 5, 1, 3, 1.
    const std::vector<Span> serial = {
        {"pass", "perfbench", 0, 10, -1},
        {"runner.run", "system", 1, 3, 0},
        {"system.run", "sim", 4, 7, 0},
        {"system.construct", "system", 1.5, 2.5, 1},
    };
    const std::vector<double> self = perfbench::selfTimes(serial);
    expectNear("root self time", self[0], 5.0);
    expectNear("child self time minus grandchild", self[1], 1.0);
    expectNear("leaf self time is its duration", self[2], 3.0);
    expectNear("grandchild self time", self[3], 1.0);

    // Four workers' Systems overlapping under one runner span: the
    // runner's self time is the part no worker covered.
    const std::vector<Span> parallel = {
        {"runner.run", "system", 0, 4, -1},
        {"system.run", "sim", 0.5, 3, 0},
        {"system.run", "sim", 0.5, 3.5, 0},
        {"system.run", "sim", 1, 2, 0},
        {"system.run", "sim", 2, 3.5, 0},
    };
    const auto layers = perfbench::selfTimeByLayer(parallel);
    expectNear("parallel children subtract their union",
               layers.at("system"), 1.0);
    expectNear("layer self time sums its spans", layers.at("sim"),
               2.5 + 3.0 + 1.0 + 1.5);

    // Self times never exceed the traced wall time they partition.
    double total = 0.0;
    for (const auto &[layer, t] : perfbench::selfTimeByLayer(serial))
        total += t;
    expectNear("serial self times partition the root span", total, 10.0);

    std::printf("%s\n", failures ? "FAILED" : "all self-tests passed");
    return failures ? 1 : 0;
}
