/**
 * @file
 * The end-to-end benchmark of the Jrpm stack (see README.md).
 *
 *   jrpm_perfbench --workload <suite|forge-strict|service-warm>
 *                  --seed <n> --seconds <s> --trace <0|1>
 *                  [--out-dir <dir>]
 *
 * --trace 0 times the workload untraced and prints every end-to-end
 * metric; --trace 1 makes the traced run and prints every per-layer
 * metric.  Both check the outputs and the determinism guard, print a
 * human-readable report, then, as the last line, one JSON object:
 * {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
 * The exit code is 0 only when every check passed.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <sys/stat.h>

#include "bench.hh"
#include "common/logging.hh"

namespace perfbench
{
namespace
{

using jrpm::strfmt;

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "jrpm_perfbench: %s\nusage: jrpm_perfbench --workload "
                 "<suite|forge-strict|service-warm> --seed <n> "
                 "--seconds <s> --trace <0|1> [--out-dir <dir>]\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const std::string v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            o.workload = v;
        } else if (a == "--seed") {
            o.seed = std::strtoull(v.c_str(), &end, 10);
        } else if (a == "--seconds") {
            o.seconds = std::strtod(v.c_str(), &end);
        } else if (a == "--trace") {
            o.trace = v == "1";
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
        } else if (a == "--out-dir") {
            o.outDir = v;
        } else {
            usage(("unknown flag " + a).c_str());
        }
        if (end && *end)
            usage(("bad number for " + a).c_str());
    }
    if (o.workload.empty())
        usage("--workload is required");
    if (!(o.seconds > 0))
        usage("--seconds must be positive");
    return o;
}

/**
 * Determinism guard across runs: the first run of a (workload, seed,
 * seconds, mode) stores its modelled counts; every later one must
 * reproduce them exactly.
 */
void
checkCountsAcrossRuns(const Options &opt, RunResult &res)
{
    const std::string dir = opt.outDir + "/counts";
    const std::string path = strfmt(
        "%s/%s-seed%llu-%gs-trace%d.txt", dir.c_str(),
        opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
        opt.seconds, opt.trace ? 1 : 0);
    std::ostringstream now;
    for (const auto &[k, v] : res.counts)
        now << k << ' ' << v << '\n';

    std::ifstream in(path);
    if (in) {
        std::stringstream before;
        before << in.rdbuf();
        if (before.str() != now.str())
            res.fail("modelled counts differ from the earlier run "
                     "recorded in " + path);
        else
            std::printf("determinism: %zu counts match %s\n",
                        res.counts.size(), path.c_str());
        return;
    }
    std::ofstream out(path);
    out << now.str();
    if (!out)
        res.fail("cannot write " + path);
    else
        std::printf("determinism: %zu counts recorded in %s\n",
                    res.counts.size(), path.c_str());
}

int
run(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    jrpm::setQuiet(true);
    for (const char *sub : {"", "/counts", "/traces", "/tmp"})
        ::mkdir((opt.outDir + sub).c_str(), 0755);

    RunResult res;
    if (opt.workload == "suite")
        res = runSuite(opt);
    else if (opt.workload == "forge-strict")
        res = runForgeStrict(opt);
    else if (opt.workload == "service-warm")
        res = runServiceWarm(opt);
    else
        usage(("unknown workload " + opt.workload).c_str());
    res.metrics["peak_rss_mb"] = peakRssMb();
    checkCountsAcrossRuns(opt, res);

    std::printf("counts:");
    for (const auto &[k, v] : res.counts)
        std::printf(" %s=%s", k.c_str(), v.c_str());
    std::printf("\n");
    std::printf("fail_frac = %.6g (%llu failed / %llu attempted)\n",
                res.attempted ? static_cast<double>(res.failed) /
                                    static_cast<double>(res.attempted)
                              : 0.0,
                static_cast<unsigned long long>(res.failed),
                static_cast<unsigned long long>(res.attempted));
    for (const auto &[k, n] : res.samples)
        std::printf("samples %s n=%llu\n", k.c_str(),
                    static_cast<unsigned long long>(n));

    const auto &defs = opt.trace ? perLayerMetrics() : endToEndMetrics();
    std::string json;
    for (const MetricDef &d : defs) {
        const auto it = res.metrics.find(d.name);
        double v = it == res.metrics.end() ? NAN : it->second;
        if (!std::isfinite(v)) {
            res.fail(std::string("metric ") + d.name + " not measured");
            v = 0;
        }
        std::printf("%s %s = %.6g %s\n", opt.workload.c_str(), d.name, v,
                    d.unit);
        json += strfmt("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                       json.empty() ? "" : ", ", d.name, v, d.unit);
    }
    for (const std::string &p : res.problems)
        std::printf("FAILED CHECK: %s\n", p.c_str());
    const bool correct = res.problems.empty() && res.failed == 0;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(std::max<std::uint64_t>(
                    res.attempted, 1)),
                static_cast<unsigned long long>(res.failed), json.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    return perfbench::run(argc, argv);
}
