#include "report_json.hh"

#include <cinttypes>

#include "common/logging.hh"

namespace jrpm
{

namespace
{

void
spanHistJson(JsonWriter &w, const SpanHist &h)
{
    w.beginObject().field("count", h.count).field("sum", h.sum);
    w.field("max", h.max).field("mean", h.mean());
    w.key("log2Buckets").beginArray();
    // Trim trailing zero buckets; the reader treats absent as zero.
    std::size_t last = 0;
    for (std::size_t i = 0; i < SpanHist::kBuckets; ++i)
        if (h.log2Buckets[i])
            last = i + 1;
    for (std::size_t i = 0; i < last; ++i)
        w.value(h.log2Buckets[i]);
    w.endArray().endObject();
}

/** The non-zero counts of a per-cause array, keyed by cause name. */
template <std::size_t N>
void
causeMapJson(JsonWriter &w, const std::array<std::uint64_t, N> &counts,
             const char *(*name)(std::size_t))
{
    w.beginObject();
    for (std::size_t i = 0; i < N; ++i)
        if (counts[i])
            w.field(name(i), counts[i]);
    w.endObject();
}

// Report JSON members of a stats table (cpu/stats.hh), over a
// variable `st`: scalars, then per-cause maps, then histograms.
#define JRPM_JSON_SCALAR(path, metric, k, ...)                               \
    if (k[0])                                                                \
        w.field(k, st.path);
#define JRPM_JSON_CAUSES(m, n, name, metric, k, ...)                         \
    causeMapJson(w.key(k), st.m, name);
#define JRPM_JSON_HIST(m, k, ...) spanHistJson(w.key(k), st.m);

void
telemetryJson(JsonWriter &w, const ExecStats &st)
{
    w.beginObject();
    JRPM_EXEC_STATS(JRPM_STATS_SKIP, JRPM_JSON_SCALAR, JRPM_JSON_SCALAR,
                    JRPM_STATS_SKIP, JRPM_STATS_SKIP)
    JRPM_EXEC_STATS(JRPM_STATS_SKIP, JRPM_STATS_SKIP, JRPM_STATS_SKIP,
                    JRPM_STATS_SKIP, JRPM_JSON_CAUSES)
    JRPM_EXEC_STATS(JRPM_STATS_SKIP, JRPM_STATS_SKIP, JRPM_STATS_SKIP,
                    JRPM_JSON_HIST, JRPM_STATS_SKIP)
    w.endObject();
}

void
loopJson(JsonWriter &w, std::int32_t loop_id, const StlRuntimeStats &st)
{
    w.beginObject().field("loopId", loop_id);
    JRPM_STL_STATS(JRPM_JSON_SCALAR, JRPM_JSON_SCALAR, JRPM_STATS_SKIP,
                   JRPM_STATS_SKIP, JRPM_STATS_SKIP)
    JRPM_STL_STATS(JRPM_STATS_SKIP, JRPM_STATS_SKIP, JRPM_STATS_SKIP,
                   JRPM_STATS_SKIP, JRPM_JSON_CAUSES)
    JRPM_STL_STATS(JRPM_STATS_SKIP, JRPM_STATS_SKIP, JRPM_STATS_SKIP,
                   JRPM_JSON_HIST, JRPM_STATS_SKIP)
    w.endObject();
}

#undef JRPM_JSON_SCALAR
#undef JRPM_JSON_CAUSES
#undef JRPM_JSON_HIST

void
runJson(JsonWriter &w, const RunOutcome &o)
{
    w.beginObject().field("halted", o.halted).field("uncaught", o.uncaught);
    w.field("exitValue", o.exitValue).field("cycles", o.cycles);
    w.field("insts", o.insts).field("violations", o.stats.violations);
    w.field("watchdog", o.watchdogFired);
    w.field("faultsInjected", o.faultsInjected);
    telemetryJson(w.key("telemetry"), o.stats);
    w.endObject();
}

void
writeReport(JsonWriter &w, const JrpmReport &rep)
{
    w.beginObject().field("name", rep.name);
    w.field("fingerprint", strfmt("%016" PRIx64, rep.fingerprint));
    w.field("warmStart", rep.warmStart).field("demoted", rep.demoted);
    runJson(w.key("seqMain"), rep.seqMain);
    runJson(w.key("tls"), rep.tls);

    w.field("profilingSlowdown", rep.profilingSlowdown);
    w.field("predictedTlsCycles", rep.predictedTlsCycles);
    w.field("actualSpeedup", rep.actualSpeedup);
    w.field("totalSpeedup", rep.totalSpeedup);
    w.field("outputsMatch", rep.outputsMatch);
    w.key("oracle").beginObject().field("compared", rep.oracle.compared);
    w.field("match", rep.oracle.match()).endObject();

    const PhaseBreakdown &ph = rep.phases;
    w.key("phases").beginObject().field("compile", ph.compile);
    w.field("profiling", ph.profiling).field("recompile", ph.recompile);
    w.field("application", ph.application).field("gc", ph.gc);
    w.field("total", ph.total()).endObject();

    w.key("selections").beginArray();
    for (const SelectedStl &sel : rep.selections) {
        const StlPrediction &p = sel.prediction;
        w.beginObject().field("loopId", sel.loopId);
        w.field("predictedSpeedup", p.predictedSpeedup);
        w.field("coverageCycles", p.coverageCycles);
        w.field("itersPerEntry", p.itersPerEntry);
        w.key("plan").beginObject().field("syncLock", sel.plan.syncLock);
        w.field("multilevel", sel.plan.multilevel);
        w.field("hoistHandlers", sel.plan.hoistHandlers);
        w.endObject().endObject();
    }
    w.endArray();

    // Per-loop dependence telemetry of the TLS run.
    w.key("loops").beginArray();
    for (const auto &[loop_id, ls] : rep.tls.stl)
        loopJson(w, loop_id, ls);
    w.endArray().endObject();
}

} // namespace

std::string
reportJson(const JrpmReport &rep)
{
    JsonWriter w;
    writeReport(w, rep);
    return w.take();
}

std::string
reportsJson(const std::vector<JrpmReport> &reps)
{
    JsonWriter w;
    w.beginArray(JsonWriter::Layout::Lines);
    for (const JrpmReport &rep : reps)
        writeReport(w, rep);
    w.endArray();
    return w.take() + '\n';
}

} // namespace jrpm
