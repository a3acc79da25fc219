#include "analyzer.hh"

#include <algorithm>

#include "common/logging.hh"

namespace jrpm
{

Analyzer::Analyzer(const AnalyzerConfig &config)
    : cfg(config)
{
}

StlPrediction
Analyzer::predict(const LoopProfile &p) const
{
    StlPrediction out;
    out.loopId = p.loopId;
    if (p.iterations == 0) {
        out.reason = "no profile data";
        return out;
    }

    out.avgThreadSize = p.threadSize.mean();
    out.itersPerEntry = p.itersPerEntry();
    out.coverageCycles = p.coverage();
    out.depFrequency = p.depFrequency();
    out.avgArcDistance = p.arcDistance.mean();
    out.avgArcSlack = std::max(
        0.0, p.arcStoreOffset.mean() - p.arcLoadOffset.mean());
    out.overflowFrequency = p.overflowFrequency();
    out.avgLoadLines = p.loadLines.mean();
    out.avgStoreLines = p.storeLines.mean();

    const double T = out.avgThreadSize;
    const double n = SystemConfig::numCpus;
    const double eoi = cfg.handlers.eoi;

    // Ideal scheduling of the average inter-thread dependency: thread
    // starts must be separated by at least the resource constraint
    // (N threads in flight) and by the dependency constraint (a
    // consumer at loadOffset cannot run before the producer's
    // storeOffset, amortized over the arc distance and weighted by
    // how often the arc occurs).
    const double sep_resource =
        (T + eoi + cfg.eoiBlockCycles) / n;
    // A frequent short-distance arc costs more than its ideal wait:
    // unless a synchronizing lock can protect it (§4.2.4), the
    // consumer discovers the value by violating — paying the restart
    // handler and re-executing its prefix.
    ArcSite dom_site;
    double dom_frac = 0.0;
    const bool sync_plannable =
        p.dominantArcSite(dom_site, dom_frac) && dom_site.isLocal &&
        out.depFrequency > cfg.syncDepFrequency &&
        p.arcStoreOffset.mean() < cfg.syncArcLengthRatio * T;
    const double violation_penalty =
        sync_plannable ? 0.0
                       : cfg.handlers.restart +
                             p.arcLoadOffset.mean();
    const double sep_dep =
        out.avgArcDistance > 0
            ? out.depFrequency *
                  (out.avgArcSlack + violation_penalty) /
                  std::max(1.0, out.avgArcDistance)
            : 0.0;
    double sep = std::max({sep_resource, sep_dep,
                           cfg.minCommitInterval});

    // Overflowing threads stall until they become the head and run
    // effectively serialized.
    sep = out.overflowFrequency * (T + eoi) +
          (1.0 - out.overflowFrequency) * sep;

    // Entry/exit handlers amortized over the iterations per entry.
    const double per_entry =
        (cfg.handlers.startup + cfg.handlers.shutdown) /
        std::max(1.0, out.itersPerEntry);

    const double tls_per_iter = sep + per_entry;
    out.predictedSpeedup = T / std::max(1.0, tls_per_iter);
    out.predictedTlsCycles = out.coverageCycles /
                             std::max(0.01, out.predictedSpeedup);

    if (out.itersPerEntry < cfg.minItersPerEntry) {
        out.reason = "too few iterations per entry";
    } else if (out.overflowFrequency > cfg.maxOverflowFrequency) {
        out.reason = "speculative buffers predicted to overflow";
    } else if (out.predictedSpeedup <= cfg.minPredictedSpeedup) {
        out.reason = "predicted speedup below threshold";
    } else {
        out.eligible = true;
        out.reason = "selected";
    }
    return out;
}

double
Analyzer::bestSubtreeTime(
    std::int32_t loop,
    const std::map<std::int32_t, std::vector<std::int32_t>> &kids,
    const std::map<std::int32_t, LoopProfile> &profiles,
    std::vector<SelectedStl> &chosen) const
{
    auto pit = profiles.find(loop);
    const LoopProfile *prof =
        pit != profiles.end() ? &pit->second : nullptr;
    const double self_coverage = prof ? prof->coverage() : 0.0;

    // Option B: leave this level sequential and recurse.
    double child_coverage = 0.0;
    double child_time = 0.0;
    std::vector<SelectedStl> child_chosen;
    auto kit = kids.find(loop);
    if (kit != kids.end()) {
        for (std::int32_t child : kit->second) {
            auto cit = profiles.find(child);
            if (cit != profiles.end())
                child_coverage += cit->second.coverage();
            child_time += bestSubtreeTime(child, kids, profiles,
                                          child_chosen);
        }
    }
    // Nested coverage can slightly exceed the parent's measured
    // coverage when entry/exit skew the timestamps; clamp.
    child_coverage = std::min(child_coverage, self_coverage);
    const double time_b =
        (self_coverage - child_coverage) + child_time;

    if (!prof) {
        chosen.insert(chosen.end(), child_chosen.begin(),
                      child_chosen.end());
        return time_b;
    }

    // Option A: speculate at this level (children stay sequential
    // inside the speculative threads).
    StlPrediction pred = predict(*prof);
    if (pred.eligible && pred.predictedTlsCycles < time_b) {
        SelectedStl sel;
        sel.loopId = loop;
        sel.prediction = pred;

        // Multilevel plan: an infrequently-entered inner loop with
        // real work inside becomes a switch target (§4.2.6).
        if (kit != kids.end()) {
            for (std::int32_t child : kit->second) {
                auto cit = profiles.find(child);
                if (cit == profiles.end())
                    continue;
                const LoopProfile &cp = cit->second;
                if (cp.entries == 0 || cp.iterations == 0)
                    continue;
                const double entry_ratio =
                    static_cast<double>(cp.entries) /
                    static_cast<double>(
                        std::max<std::uint64_t>(prof->iterations, 1));
                StlPrediction cpred = predict(cp);
                if (entry_ratio < cfg.multilevelEntryRatio &&
                    cp.itersPerEntry() >= cfg.minItersPerEntry &&
                    cpred.predictedSpeedup > 1.0 &&
                    cp.coverage() > 0.2 * self_coverage) {
                    sel.plan.multilevel = true;
                    sel.plan.multilevelInner = child;
                    break;
                }
            }
        }

        // Thread-synchronizing-lock plan (§4.2.4).
        ArcSite site;
        double fraction = 0.0;
        if (prof->dominantArcSite(site, fraction) && site.isLocal &&
            pred.depFrequency > cfg.syncDepFrequency &&
            prof->arcStoreOffset.mean() <
                cfg.syncArcLengthRatio * pred.avgThreadSize) {
            sel.plan.syncLock = true;
            sel.plan.syncLocalVar = static_cast<std::int32_t>(site.id);
        }

        // Hoisted startup/shutdown (§4.2.7): repeatedly entered STLs
        // with few iterations per entry.
        if (prof->entries >= 8 && pred.itersPerEntry < 32)
            sel.plan.hoistHandlers = true;

        chosen.push_back(std::move(sel));
        return pred.predictedTlsCycles;
    }

    chosen.insert(chosen.end(), child_chosen.begin(),
                  child_chosen.end());
    return time_b;
}

std::vector<SelectedStl>
Analyzer::select(
    const std::vector<LoopInfo> &loops,
    const std::map<std::int32_t, LoopProfile> &profiles) const
{
    std::map<std::int32_t, std::vector<std::int32_t>> kids;
    std::vector<std::int32_t> roots;
    for (const auto &l : loops) {
        if (l.parentId >= 0)
            kids[l.parentId].push_back(l.loopId);
        else
            roots.push_back(l.loopId);
    }

    std::vector<SelectedStl> chosen;
    for (std::int32_t root : roots)
        bestSubtreeTime(root, kids, profiles, chosen);

    std::sort(chosen.begin(), chosen.end(),
              [](const SelectedStl &a, const SelectedStl &b) {
                  return a.prediction.coverageCycles >
                         b.prediction.coverageCycles;
              });
    return chosen;
}

} // namespace jrpm
