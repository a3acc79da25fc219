#include "test_profiler.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/trace.hh"

namespace jrpm
{

bool
LoopProfile::dominantArcSite(ArcSite &site, double &fraction) const
{
    if (depThreads == 0 || arcSites.empty())
        return false;
    const auto best = std::max_element(
        arcSites.begin(), arcSites.end(),
        [](const auto &a, const auto &b) { return a.second < b.second; });
    site = best->first;
    fraction = static_cast<double>(best->second) /
               static_cast<double>(depThreads);
    return true;
}

TestProfiler::TestProfiler(const TracerConfig &cfg)
    : config(cfg), banks(cfg.numBanks)
{
}

void
TestProfiler::reset()
{
    for (auto &b : banks)
        b = Bank();
    bankOf.clear();
    results.clear();
    heapStoreTs.clear();
    localStoreTs.clear();
}

TestProfiler::Bank *
TestProfiler::allocateBank(std::int32_t loop_id, Cycle now)
{
    for (auto &b : banks)
        if (!b.active)
            return &b;
    if (!config.allowBankStealing)
        return nullptr;
    // Steal the bank of the outermost loop that consistently predicts
    // speculative state overflow: its decomposition is already known
    // to be hopeless and inner loops deserve the comparator (§6.1).
    Bank *victim = nullptr;
    for (auto &b : banks) {
        const std::uint64_t iters = b.acc.iterations;
        if (iters < 32)
            continue;
        const double of =
            static_cast<double>(b.acc.overflowThreads) /
            static_cast<double>(std::max<std::uint64_t>(iters, 1));
        if (of > 0.5 && (!victim || b.entryTs < victim->entryTs))
            victim = &b;
    }
    if (!victim)
        return nullptr;
    JRPM_TRACE(Trace::kHostTrack, TraceEvt::BankStolen, now, loop_id,
               static_cast<std::uint64_t>(
                   static_cast<std::uint32_t>(victim->loopId)));
    bankOf.erase(victim->loopId);
    flushBank(*victim, now);
    return victim;
}

void
TestProfiler::onLoopEntry(std::int32_t loop_id, Cycle now)
{
    if (bankOf.count(loop_id)) {
        // Recursive re-entry of a loop already being traced: leave
        // the existing bank in place (the hardware has one bank per
        // static loop).
        return;
    }
    Bank *b = allocateBank(loop_id, now);
    if (!b) {
        ++results[loop_id].skippedEntries;
        results[loop_id].loopId = loop_id;
        JRPM_TRACE(Trace::kHostTrack, TraceEvt::BankExhausted, now,
                   loop_id);
        return;
    }
    JRPM_TRACE(Trace::kHostTrack, TraceEvt::BankAllocated, now,
               loop_id);
    *b = Bank();
    b->active = true;
    b->loopId = loop_id;
    b->entryTs = now;
    b->threadStartTs = now;
    b->acc.loopId = loop_id;
    bankOf[loop_id] = static_cast<std::size_t>(b - banks.data());
}

void
TestProfiler::finishThread(Bank &b, Cycle now)
{
    b.acc.threadSize.sample(static_cast<double>(now - b.threadStartTs));
    ++b.acc.iterations;
    if (b.haveArc) {
        ++b.acc.depThreads;
        b.acc.arcDistance.sample(static_cast<double>(b.bestDist));
        // Offsets are relative to the producing/consuming thread's
        // own start; the producer started bestDist iterations ago.
        const std::size_t ring = b.startRing.size();
        Cycle producerStart = b.entryTs;
        if (b.bestDist <= ring)
            producerStart = b.startRing[ring - b.bestDist];
        b.acc.arcStoreOffset.sample(static_cast<double>(
            b.bestStoreTs >= producerStart
                ? b.bestStoreTs - producerStart : 0));
        b.acc.arcLoadOffset.sample(static_cast<double>(
            b.bestLoadTs - b.threadStartTs));
        ++b.acc.arcSites[b.bestSite];
    }
    b.acc.loadLines.sample(b.loadLinesThis);
    b.acc.storeLines.sample(b.storeLinesThis);
    if (b.overflowThis)
        ++b.acc.overflowThreads;

    // Start the next thread.
    b.startRing.push_back(b.threadStartTs);
    if (b.startRing.size() > config.startHistory)
        b.startRing.erase(b.startRing.begin());
    ++b.curIter;
    b.threadStartTs = now;
    b.haveArc = false;
    b.loadLinesThis = 0;
    b.storeLinesThis = 0;
    b.overflowThis = false;
}

void
TestProfiler::onLoopIteration(std::int32_t loop_id, Cycle now)
{
    auto it = bankOf.find(loop_id);
    if (it == bankOf.end())
        return;
    finishThread(banks[it->second], now);
}

void
TestProfiler::flushBank(Bank &b, Cycle now)
{
    if (!b.active)
        return;
    JRPM_TRACE(Trace::kHostTrack, TraceEvt::ProfileFlushed, now,
               b.loopId, b.acc.iterations);
    ++b.acc.entries;
    LoopProfile &out = results[b.loopId];
    const std::int32_t id = b.loopId;
    // Merge the bank accumulator into the software-side store.
    out.loopId = id;
    out.entries += b.acc.entries;
    out.iterations += b.acc.iterations;
    out.threadSize.merge(b.acc.threadSize);
    out.depThreads += b.acc.depThreads;
    out.arcDistance.merge(b.acc.arcDistance);
    out.arcStoreOffset.merge(b.acc.arcStoreOffset);
    out.arcLoadOffset.merge(b.acc.arcLoadOffset);
    for (const auto &[site, count] : b.acc.arcSites)
        out.arcSites[site] += count;
    out.loadLines.merge(b.acc.loadLines);
    out.storeLines.merge(b.acc.storeLines);
    out.overflowThreads += b.acc.overflowThreads;
    b.active = false;
}

void
TestProfiler::onLoopExit(std::int32_t loop_id, Cycle now)
{
    auto it = bankOf.find(loop_id);
    if (it == bankOf.end())
        return;
    Bank &b = banks[it->second];
    // The final (partial) iteration ended at the last eoi; the exit
    // path itself is not a thread.
    flushBank(b, now);
    bankOf.erase(it);
}

void
TestProfiler::recordLoadEvent(Cycle store_ts, Cycle now, ArcSite site)
{
    for (auto &b : banks) {
        if (!b.active)
            continue;
        if (store_ts < b.entryTs || store_ts >= b.threadStartTs)
            continue; // before the loop, or intra-thread
        // Locate the producing iteration in the start ring.
        const std::size_t ring = b.startRing.size();
        std::uint64_t dist = b.curIter + 1; // beyond history
        // startRing[k] is the start of iteration (curIter - (ring-k)).
        for (std::size_t k = ring; k-- > 0;) {
            if (store_ts >= b.startRing[k]) {
                dist = static_cast<std::uint64_t>(ring - k);
                break;
            }
        }
        if (dist > b.curIter)
            dist = b.curIter; // produced before the first ring entry
        if (dist == 0)
            continue;
        if (!b.haveArc || dist < b.bestDist) {
            b.haveArc = true;
            b.bestDist = dist;
            b.bestStoreTs = store_ts;
            b.bestLoadTs = now;
            b.bestSite = site;
        }
    }
}

void
TestProfiler::recordLineAccess(Addr addr, bool is_store)
{
    const Addr line = addr / config.lineBytes;
    for (auto &b : banks) {
        if (!b.active)
            continue;
        auto &table = is_store ? b.storeLineIter : b.loadLineIter;
        auto [it, fresh] = table.try_emplace(line, b.curIter);
        if (!fresh && it->second == b.curIter + 1)
            continue; // already counted this thread
        it->second = b.curIter + 1; // mark as seen in current thread
        if (is_store) {
            if (++b.storeLinesThis > config.storeBufferLines)
                b.overflowThis = true;
        } else {
            if (++b.loadLinesThis > config.loadBufferLines)
                b.overflowThis = true;
        }
    }
}

void
TestProfiler::onHeapLoad(Addr addr, Cycle now, std::uint32_t site)
{
    const Addr word = addr & ~3u;
    auto it = heapStoreTs.find(word);
    if (it != heapStoreTs.end())
        recordLoadEvent(it->second, now, {false, site});
    recordLineAccess(addr, false);
}

void
TestProfiler::onHeapStore(Addr addr, Cycle now)
{
    heapStoreTs[addr & ~3u] = now;
    recordLineAccess(addr, true);
}

void
TestProfiler::onLocalLoad(std::int32_t var, Cycle now)
{
    auto it = localStoreTs.find(var);
    if (it != localStoreTs.end())
        recordLoadEvent(it->second, now,
                        {true, static_cast<std::uint32_t>(var)});
}

void
TestProfiler::onLocalStore(std::int32_t var, Cycle now)
{
    localStoreTs[var] = now;
}

bool
TestProfiler::enoughData(std::int32_t loop_id) const
{
    auto it = results.find(loop_id);
    LoopProfile merged;
    if (it != results.end())
        merged = it->second;
    // Include live bank state.
    auto bit = bankOf.find(loop_id);
    if (bit != bankOf.end()) {
        const Bank &b = banks[bit->second];
        merged.iterations += b.acc.iterations;
        merged.overflowThreads += b.acc.overflowThreads;
    }
    if (merged.iterations >= 1000)
        return true;
    return merged.iterations >= 32 &&
           merged.overflowFrequency() > 0.9;
}

bool
TestProfiler::enoughData() const
{
    bool any = false;
    for (const auto &[id, prof] : results) {
        any = true;
        if (!enoughData(id))
            return false;
    }
    return any;
}

void
TestProfiler::publishMetrics(MetricsRegistry &reg) const
{
    for (const auto &[id, prof] : results) {
        const std::string p = strfmt("tracer.loop%d", id);
        reg.counter(p + ".entries").inc(prof.entries);
        reg.counter(p + ".iterations").inc(prof.iterations);
        reg.counter(p + ".skipped_entries").inc(prof.skippedEntries);
        reg.counter(p + ".dep_threads").inc(prof.depThreads);
        reg.counter(p + ".overflow_threads")
            .inc(prof.overflowThreads);
        reg.histogram(p + ".thread_size").merge(prof.threadSize);
        reg.histogram(p + ".arc_distance").merge(prof.arcDistance);
    }
}

} // namespace jrpm
