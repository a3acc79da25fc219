#include "trace.hh"

#include <algorithm>

#include "common/json.hh"
#include "common/logging.hh"

namespace jrpm
{

const char *
traceEvtName(TraceEvt e)
{
    switch (e) {
      case TraceEvt::StateChange: return "state";
      case TraceEvt::StlEntry: return "stl_entry";
      case TraceEvt::StlExit: return "stl_exit";
      case TraceEvt::ThreadStart: return "thread_start";
      case TraceEvt::ThreadCommit: return "commit";
      case TraceEvt::ThreadViolated: return "violation";
      case TraceEvt::ThreadRestart: return "restart";
      case TraceEvt::OverflowStall: return "overflow_stall";
      case TraceEvt::ViolatedWindow: return "violated_window";
      case TraceEvt::MemStall: return "mem_stall";
      case TraceEvt::JitCompile: return "jit_compile";
      case TraceEvt::JitRecompile: return "jit_recompile";
      case TraceEvt::VmTrap: return "vm_trap";
      case TraceEvt::GcBegin: return "gc_begin";
      case TraceEvt::GcEnd: return "gc_end";
      case TraceEvt::AllocRefill: return "alloc_refill";
      case TraceEvt::AllocSerialized: return "alloc_serialized";
      case TraceEvt::BankAllocated: return "bank_allocated";
      case TraceEvt::BankStolen: return "bank_stolen";
      case TraceEvt::BankExhausted: return "bank_exhausted";
      case TraceEvt::ProfileFlushed: return "profile_flushed";
      case TraceEvt::Phase: return "phase";
      case TraceEvt::WatchdogFired: return "watchdog_fired";
      case TraceEvt::GovernorDegrade: return "governor_degrade";
      case TraceEvt::FaultInjected: return "fault_injected";
    }
    return "?";
}

const char *
traceStateName(TraceState s)
{
    switch (s) {
      case TraceState::Idle: return "idle";
      case TraceState::Serial: return "serial";
      case TraceState::SerialOverhead: return "overhead-serial";
      case TraceState::SpecRun: return "run";
      case TraceState::SpecWait: return "wait";
      case TraceState::SpecOverhead: return "overhead";
      case TraceState::SpecRunViolated: return "run-violated";
      case TraceState::SpecWaitViolated: return "wait-violated";
    }
    return "?";
}

void
Trace::configure(std::uint32_t cpu_tracks, std::size_t capacity)
{
    std::lock_guard<std::recursive_mutex> lock(mu);
    if (cpu_tracks == 0 || capacity == 0)
        fatal("Trace::configure: tracks and capacity must be nonzero");
    nCpuTracks = cpu_tracks;
    rings.assign(cpu_tracks + 1, Ring());
    for (auto &r : rings)
        r.buf.resize(capacity);
    tsOffset = 0;
    maxTs = 0;
    phaseMarks.clear();
    ledger.clear();
    ledgerDropped = 0;
}

void
Trace::setEnabled(bool enable)
{
    std::lock_guard<std::recursive_mutex> lock(mu);
    if (enable && rings.empty())
        configure(8, 1u << 15);
    on = enable;
}

void
Trace::clear()
{
    std::lock_guard<std::recursive_mutex> lock(mu);
    for (auto &r : rings) {
        r.head = 0;
        r.count = 0;
    }
    tsOffset = 0;
    maxTs = 0;
    phaseMarks.clear();
    ledger.clear();
    ledgerDropped = 0;
}

void
Trace::beginPhase(const std::string &name)
{
    if (!enabled())
        return;
    std::lock_guard<std::recursive_mutex> lock(mu);
    tsOffset = totalRecorded() ? maxTs + 1 : 0;
    phaseMarks.emplace_back(tsOffset, name);
    record(kHostTrack, TraceEvt::Phase, 0,
           static_cast<std::int32_t>(phaseMarks.size()) - 1);
}

void
Trace::recordViolation(const ViolationRecord &rec)
{
    if (!enabled())
        return;
    std::lock_guard<std::recursive_mutex> lock(mu);
    if (ledger.size() >= kMaxLedger) {
        ++ledgerDropped;
        return;
    }
    ViolationRecord r = rec;
    r.cycle += tsOffset;
    ledger.push_back(r);
}

std::vector<ViolationRecord>
Trace::violations() const
{
    std::lock_guard<std::recursive_mutex> lock(mu);
    return ledger;
}

std::uint64_t
Trace::violationsDropped() const
{
    std::lock_guard<std::recursive_mutex> lock(mu);
    return ledgerDropped;
}

std::vector<std::pair<Cycle, std::string>>
Trace::phases() const
{
    std::lock_guard<std::recursive_mutex> lock(mu);
    return phaseMarks;
}

std::vector<TraceEvent>
Trace::events(std::uint8_t track) const
{
    std::lock_guard<std::recursive_mutex> lock(mu);
    std::vector<TraceEvent> out;
    const Ring *r = nullptr;
    if (track == kHostTrack)
        r = rings.empty() ? nullptr : &rings.back();
    else if (track < nCpuTracks)
        r = &rings[track];
    if (!r || r->count == 0)
        return out;
    const std::size_t cap = r->buf.size();
    const std::size_t n = std::min<std::uint64_t>(r->count, cap);
    out.reserve(n);
    // Oldest event: at head when wrapped, else at index 0.
    std::size_t at = r->count > cap ? r->head : 0;
    for (std::size_t i = 0; i < n; ++i) {
        out.push_back(r->buf[at]);
        if (++at == cap)
            at = 0;
    }
    return out;
}

std::uint64_t
Trace::totalRecorded() const
{
    std::lock_guard<std::recursive_mutex> lock(mu);
    std::uint64_t n = 0;
    for (const auto &r : rings)
        n += r.count;
    return n;
}

std::uint64_t
Trace::dropped() const
{
    std::lock_guard<std::recursive_mutex> lock(mu);
    std::uint64_t n = 0;
    for (const auto &r : rings)
        if (r.count > r.buf.size())
            n += r.count - r.buf.size();
    return n;
}

std::vector<TraceSpan>
Trace::spans() const
{
    std::lock_guard<std::recursive_mutex> lock(mu);
    std::vector<TraceSpan> out;
    const Cycle endTs = maxTs + 1;
    for (std::uint32_t t = 0; t < nCpuTracks; ++t) {
        const std::size_t firstOfTrack = out.size();
        bool open = false;
        TraceSpan cur;
        auto close = [&](Cycle at) {
            if (open && at > cur.begin) {
                cur.end = at;
                out.push_back(cur);
            }
            open = false;
        };
        for (const TraceEvent &e :
             events(static_cast<std::uint8_t>(t))) {
            if (e.kind == TraceEvt::StateChange) {
                close(e.ts);
                cur.track = static_cast<std::uint8_t>(t);
                cur.state = static_cast<TraceState>(e.arg0);
                cur.begin = e.ts;
                open = true;
            } else if (e.kind == TraceEvt::ViolatedWindow) {
                // Recolor this track's run/wait spans in
                // [e.ts - e.arg1, e.ts): the work was squashed.
                const Cycle ws = e.ts >= e.arg1 ? e.ts - e.arg1 : 0;
                close(e.ts);
                for (std::size_t i = out.size();
                     i-- > firstOfTrack;) {
                    TraceSpan &s = out[i];
                    if (s.end <= ws)
                        break;
                    TraceState vstate;
                    if (s.state == TraceState::SpecRun)
                        vstate = TraceState::SpecRunViolated;
                    else if (s.state == TraceState::SpecWait)
                        vstate = TraceState::SpecWaitViolated;
                    else
                        continue;
                    if (s.begin >= ws) {
                        s.state = vstate;
                    } else {
                        // Straddles the window start: split.
                        TraceSpan tail = s;
                        tail.begin = ws;
                        tail.state = vstate;
                        s.end = ws;
                        out.push_back(tail);
                    }
                }
                // Re-open the interrupted span (usually immediately
                // superseded by a StateChange at the same ts).
                cur.begin = e.ts;
                open = true;
            }
        }
        close(endTs);
        // Splitting can append out of order; restore time order.
        std::sort(out.begin() + firstOfTrack, out.end(),
                  [](const TraceSpan &a, const TraceSpan &b) {
                      return a.begin < b.begin;
                  });
    }
    return out;
}

std::string
Trace::exportChromeJson() const
{
    std::lock_guard<std::recursive_mutex> lock(mu);
    const auto lines = JsonWriter::Layout::Lines;
    JsonWriter w;
    w.beginObject().field("displayTimeUnit", "ms");
    w.key("traceEvents").beginArray(lines);

    // Track names.
    auto trackName = [&](std::uint32_t tid, const std::string &name) {
        w.beginObject().field("ph", "M").field("pid", 0).field("tid", tid);
        w.field("name", "thread_name").key("args").beginObject();
        w.field("name", name).endObject().endObject();
    };
    for (std::uint32_t t = 0; t < nCpuTracks; ++t)
        trackName(t, strfmt("cpu%u", t));
    trackName(nCpuTracks, "host");

    // Execution-state spans (skip Idle: it only adds noise).
    for (const TraceSpan &s : spans()) {
        if (s.state == TraceState::Idle)
            continue;
        w.beginObject().field("name", traceStateName(s.state));
        w.field("cat", "state").field("ph", "X").field("pid", 0);
        w.field("tid", s.track).field("ts", s.begin);
        w.field("dur", s.length()).endObject();
    }

    // Instant events, every track.
    auto emitInstants = [&](std::uint8_t track, std::uint32_t tid) {
        for (const TraceEvent &e : events(track)) {
            if (e.kind == TraceEvt::StateChange ||
                e.kind == TraceEvt::ViolatedWindow)
                continue;
            w.beginObject().key("name");
            if (e.kind == TraceEvt::Phase &&
                static_cast<std::size_t>(e.arg0) < phaseMarks.size())
                w.value("phase:" + phaseMarks[e.arg0].second);
            else
                w.value(traceEvtName(e.kind));
            w.field("cat", "event").field("ph", "i").field("s", "t");
            w.field("pid", 0).field("tid", tid).field("ts", e.ts);
            w.key("args").beginObject().field("arg0", e.arg0);
            w.field("arg1", e.arg1).field("arg2", e.arg2);
            w.endObject().endObject();
        }
    };
    for (std::uint32_t t = 0; t < nCpuTracks; ++t)
        emitInstants(static_cast<std::uint8_t>(t), t);
    emitInstants(kHostTrack, nCpuTracks);

    w.endArray().key("violationLedger").beginArray(lines);
    for (const ViolationRecord &v : ledger) {
        w.beginObject().field("cycle", v.cycle);
        w.field("addr", strfmt("0x%x", v.addr));
        w.field("storeSite", v.storeSite).field("loopId", v.loopId);
        w.field("storeCpu", v.storeCpu).field("victimCpu", v.victimCpu);
        w.field("victimIteration", v.victimIteration);
        w.field("victimProgress", v.victimProgress).endObject();
    }
    w.endArray().field("droppedEvents", dropped());
    w.field("droppedViolations", ledgerDropped);
    return w.endObject().take() + '\n';
}

bool
Trace::writeChromeJson(const std::string &path) const
{
    return writeTextFile(path, exportChromeJson(), "trace");
}

} // namespace jrpm
