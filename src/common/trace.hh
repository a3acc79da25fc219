/**
 * @file
 * Flight-recorder tracing for the whole Jrpm stack.
 *
 * The recorder mirrors how TEST itself works: low-overhead
 * hardware-style event capture into fixed-capacity per-CPU ring
 * buffers (plus one "host" track for software-side events: JIT
 * compiles, profiler milestones), analyzed after the fact.  The hot
 * path performs zero allocation — recording one event is a branch on
 * the enable flag plus one 32-byte POD store into a preallocated
 * ring; when the ring is full the oldest events are overwritten, like
 * a real flight recorder.
 *
 * At end of run the recorder exports:
 *  (a) Chrome/Perfetto `trace_event` JSON — one track per CPU showing
 *      serial/run/wait/violated/overhead spans (Fig. 10 as a zoomable
 *      timeline) plus instant events for commits, violations, traps,
 *      GCs and compiles;
 *  (b) a violation ledger mapping each squash to its store address,
 *      the static store/load site, and the victim thread's progress.
 */

#ifndef JRPM_COMMON_TRACE_HH
#define JRPM_COMMON_TRACE_HH

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hh"

namespace jrpm
{

/** Event kinds captured by the flight recorder. */
enum class TraceEvt : std::uint8_t
{
    /** Per-CPU execution-state transition; arg0 = TraceState. */
    StateChange = 0,
    StlEntry,        ///< arg0 = loopId
    StlExit,         ///< arg0 = loopId, arg1 = cycles inside
    ThreadStart,     ///< arg0 = loopId, arg1 = iteration
    ThreadCommit,    ///< arg0 = loopId, arg1 = iteration
    ThreadViolated,  ///< arg0 = loopId, arg1 = store addr (victim track)
    ThreadRestart,   ///< arg0 = loopId, arg1 = iteration
    OverflowStall,   ///< arg0 = loopId (speculative buffer overflow)
    /** Spans of this track in [ts - arg1, ts) were squashed: the
     *  exporter recolors run/wait to their violated variants.  The
     *  window is carried as a length so phase offsets cancel. */
    ViolatedWindow,
    MemStall,        ///< arg0 = HitLevel, arg1 = addr, arg2 = latency
    JitCompile,      ///< arg0 = CompileMode, arg1 = insts, arg2 = methods
    JitRecompile,    ///< same args; code space already populated
    VmTrap,          ///< arg0 = TrapId
    GcBegin,         ///< arg1 = live objects
    GcEnd,           ///< arg1 = freed objects, arg2 = modeled cycles
    AllocRefill,     ///< speculative local-buffer refill; arg1 = bytes
    AllocSerialized, ///< speculative bump of the *shared* top (§5.2)
    BankAllocated,   ///< arg0 = loopId (TEST comparator bank)
    BankStolen,      ///< arg0 = winner loopId, arg1 = victim loopId
    BankExhausted,   ///< arg0 = loopId; entry skipped, no bank free
    ProfileFlushed,  ///< arg0 = loopId, arg1 = iterations observed
    Phase,           ///< pipeline phase marker (host track)
    WatchdogFired,   ///< arg0 = loopId, arg1 = head iteration
    GovernorDegrade, ///< arg0 = loopId, arg1 = violations, arg2 = commits
    FaultInjected,   ///< arg0 = FaultKind, arg1 = kind-specific
};

/**
 * Per-cycle execution state of one CPU, as classified by the Fig. 10
 * accounting.  `Spec*` states are cycles inside an STL (each costs
 * 1/numCpus of a normalized cycle); `Serial*` states cost a full
 * cycle.  The `*Violated` variants never appear in the ring: the
 * exporter recolors run/wait spans inside a ViolatedWindow.
 */
enum class TraceState : std::uint8_t
{
    Idle = 0,         ///< parked outside any STL (not accounted)
    Serial,           ///< sequential execution (incl. stalls)
    SerialOverhead,   ///< TLS handler charged outside speculation
    SpecRun,          ///< executing / memory-stalled inside an STL
    SpecWait,         ///< waiting for head / overflow / parked in STL
    SpecOverhead,     ///< TLS handler or squash cycle inside an STL
    SpecRunViolated,  ///< (export only) run later squashed
    SpecWaitViolated, ///< (export only) wait later squashed
};

const char *traceEvtName(TraceEvt e);
const char *traceStateName(TraceState s);

/** One captured event.  POD; 32 bytes. */
struct TraceEvent
{
    Cycle ts = 0;
    std::uint64_t arg1 = 0;
    std::int32_t arg0 = 0;
    std::uint32_t arg2 = 0;
    TraceEvt kind = TraceEvt::StateChange;
    std::uint8_t track = 0;
};

/** A reconstructed per-CPU execution-state span [begin, end). */
struct TraceSpan
{
    std::uint8_t track = 0;
    TraceState state = TraceState::Idle;
    Cycle begin = 0;
    Cycle end = 0;

    Cycle length() const { return end - begin; }
};

/** Ledger entry: one RAW squash, fully attributed. */
struct ViolationRecord
{
    Cycle cycle = 0;            ///< when the violating store landed
    Addr addr = 0;              ///< the store address
    std::uint32_t storeSite = 0;///< encoded pc of the static store
    std::int32_t loopId = -1;   ///< STL active at the squash
    std::uint8_t storeCpu = 0;  ///< who performed the store
    std::uint8_t victimCpu = 0; ///< least-speculative squashed thread
    std::uint64_t victimIteration = 0;
    Cycle victimProgress = 0;   ///< cycles of work thrown away
};

/** The process-wide flight recorder. */
class Trace
{
  public:
    /** Track id for software-side (non-CPU) events. */
    static constexpr std::uint8_t kHostTrack = 0xff;
    /** Bound on a violation ledger's entries (this one and each
     *  Machine's own). */
    static constexpr std::size_t kMaxLedger = 4096;

    static Trace &
    global()
    {
        static Trace t;
        return t;
    }

    /**
     * Size the rings: one per CPU plus the host track, each holding
     * @p capacity events.  Reconfiguring drops recorded events.
     */
    void configure(std::uint32_t cpu_tracks, std::size_t capacity);

    /** Runtime switch; configure() defaults are applied on first
     *  enable if configure() was never called. */
    void setEnabled(bool on);

    bool
    enabled() const
    {
        return on.load(std::memory_order_relaxed);
    }

    /** Drop all events, phases and ledger entries; keep geometry. */
    void clear();

    /**
     * Record one event (hot path).  @p ts is in machine cycles; the
     * current phase offset is added so successive runs occupy
     * disjoint timeline regions.  Unknown tracks are dropped.
     */
    void
    record(std::uint8_t track, TraceEvt kind, Cycle ts,
           std::int32_t arg0 = 0, std::uint64_t arg1 = 0,
           std::uint32_t arg2 = 0)
    {
        if (!enabled())
            return;
        // The disabled path above stays lock-free; with tracing on,
        // concurrent pipelines (batch driver) serialize here so ring
        // state never corrupts.
        std::lock_guard<std::recursive_mutex> lock(mu);
        Ring *r = ringFor(track);
        if (!r)
            return;
        TraceEvent &e = r->buf[r->head];
        e.ts = ts + tsOffset;
        e.arg1 = arg1;
        e.arg0 = arg0;
        e.arg2 = arg2;
        e.kind = kind;
        e.track = track;
        if (++r->head == r->buf.size())
            r->head = 0;
        ++r->count;
        if (e.ts > maxTs)
            maxTs = e.ts;
    }

    /**
     * Start a named pipeline phase: subsequent events are offset past
     * everything recorded so far (each Machine run restarts its cycle
     * counter at 0; phases keep runs disjoint on the timeline).
     */
    void beginPhase(const std::string &name);

    /** Record one squash into the bounded ledger. */
    void recordViolation(const ViolationRecord &rec);

    // ---- readout ---------------------------------------------------
    /** Events of one track, oldest first (kHostTrack for host). */
    std::vector<TraceEvent> events(std::uint8_t track) const;

    /** Every event recorded (including ones since overwritten). */
    std::uint64_t totalRecorded() const;

    /** Events lost to ring wraparound. */
    std::uint64_t dropped() const;

    /** Events each track's ring holds (0 before configure()). */
    std::size_t capacity() const;

    /** The violation ledger, oldest first.  Like every readout this
     *  is a copy taken under the lock: concurrent pipelines keep
     *  appending. */
    std::vector<ViolationRecord> violations() const;

    /** Ledger entries dropped at the kMaxLedger bound. */
    std::uint64_t violationsDropped() const;

    /** (offset, name) of every beginPhase(), in order. */
    std::vector<std::pair<Cycle, std::string>> phases() const;

    /**
     * Reconstruct per-CPU execution-state spans from the StateChange
     * events, recoloring squashed windows to the *Violated states.
     * Idle spans are included; the final open span of each track is
     * closed at the last recorded timestamp + 1.
     */
    std::vector<TraceSpan> spans() const;

    /** Chrome/Perfetto trace_event JSON (see file header). */
    std::string exportChromeJson() const;

    /** exportChromeJson() to a file.  @return false on I/O error. */
    bool writeChromeJson(const std::string &path) const;

  private:
    struct Ring
    {
        std::vector<TraceEvent> buf;
        std::size_t head = 0;   ///< next write position
        std::uint64_t count = 0;///< total events ever written
    };

    Ring *
    ringFor(std::uint8_t track)
    {
        if (track == kHostTrack)
            return rings.empty() ? nullptr : &rings.back();
        if (track >= nCpuTracks)
            return nullptr;
        return &rings[track];
    }

    /** Guards all ring/ledger/phase state.  Recursive because public
     *  readouts compose (beginPhase→record, spans→events, ...). */
    mutable std::recursive_mutex mu;

    std::atomic<bool> on{false};
    std::uint32_t nCpuTracks = 0;
    std::vector<Ring> rings;    ///< cpu tracks + host track at the end
    Cycle tsOffset = 0;
    Cycle maxTs = 0;
    std::vector<std::pair<Cycle, std::string>> phaseMarks;
    std::vector<ViolationRecord> ledger;
    std::uint64_t ledgerDropped = 0;
};

} // namespace jrpm

/** Instrumentation macros: a single enabled-flag branch when the
 *  recorder is off. */
#define JRPM_TRACE(track, kind, ts, ...)                               \
    ::jrpm::Trace::global().record((track), (kind),                    \
                                   (ts)__VA_OPT__(, ) __VA_ARGS__)
#define JRPM_TRACE_ON() (::jrpm::Trace::global().enabled())

#endif // JRPM_COMMON_TRACE_HH
