#include "common/hostprof.hh"

#include <chrono>
#include <mutex>

#include "common/json.hh"
#include "common/metrics.hh"

namespace jrpm
{
namespace hostprof
{

std::atomic<bool> gEnabled{false};
constinit thread_local ThreadTable tTable;

namespace
{

struct GlobalSlot
{
    std::atomic<std::uint64_t> tsc{0};
    std::atomic<std::uint64_t> child{0};
    std::atomic<std::uint64_t> count{0};
};

GlobalSlot gSlots[kNumSlots];

const char *const kNames[kNumSlots] = {
    "pipeline",       // Pipeline
    "jit_compile",    // JitCompile
    "machine_run",    // MachineRun
    "seq_dispatch",   // SeqDispatch
    "spec_dispatch",  // SpecDispatch
    "event_horizon",  // EventHorizon
    "step_exact",     // StepExact
    "forward_scan",   // ForwardScan
    "dep_check",      // DepCheck
    "commit",         // Commit
    "squash",         // Squash
    "buffer_drain",   // BufferDrain
    "spec_state_clear", // SpecStateClear
    "trap_runtime",   // TrapRuntime
    "oracle_check",   // OracleCheck
    "metrics_publish",// MetricsPublish
    "sig_check",      // SigCheck
};

// Declared parent of each slot, for rendering (flamegraph grouping):
// the canonical hierarchy, -1 for roots.  Dynamic nesting can differ;
// self times are computed from actual nesting.
const int kParents[kNumSlots] = {
    -1,                                   // Pipeline
    static_cast<int>(HostSlot::Pipeline), // JitCompile
    static_cast<int>(HostSlot::Pipeline), // MachineRun
    static_cast<int>(HostSlot::MachineRun),   // SeqDispatch
    static_cast<int>(HostSlot::MachineRun),   // SpecDispatch
    static_cast<int>(HostSlot::MachineRun),   // EventHorizon
    static_cast<int>(HostSlot::MachineRun),   // StepExact
    static_cast<int>(HostSlot::StepExact),    // ForwardScan
    static_cast<int>(HostSlot::StepExact),    // DepCheck
    static_cast<int>(HostSlot::StepExact),    // Commit
    static_cast<int>(HostSlot::StepExact),    // Squash
    static_cast<int>(HostSlot::Commit),       // BufferDrain
    static_cast<int>(HostSlot::Squash),       // SpecStateClear
    static_cast<int>(HostSlot::StepExact),    // TrapRuntime
    static_cast<int>(HostSlot::Pipeline),     // OracleCheck
    static_cast<int>(HostSlot::Pipeline),     // MetricsPublish
    static_cast<int>(HostSlot::StepExact),    // SigCheck
};

} // namespace

void
setEnabled(bool on)
{
    gEnabled.store(on, std::memory_order_relaxed);
}

void
flushThread()
{
    ThreadTable &t = tTable;
    for (std::size_t i = 0; i < kNumSlots; ++i) {
        ThreadSlot &s = t.slots[i];
        if (s.tsc == 0 && s.count == 0 && s.child == 0)
            continue;
        gSlots[i].tsc.fetch_add(s.tsc, std::memory_order_relaxed);
        gSlots[i].child.fetch_add(s.child, std::memory_order_relaxed);
        gSlots[i].count.fetch_add(s.count, std::memory_order_relaxed);
        s = ThreadSlot();
    }
}

void
reset()
{
    for (auto &g : gSlots) {
        g.tsc.store(0, std::memory_order_relaxed);
        g.child.store(0, std::memory_order_relaxed);
        g.count.store(0, std::memory_order_relaxed);
    }
    tTable = ThreadTable();
}

double
tscHz()
{
    static std::once_flag once;
    static double hz = 1e9;
    std::call_once(once, [] {
        using Clock = std::chrono::steady_clock;
        const std::uint64_t t0 = now();
        const auto w0 = Clock::now();
        // ~2 ms busy spin: long enough to swamp clock granularity,
        // short enough to be invisible at process scope.
        while (Clock::now() - w0 < std::chrono::milliseconds(2)) {
        }
        const std::uint64_t t1 = now();
        const auto w1 = Clock::now();
        const double sec =
            std::chrono::duration<double>(w1 - w0).count();
        if (sec > 0 && t1 > t0)
            hz = static_cast<double>(t1 - t0) / sec;
    });
    return hz;
}

std::vector<SlotSnapshot>
snapshot()
{
    const double hz = tscHz();
    std::vector<SlotSnapshot> out;
    out.reserve(kNumSlots);
    for (std::size_t i = 0; i < kNumSlots; ++i) {
        SlotSnapshot s;
        s.name = kNames[i];
        s.parent = kParents[i];
        s.tsc = gSlots[i].tsc.load(std::memory_order_relaxed);
        const std::uint64_t child =
            gSlots[i].child.load(std::memory_order_relaxed);
        s.self = s.tsc > child ? s.tsc - child : 0;
        s.count = gSlots[i].count.load(std::memory_order_relaxed);
        s.totalSec = static_cast<double>(s.tsc) / hz;
        s.selfSec = static_cast<double>(s.self) / hz;
        out.push_back(std::move(s));
    }
    return out;
}

void
publish(MetricsRegistry &reg)
{
    for (const SlotSnapshot &s : snapshot()) {
        if (s.count == 0 && s.tsc == 0)
            continue;
        reg.gauge("hostprof." + s.name + ".total_sec").set(s.totalSec);
        reg.gauge("hostprof." + s.name + ".self_sec").set(s.selfSec);
        reg.gauge("hostprof." + s.name + ".scopes")
            .set(static_cast<double>(s.count));
    }
    reg.gauge("hostprof.tsc_hz").set(tscHz());
}

std::string
reportJson()
{
    JsonWriter w;
    w.beginArray();
    for (const SlotSnapshot &s : snapshot()) {
        w.beginObject().field("slot", s.name).key("parent");
        if (s.parent >= 0)
            w.value(kNames[s.parent]);
        else
            w.null();
        w.field("ticks", s.tsc).field("selfTicks", s.self);
        w.field("scopes", s.count).key("totalSec").fixed(s.totalSec, 9);
        w.key("selfSec").fixed(s.selfSec, 9).endObject();
    }
    return w.endArray().take();
}

} // namespace hostprof
} // namespace jrpm
