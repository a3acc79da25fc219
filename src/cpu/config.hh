/**
 * @file
 * Configuration of the simulated Hydra CMP (Fig. 2 and Table 1).
 */

#ifndef JRPM_CPU_CONFIG_HH
#define JRPM_CPU_CONFIG_HH

#include <cstdint>

#include "memory/spec_state.hh"

namespace jrpm
{

/**
 * Cycle costs of the TLS software control handlers (Table 1).  The
 * "new" handlers are the paper's improved routines; the "old" ones are
 * the earlier Hydra runtime's, selectable for the Table 1 comparison.
 */
struct HandlerCosts
{
    std::uint32_t startup = 23;   ///< STL_STARTUP (master only)
    std::uint32_t shutdown = 16;  ///< STL_SHUTDOWN (master only)
    std::uint32_t eoi = 5;        ///< per end-of-iteration
    std::uint32_t restart = 6;    ///< per violation restart

    /** Overheads reported for the previous runtime (Table 1, Old). */
    static HandlerCosts
    legacy()
    {
        return {41, 46, 14, 13};
    }

    /**
     * Reduced costs when startup/shutdown work is hoisted out of a
     * repeatedly-entered STL (§4.2.7): the slave wake-up and
     * speculation-hardware initialization are not re-executed.
     */
    static HandlerCosts
    hoisted()
    {
        return {8, 5, 5, 6};
    }
};

/**
 * Forward-progress watchdog over the TLS commit protocol.  If no head
 * thread commits (and no STL boundary is crossed) for
 * @ref noProgressCycles consecutive cycles while speculation is
 * active, the protocol has deadlocked (lost wakeup, iteration hole,
 * handler bug): the machine dumps diagnostics, squashes all
 * speculative work and halts the run with a diagnostic
 * ExcKind::Watchdog outcome instead of spinning to the cycle limit.
 */
struct WatchdogConfig
{
    bool enabled = true;
    /** Max cycles between head commits inside an STL.  Generous by
     *  default: stock threads are ~10^3-10^4 cycles, and a head
     *  waiting out a memory stall chain never approaches this. */
    std::uint64_t noProgressCycles = 2'000'000;
};

/**
 * Per-loop speculation governor (graceful degradation).  Tracks each
 * loop's squash and overflow-stall rates at runtime; a loop whose
 * misbehaviour exceeds the thresholds is aborted at the next head
 * commit, blacklisted for the rest of the run, and re-entered in
 * "solo" mode: the STL code keeps running, but only the head thread
 * executes (all iterations in order, no slaves) — sequential
 * semantics with only the handler overheads, the paper's
 * decompilation safety net.
 */
struct GovernorConfig
{
    bool enabled = true;
    /** Commits + violations observed before the rates are judged. */
    std::uint32_t minSamples = 48;
    /** Abort when violations exceed this multiple of commits. */
    double maxViolationsPerCommit = 6.0;
    /** Abort when overflow stalls exceed this multiple of commits. */
    double maxOverflowPerCommit = 12.0;
};

/** Simulator dispatch tier (DESIGN.md, "Simulator dispatch"). */
enum class Dispatch : std::uint8_t
{
    /** Event-horizon batching and signature-admitted speculative
     *  windows, with accounting bit-identical to Exact. */
    Fast,
    /** The per-cycle reference: Machine::step() every cycle.  The
     *  differential tests check Fast against it. */
    Exact,
};

/** Whole-machine configuration. */
struct SystemConfig
{
    std::uint32_t numCpus = 4;
    std::uint32_t memBytes = 64u << 20;

    // Memory hierarchy latencies in cycles (Fig. 2); an L1 hit costs
    // no extra cycles beyond the instruction itself.
    std::uint32_t l2Latency = 5;
    std::uint32_t forwardLatency = 10;  ///< inter-processor
    std::uint32_t memLatency = 50;

    // L1 data cache geometry (16 kB, 32 B lines, 4-way).
    std::uint32_t l1Bytes = 16u << 10;
    std::uint32_t l1Assoc = 4;
    // Shared on-chip L2 (2 MB).
    std::uint32_t l2Bytes = 2u << 20;
    std::uint32_t l2Assoc = 16;

    /** Model cache timing (off = every access is an L1 hit). */
    bool cacheTiming = true;

    /** How Machine::run dispatches cycles (no effect on simulated
     *  behaviour: every result is bit-identical in both tiers). */
    Dispatch dispatch = Dispatch::Fast;

    SpecBufferConfig specBuffers;
    HandlerCosts handlers;
    WatchdogConfig watchdog;
    GovernorConfig governor;
};

} // namespace jrpm

#endif // JRPM_CPU_CONFIG_HH
