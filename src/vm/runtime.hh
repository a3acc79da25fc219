/**
 * @file
 * The VM runtime living in simulated memory: heap with bump
 * allocation and mark-sweep garbage collection over free lists
 * (§5.2), per-CPU speculative allocation buffers, object monitors
 * with speculation-aware locking (§5.3), statics, and the trap
 * services the compiled code calls through the TRAP instruction.
 *
 * Allocation-path memory traffic flows through Machine::trapLoad/
 * trapStore so the §5.2 serializing dependency on the shared
 * allocator arises (and is cured by the per-CPU buffers) exactly as
 * in the paper.
 */

#ifndef JRPM_VM_RUNTIME_HH
#define JRPM_VM_RUNTIME_HH

#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "bytecode/bytecode.hh"
#include "cpu/hooks.hh"
#include "tls/machine.hh"

namespace jrpm
{

/** Memory map and policy knobs of the VM. */
struct VmConfig
{
    Addr globalsBase = 0x8000;       ///< statics area ($gp)
    Addr lockTableBase = 0xa000;     ///< monitor words by lock id
    std::uint32_t maxLocks = 1024;
    Addr heapBase = 0x100000;
    std::uint32_t heapBytes = 24u << 20;
    Addr stackTop = 0xf0000;         ///< runtime stack (grows down)

    /** §5.2: per-CPU allocation buffers during speculation (off:
     *  every speculative allocation serializes on the shared top). */
    bool speculativeAllocators = true;
    /** §5.3: elide monitor traffic during speculation (off: lock
     *  words cause an inter-thread dependency per iteration). */
    bool speculativeLockElision = true;

    std::uint32_t allocTrapCycles = 12;  ///< fast-path service cost
    std::uint32_t monitorTrapCycles = 6;
    std::uint32_t printTrapCycles = 40;
    /** Per-CPU speculative allocation buffer chunk (bytes). */
    std::uint32_t localAllocChunk = 4096;
    /** Trigger GC when free heap falls below this fraction. */
    double gcTriggerFraction = 0.15;
    /** GC cost model: cycles per live word scanned + per heap word
     *  swept. */
    double gcCyclesPerScannedWord = 1.0;
    double gcCyclesPerSweptObject = 8.0;
};

/** Allocation / collection statistics. */
struct VmStats
{
    std::uint64_t allocations = 0;
    std::uint64_t allocatedBytes = 0;
    std::uint64_t gcRuns = 0;
    std::uint64_t gcCycles = 0;
    std::uint64_t gcFreedObjects = 0;
    std::uint64_t monitorEnters = 0;
    std::vector<Word> output;        ///< PrintInt stream
};

/**
 * The runtime: owns the simulated heap layout and answers traps.
 *
 * Object layout (refs point at the payload):
 *   [ref-8]  header: class id | mark bit (bit 31) | byte-array flag
 *   [ref-4]  length: payload words, or element count for arrays
 *   [ref..]  payload
 */
class VmRuntime : public RuntimeHooks
{
  public:
    VmRuntime(Machine &machine, const VmConfig &cfg = {});

    /**
     * Prepare a started machine: zero the statics and allocator
     * words and point $gp of the boot CPU at the statics area.
     */
    void prepare();

    std::uint32_t trap(Machine &m, std::uint32_t cpu,
                       TrapId id) override;

    const VmStats &stats() const { return vmStats; }
    const VmConfig &config() const { return cfg; }

    /**
     * Host-side allocation used to stage input data before the
     * program runs (not charged any cycles).
     */
    Addr hostAllocArray(std::uint32_t elem_bytes,
                        std::uint32_t length);

    /** Number of live (allocated, unswept) objects. */
    std::size_t liveObjects() const { return objects.size(); }

    /** Force a collection (testing). */
    void collect(std::uint32_t cpu);

    /** Register allocation/GC/monitor counters under "vm.". */
    void publishMetrics(MetricsRegistry &reg) const;

    /**
     * Memory regions that are VM bookkeeping rather than program
     * state — the allocator control words and the lock table (whose
     * contents legitimately differ when §5.3 lock elision is on).
     * Sorted [base, len) pairs for MainMemory::checksum and the
     * differential oracle's image compare.
     */
    static std::vector<std::pair<Addr, std::uint32_t>>
    scratchRegions(const VmConfig &cfg, std::uint32_t num_cpus);

    /**
     * The memory map as variable-class regions for the observatory's
     * violated-address bucketing (Machine::setAddrRegions).  Mapping
     * onto the analyzer's vocabulary: Stack holds locals/private/
     * carried spills, Heap is the Memory class, Static covers
     * invariant statics, Scratch is allocator/lock bookkeeping.
     */
    static std::vector<Machine::AddrRegion>
    addrRegions(const VmConfig &cfg);

  private:
    Machine &m;
    VmConfig cfg;
    VmStats vmStats;

    Addr heapEnd;
    /** simulated addresses of the allocator words */
    Addr globalTopAddr;
    std::vector<Addr> localTopAddr, localEndAddr;

    /** every allocated object ref, for conservative marking */
    std::set<Addr> objects;
    /** free chunks by size (bytes), host-side index of the free
     *  lists the sweeper builds */
    std::multimap<std::uint32_t, Addr> freeChunks;

    std::uint32_t allocate(std::uint32_t cpu, Word class_word,
                           std::uint32_t payload_bytes,
                           std::uint32_t length_word, Word &ref);
    bool shouldCollect() const;
    void markFrom(Word candidate, std::vector<Addr> &work,
                  std::set<Addr> &marked) const;
};

} // namespace jrpm

#endif // JRPM_VM_RUNTIME_HH
