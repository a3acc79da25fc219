#include "jrpm.hh"

#include <algorithm>
#include <cinttypes>

#include "common/hostprof.hh"
#include "common/logging.hh"
#include "common/metrics.hh"
#include "common/trace.hh"

namespace jrpm
{

std::string
outcomeDiff(const RunOutcome &a, const RunOutcome &b)
{
    std::string d;
    auto u64 = [&](const char *what, std::uint64_t x, std::uint64_t y) {
        if (d.empty() && x != y)
            d = strfmt("%s: %" PRIu64 " vs %" PRIu64, what, x, y);
    };
    auto num = [&](const char *what, double x, double y) {
        if (d.empty() && x != y)
            d = strfmt("%s: %.17g vs %.17g", what, x, y);
    };
    auto hist = [&](const char *what, const SpanHist &x,
                    const SpanHist &y) {
        u64(strfmt("%s.count", what).c_str(), x.count, y.count);
        u64(strfmt("%s.sum", what).c_str(), x.sum, y.sum);
        u64(strfmt("%s.max", what).c_str(), x.max, y.max);
    };

    u64("halted", a.halted, b.halted);
    u64("uncaught", a.uncaught, b.uncaught);
    u64("exitValue", a.exitValue, b.exitValue);
    u64("cycles", a.cycles, b.cycles);
    u64("insts", a.insts, b.insts);
    u64("memChecksum", a.memChecksum, b.memChecksum);
    u64("watchdogFired", a.watchdogFired, b.watchdogFired);
    u64("faultsInjected", a.faultsInjected, b.faultsInjected);
    if (d.empty() && a.vm.output != b.vm.output)
        d = "vm.output differs";
    u64("vm.allocations", a.vm.allocations, b.vm.allocations);
    u64("vm.allocatedBytes", a.vm.allocatedBytes, b.vm.allocatedBytes);
    u64("vm.gcRuns", a.vm.gcRuns, b.vm.gcRuns);
    u64("vm.gcCycles", a.vm.gcCycles, b.vm.gcCycles);
    u64("vm.gcFreedObjects", a.vm.gcFreedObjects, b.vm.gcFreedObjects);
    u64("vm.monitorEnters", a.vm.monitorEnters, b.vm.monitorEnters);
    u64("l1Hits", a.l1Hits, b.l1Hits);
    u64("l1Misses", a.l1Misses, b.l1Misses);
    u64("l2Hits", a.l2Hits, b.l2Hits);
    u64("l2Misses", a.l2Misses, b.l2Misses);

    const ExecStats &sa = a.stats;
    const ExecStats &sb = b.stats;
#define JRPM_DIFF_BUCKET(m) num("stats." #m, sa.m, sb.m);
#define JRPM_DIFF_SCALAR(path, metric, key, diff)                            \
    if (diff)                                                                \
        u64("stats." #path, sa.path, sb.path);
#define JRPM_DIFF_HIST(m, key, diff)                                         \
    if (diff)                                                                \
        hist("stats." #m, sa.m, sb.m);
#define JRPM_DIFF_CAUSES(m, n, name, metric, key, diff)                      \
    if (diff)                                                                \
        for (std::size_t c = 0; c < n; ++c)                                  \
            u64(strfmt("stats." #m "[%s]", name(c)).c_str(), sa.m[c],      \
                sb.m[c]);
    JRPM_EXEC_STATS(JRPM_DIFF_BUCKET, JRPM_DIFF_SCALAR, JRPM_DIFF_SCALAR,
                    JRPM_DIFF_HIST, JRPM_DIFF_CAUSES)
#undef JRPM_DIFF_BUCKET
#undef JRPM_DIFF_SCALAR
#undef JRPM_DIFF_HIST
#undef JRPM_DIFF_CAUSES
    if (d.empty() && sa.violationAddrs != sb.violationAddrs)
        d = "stats.violationAddrs differs";
    return d;
}

RunDigest
RunDigest::of(const RunOutcome &o)
{
    RunDigest d;
    d.halted = o.halted;
    d.uncaught = o.uncaught;
    d.exitValue = o.exitValue;
    d.output = o.vm.output;
    d.memChecksum = o.memChecksum;
    d.memImage = o.memImage;
    d.violations = o.violations;
    return d;
}

JrpmSystem::JrpmSystem(Workload workload, JrpmConfig config)
    : load(std::move(workload)), cfg(std::move(config)),
      theJit(load.program, cfg.jit)
{
    if (load.profileArgs.empty())
        load.profileArgs = load.mainArgs;
}

RunOutcome
JrpmSystem::runOn(Machine &m, const std::vector<Word> &args)
{
    VmConfig vmCfg = cfg.vm;
    if (cfg.oracle.mode != OracleMode::Off &&
        cfg.oracle.serializeAllocators) {
        // Heap layout must be bit-identical between the sequential
        // golden run and the TLS run for a memory compare to mean
        // anything, so the §5.2 per-CPU allocation buffers are off
        // for *both* (sequential runs never use them anyway).
        vmCfg.speculativeAllocators = false;
    }
    VmRuntime vm(m, vmCfg);
    m.setRuntime(&vm);
    m.start(load.program.entryMethod, args, cfg.vm.stackTop);
    vm.prepare();
    m.setAddrRegions(VmRuntime::addrRegions(vmCfg));
    const bool halted = m.run(cfg.maxCycles);
    if (!halted)
        warn("%s: run did not complete within %llu cycles",
             load.name.c_str(),
             static_cast<unsigned long long>(cfg.maxCycles));
    RunOutcome out;
    out.halted = halted;
    out.uncaught = m.uncaughtException();
    out.exitValue = m.exitValue();
    out.cycles = m.now();
    out.insts = m.instCount();
    out.stats = m.stats();
    out.stl = m.stlStats();
    out.vm = vm.stats();
    out.l1Hits = m.l1Hits();
    out.l1Misses = m.l1Misses();
    out.l2Hits = m.l2Hits();
    out.l2Misses = m.l2Misses();
    out.watchdogFired = m.watchdogFired();
    if (cfg.oracle.mode != OracleMode::Off) {
        JRPM_HPROF(OracleCheck);
        const auto skip =
            VmRuntime::scratchRegions(vmCfg, cfg.sys.numCpus);
        out.memChecksum = m.memoryChecksum(skip);
        out.memImage =
            std::make_shared<const MemImage>(m.memorySnapshot());
        out.violations = m.violations();
    }
    {
        JRPM_HPROF(MetricsPublish);
        auto &reg = MetricsRegistry::global();
        m.publishMetrics(reg);
        vm.publishMetrics(reg);
    }
    m.setRuntime(nullptr);
    return out;
}

RunOutcome
JrpmSystem::runSequential(const std::vector<Word> &args,
                          bool annotated, TestProfiler *prof)
{
    if (JRPM_TRACE_ON())
        Trace::global().beginPhase(annotated ? "profile"
                                             : "sequential");
    Machine m(cfg.sys);
    {
        JRPM_HPROF(JitCompile);
        theJit.compileAll(m.codeSpace(), annotated
                                             ? CompileMode::Profiling
                                             : CompileMode::Plain);
    }
    if (prof)
        m.setProfiler(prof);
    return runOn(m, args);
}

RunOutcome
JrpmSystem::runTls(const std::vector<Word> &args,
                   const std::vector<SelectedStl> &selections)
{
    if (JRPM_TRACE_ON())
        Trace::global().beginPhase("tls");
    Machine m(cfg.sys);
    FaultInjector inj(cfg.faultPlan);
    if (inj.armed()) {
        inform("fault plan armed: %s",
               cfg.faultPlan.describe().c_str());
        m.setFaultInjector(&inj);
    }
    std::vector<StlRequest> reqs;
    reqs.reserve(selections.size());
    for (const auto &sel : selections)
        reqs.push_back({sel.loopId, sel.plan});
    {
        JRPM_HPROF(JitCompile);
        theJit.compileAll(m.codeSpace(), CompileMode::Tls, reqs);
    }
    RunOutcome out = runOn(m, args);
    out.faultsInjected = inj.firedTotal();
    return out;
}

std::vector<SelectedStl>
JrpmSystem::filterDynamicNesting(
    std::vector<SelectedStl> selections) const
{
    const BcProgram &prog = theJit.program();
    const std::size_t nm = prog.methods.size();

    // Transitive call-graph closure: reach[m] = methods callable
    // from m.
    std::vector<std::set<std::uint32_t>> reach(nm);
    for (std::uint32_t mi = 0; mi < nm; ++mi)
        for (const auto &inst : prog.methods[mi].code)
            if (inst.op == Bc::CALL)
                reach[mi].insert(
                    static_cast<std::uint32_t>(inst.imm));
    bool changed = true;
    while (changed) {
        changed = false;
        for (std::uint32_t mi = 0; mi < nm; ++mi) {
            for (std::uint32_t callee :
                 std::set<std::uint32_t>(reach[mi])) {
                for (std::uint32_t t : reach[callee])
                    if (reach[mi].insert(t).second)
                        changed = true;
            }
        }
    }

    // Methods reachable from a loop's body (directly or transitively).
    auto bodyReach = [&](const SelectedStl &sel) {
        std::set<std::uint32_t> out;
        for (const auto &li : theJit.loopInfos()) {
            if (li.loopId != sel.loopId)
                continue;
            const LoopNest &nest = theJit.loopNest(li.methodId);
            const JitLoop &loop = nest.byId(sel.loopId);
            const BcMethod &m = prog.methods[li.methodId];
            for (std::int32_t bc : loop.body) {
                if (m.code[bc].op != Bc::CALL)
                    continue;
                const auto callee =
                    static_cast<std::uint32_t>(m.code[bc].imm);
                out.insert(callee);
                out.insert(reach[callee].begin(),
                           reach[callee].end());
            }
        }
        return out;
    };
    auto methodOf = [&](std::int32_t loop_id) {
        for (const auto &li : theJit.loopInfos())
            if (li.loopId == loop_id)
                return li.methodId;
        return 0u;
    };

    // Selections arrive best-covered first; keep greedily.
    std::vector<SelectedStl> kept;
    std::vector<std::set<std::uint32_t>> keptReach;
    for (auto &cand : selections) {
        const std::uint32_t cm = methodOf(cand.loopId);
        const auto cr = bodyReach(cand);
        bool conflict = false;
        for (std::size_t k = 0; k < kept.size(); ++k) {
            const std::uint32_t km = methodOf(kept[k].loopId);
            if (keptReach[k].count(cm) || cr.count(km)) {
                conflict = true;
                break;
            }
        }
        if (conflict) {
            inform("dropping STL %d (dynamic nesting with a better "
                   "selection)", cand.loopId);
            continue;
        }
        kept.push_back(std::move(cand));
        keptReach.push_back(cr);
    }
    return kept;
}

std::map<std::int32_t, LoopProfile>
JrpmSystem::profileOnly()
{
    TestProfiler prof(cfg.tracer);
    runSequential(load.profileArgs, true, &prof);
    return prof.profiles();
}

std::vector<SelectedStl>
JrpmSystem::selectOnly()
{
    auto profiles = profileOnly();
    Analyzer an(cfg.analyzer);
    return filterDynamicNesting(
        an.select(theJit.loopInfos(), profiles));
}

JrpmReport
JrpmSystem::run()
{
    JrpmReport rep;
    {
        JRPM_HPROF(Pipeline);
        rep = runPipeline();
    }
    if (hostprof::enabled())
        hostprof::flushThread();
    return rep;
}

JrpmReport
JrpmSystem::runPipeline()
{
    JrpmReport rep;
    rep.name = load.name;

    // Crystal: look for a persisted decomposition of this exact
    // (program, profile args, analyzer config, schema version).
    CrystalRepo *repo = cfg.crystal.repo;
    const std::uint64_t progHash = hashProgram(load.program);
    const std::uint64_t argsHash = hashArgs(load.profileArgs);
    const std::uint64_t confHash =
        hashAnalyzerConfig(cfg.analyzer, cfg.tracer);
    rep.fingerprint =
        crystalFingerprint(progHash, argsHash, confHash);
    CrystalEntry entry;
    if (repo && cfg.crystal.warm != WarmMode::Cold) {
        if (repo->lookup(rep.fingerprint, entry)) {
            if (entry.matches(progHash, argsHash, confHash)) {
                rep.warmStart = true;
            } else {
                // Fingerprint collision or hand-edited file: the
                // stored component hashes disagree — cold re-profile.
                warn("%s: crystal entry %016llx has mismatched "
                     "component hashes; invalidating",
                     load.name.c_str(),
                     static_cast<unsigned long long>(
                         rep.fingerprint));
                repo->invalidate(rep.fingerprint);
            }
        }
        if (!rep.warmStart && cfg.crystal.warm == WarmMode::Warm)
            fatal("%s: --warm=warm but no usable crystal entry "
                  "%016llx in '%s' (run cold first)",
                  load.name.c_str(),
                  static_cast<unsigned long long>(rep.fingerprint),
                  repo->dir().c_str());
    }

    // Stage-boundary cancellation: a service request's cancel frame
    // or expired deadline stops the pipeline between runs; each
    // individual run stays bounded by maxCycles and the watchdog.
    auto checkCancel = [this](const char *stage) {
        if (cfg.cancel.stopRequested())
            fatal("%s: %s before %s stage", load.name.c_str(),
                  *cfg.cancel.why() ? cfg.cancel.why() : "cancelled",
                  stage);
    };

    checkCancel("baseline");
    // Baselines (step 0): plain sequential runs.
    rep.seqMain = runSequential(load.mainArgs, false, nullptr);
    const bool same_input = load.profileArgs == load.mainArgs;

    if (rep.warmStart) {
        // Warm start: steps 2-3 (profile run + analysis) are served
        // from the repository; the profiling input never runs.
        inform("%s: warm start from crystal %016llx (%zu STLs)",
               load.name.c_str(),
               static_cast<unsigned long long>(rep.fingerprint),
               entry.selections.size());
        rep.seqProfileIn = rep.seqMain;
        rep.profilingSlowdown = entry.profilingSlowdown;
        rep.selections = entry.selections;
    } else {
        checkCancel("profiling");
        rep.seqProfileIn =
            same_input
                ? rep.seqMain
                : runSequential(load.profileArgs, false, nullptr);

        // Steps 1-2: compile annotated, run under TEST.
        TestProfiler prof(cfg.tracer);
        rep.profiled = runSequential(load.profileArgs, true, &prof);
        rep.profiles = prof.profiles();
        rep.profilingSlowdown =
            rep.seqProfileIn.cycles
                ? static_cast<double>(rep.profiled.cycles) /
                      static_cast<double>(rep.seqProfileIn.cycles)
                : 1.0;

        // Step 3: choose decompositions.
        Analyzer an(cfg.analyzer);
        rep.selections = filterDynamicNesting(
            an.select(theJit.loopInfos(), rep.profiles));
        prof.publishMetrics(MetricsRegistry::global());
    }

    // Predicted whole-program TLS time (for Fig. 8): replace each
    // selected loop's share of sequential time with its predicted
    // speculative time.  Warm runs normalize coverage by the cold
    // run's stored profiling cycles so the prediction matches the
    // cold pipeline's bit for bit.
    {
        const double prof_total =
            std::max<double>(1.0, static_cast<double>(
                rep.warmStart ? entry.profilingCycles
                              : rep.profiled.cycles));
        double frac_covered = 0, frac_tls = 0;
        for (const auto &sel : rep.selections) {
            const double f =
                sel.prediction.coverageCycles / prof_total;
            frac_covered += f;
            frac_tls += f / std::max(
                0.01, sel.prediction.predictedSpeedup);
        }
        frac_covered = std::min(frac_covered, 1.0);
        rep.predictedTlsCycles =
            static_cast<double>(rep.seqMain.cycles) *
            (1.0 - frac_covered + frac_tls);
    }

    // Steps 4-5: recompile and run speculatively.
    checkCancel("TLS");
    rep.tls = runTls(load.mainArgs, rep.selections);

    // Fig. 9 lifecycle accounting.
    const auto compile_cost = static_cast<std::uint64_t>(
        cfg.cyclesPerBytecodeCompile *
        static_cast<double>(theJit.bytecodeCount()));
    rep.phases.compile = compile_cost;
    // Fig. 9 warm columns: a warm start charges zero profiling
    // cycles — the decomposition came off disk.
    rep.phases.profiling = rep.warmStart ? 0 : rep.profiled.cycles;
    rep.phases.recompile =
        rep.selections.empty()
            ? 0
            : static_cast<std::uint64_t>(
                  cfg.recompileFraction *
                  static_cast<double>(compile_cost));
    rep.phases.gc = rep.tls.vm.gcCycles;
    rep.phases.application =
        rep.tls.cycles > rep.phases.gc
            ? rep.tls.cycles - rep.phases.gc
            : rep.tls.cycles;

    rep.actualSpeedup =
        rep.tls.cycles ? static_cast<double>(rep.seqMain.cycles) /
                             static_cast<double>(rep.tls.cycles)
                       : 1.0;
    const std::uint64_t total = rep.phases.total();
    rep.totalSpeedup =
        total ? static_cast<double>(rep.seqMain.cycles +
                                    compile_cost) /
                    static_cast<double>(total)
              : 1.0;

    rep.outputsMatch = rep.seqMain.halted && rep.tls.halted &&
                       !rep.seqMain.uncaught && !rep.tls.uncaught &&
                       rep.seqMain.exitValue == rep.tls.exitValue &&
                       rep.seqMain.vm.output == rep.tls.vm.output;

    // Differential oracle: the TLS run's final memory image must be
    // the sequential run's, bit for bit outside the VM scratch words.
    if (cfg.oracle.mode != OracleMode::Off) {
        JRPM_HPROF(OracleCheck);
        rep.oracle = Oracle::compare(
            cfg.oracle, RunDigest::of(rep.seqMain),
            RunDigest::of(rep.tls),
            VmRuntime::scratchRegions(cfg.vm, cfg.sys.numCpus));
        if (!rep.oracle.match()) {
            rep.outputsMatch = false;
            warn("%s: %s", load.name.c_str(),
                 rep.oracle.summary().c_str());
        }
    }

    rep.topViolations = rep.tls.stats.topViolationAddrs(10);

    // Crystal post-run bookkeeping: crystallize cold results, and
    // demote warm entries that failed to deliver.
    if (repo) {
        if (rep.warmStart) {
            // Demote a warm entry whose actual TLS speedup falls
            // below this fraction of a stored prediction that
            // promised a real speedup.
            constexpr double kDemoteRatio = 0.5;
            bool demote = false;
            if (!rep.outputsMatch || rep.tls.watchdogFired) {
                demote = true;
                warn("%s: warm run diverged or hung; demoting "
                     "crystal entry", load.name.c_str());
            } else if (entry.predictedSpeedup > 1.0 &&
                       rep.actualSpeedup <
                           kDemoteRatio *
                               entry.predictedSpeedup) {
                demote = true;
                warn("%s: actual TLS speedup %.2f far below stored "
                     "prediction %.2f; demoting crystal entry",
                     load.name.c_str(), rep.actualSpeedup,
                     entry.predictedSpeedup);
            }
            if (demote) {
                repo->invalidate(rep.fingerprint);
                rep.demoted = true;
                MetricsRegistry::global()
                    .counter("crystal.demotions")
                    .inc();
            }
        } else if (rep.outputsMatch && !rep.tls.watchdogFired &&
                   rep.tls.faultsInjected == 0) {
            CrystalEntry fresh;
            fresh.workload = load.name;
            fresh.programHash = progHash;
            fresh.argsHash = argsHash;
            fresh.configHash = confHash;
            fresh.predictedSpeedup =
                rep.predictedTlsCycles > 0
                    ? static_cast<double>(rep.seqMain.cycles) /
                          rep.predictedTlsCycles
                    : 1.0;
            fresh.profilingSlowdown = rep.profilingSlowdown;
            fresh.profilingCycles = rep.profiled.cycles;
            fresh.selections = rep.selections;
            repo->store(fresh);
        }
    }

    return rep;
}

} // namespace jrpm
