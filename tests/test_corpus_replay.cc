/**
 * @file
 * Regression-corpus test tier: every checked-in corpus entry under
 * tests/corpus/ must load, render to its recorded program hash,
 * reproduce its recorded sequential exit checksum, and replay
 * cleanly through the full pipeline plus a forced per-loop
 * speculation sweep under the strict differential oracle, in BOTH
 * dispatch tiers; the exact tier's sequential and speculative
 * outcomes must also match the fast tier's under outcomeDiff().
 *
 * Distilled corpora land in the same directory and format, so every
 * scenario the coverage-guided forge promotes to a regression case
 * is covered here automatically; no per-entry test code is needed.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/hash.hh"
#include "core/jrpm.hh"
#include "forge/campaign.hh"
#include "forge/corpus.hh"
#include "forge/forge.hh"

namespace jrpm
{
namespace
{

using forge::CorpusEntry;

JrpmConfig
replayConfig(Dispatch dispatch)
{
    JrpmConfig cfg = forge::caseConfig();
    cfg.sys.dispatch = dispatch;
    return cfg;
}

class CorpusReplay : public ::testing::TestWithParam<Dispatch>
{
};

TEST_P(CorpusReplay, EveryEntryReplaysCleanly)
{
    const Dispatch dispatch = GetParam();
    const std::vector<std::string> files =
        forge::listCorpus(JRPM_FORGE_CORPUS_DIR);
    ASSERT_GE(files.size(), 10u)
        << "checked-in corpus missing at " JRPM_FORGE_CORPUS_DIR;
    const JrpmConfig cfg = replayConfig(dispatch);
    for (const std::string &path : files) {
        CorpusEntry e;
        std::string err;
        ASSERT_TRUE(forge::readCorpusEntry(path, e, &err))
            << path << ": " << err;
        EXPECT_EQ(hashProgram(forge::render(e.spec)), e.programHash)
            << path << ": grammar drift against checked-in corpus";

        const Workload w = forge::scenarioWorkload(e.spec);
        JrpmSystem sys(w, cfg);
        const RunOutcome seq =
            sys.runSequential(w.mainArgs, false, nullptr);
        ASSERT_TRUE(seq.halted) << path;
        if (e.haveExit) {
            EXPECT_EQ(seq.exitValue, e.expectedExit) << path;
        }

        JrpmReport rep;
        const forge::CaseResult cr =
            forge::runCase(e.spec, cfg, /*forced_sweep=*/true, &rep);
        EXPECT_TRUE(cr.ok) << path << ": " << cr.error;
        EXPECT_FALSE(cr.failing(/*faults_active=*/false))
            << path << ": " << cr.detail;

        if (dispatch == Dispatch::Exact) {
            EXPECT_EQ(rep.tls.stats.burstSpans.count, 0u)
                << path << ": the exact tier opened a fast-path window";
            JrpmReport fast;
            forge::runCase(e.spec, replayConfig(Dispatch::Fast),
                           /*forced_sweep=*/false, &fast);
            EXPECT_EQ(outcomeDiff(fast.seqMain, rep.seqMain), "")
                << path;
            EXPECT_EQ(outcomeDiff(fast.tls, rep.tls), "") << path;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Tier, CorpusReplay,
    ::testing::Values(Dispatch::Fast, Dispatch::Exact),
    [](const ::testing::TestParamInfo<Dispatch> &i) {
        return i.param == Dispatch::Fast ? "Fast" : "Exact";
    });

} // namespace
} // namespace jrpm
