/**
 * @file
 * Regression-corpus test tier: every checked-in corpus entry under
 * tests/corpus/ must load, render to its recorded program hash,
 * reproduce its recorded sequential exit checksum, and replay
 * cleanly through the full pipeline plus a forced per-loop
 * speculation sweep under the strict differential oracle — with the
 * speculative memory fast path BOTH forced on and forced off.
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
replayConfig(bool fast_path)
{
    JrpmConfig cfg;
    cfg.oracle.mode = OracleMode::Strict;
    cfg.sys.memBytes = 8u << 20;
    cfg.vm.heapBytes = 4u << 20;
    cfg.sys.specMemFastPath = fast_path;
    return cfg;
}

class CorpusReplay : public ::testing::TestWithParam<bool>
{
};

TEST_P(CorpusReplay, EveryEntryReplaysCleanly)
{
    const bool fastPath = GetParam();
    const std::vector<std::string> files =
        forge::listCorpus(JRPM_FORGE_CORPUS_DIR);
    ASSERT_GE(files.size(), 10u)
        << "checked-in corpus missing at " JRPM_FORGE_CORPUS_DIR;
    const JrpmConfig cfg = replayConfig(fastPath);
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

        const forge::CaseResult cr =
            forge::runCase(e.spec, cfg, /*forced_sweep=*/true);
        EXPECT_TRUE(cr.ok) << path << ": " << cr.error;
        EXPECT_FALSE(cr.failing(/*faults_active=*/false))
            << path << ": " << cr.detail;
    }
}

INSTANTIATE_TEST_SUITE_P(FastPathOnOff, CorpusReplay,
                         ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool> &i) {
                             return i.param ? "FastPathOn"
                                            : "FastPathOff";
                         });

} // namespace
} // namespace jrpm
