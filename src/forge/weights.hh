/**
 * @file
 * Adaptive generator weights — the feedback half of the
 * coverage-guided forge.
 *
 * A WeightBank holds one integer weight per grammar production
 * (StmtKind).  A guided campaign runs in batches: every scenario in
 * batch k is derived with generateWeighted() under the bank state
 * entering the batch, then the bank is updated once, in seed order,
 * from the batch's behaviour signatures — productions that appeared
 * in at least one case with a *novel* signature are boosted,
 * productions that appeared only in already-seen behaviour decay,
 * productions that did not appear are left alone.  Weights are
 * floored (kMin) so no production ever starves — the grammar keeps
 * exploring — and capped (kMax) so one lucky production cannot
 * monopolize the draw.
 *
 * Everything is integer arithmetic in a fixed order, so a guided
 * campaign with a fixed seed is exactly replayable: the same seed
 * yields the same batches, signatures, updates and final bank on any
 * worker count (the update happens at batch barriers, never
 * concurrently).  The bank travels as JSON, an array of the
 * kNumStmtKinds weights in StmtKind order: json() writes it, and the
 * fleet hands it to workers (`--weights=`) and journals it in its
 * manifest, so a resumed campaign re-enters the same trajectory.
 *
 * generateWeighted() preserves the frozen Rng stream contract
 * (common/random.hh): exactly one draw selects the statement kind
 * (by cumulative weight walk instead of uniform index) and exactly
 * four draws parameterize it — the same stream shape as generate(),
 * whose golden pins stay untouched.
 */

#ifndef JRPM_FORGE_WEIGHTS_HH
#define JRPM_FORGE_WEIGHTS_HH

#include <array>
#include <cstdint>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "forge/forge.hh"

namespace jrpm
{

class JsonMembers;

namespace forge
{

class WeightBank
{
  public:
    /** Baseline weight of every production. */
    static constexpr std::uint32_t kUnit = 1024;
    /** Floor: no production is ever starved out of the draw. */
    static constexpr std::uint32_t kMin = kUnit / 4;
    /** Cap: no production monopolizes the draw. */
    static constexpr std::uint32_t kMax = kUnit * 8;
    /** Additive boost for productions that found novelty. */
    static constexpr std::uint32_t kBoost = kUnit / 4;

    WeightBank() { weights.fill(kUnit); }

    std::uint32_t
    weight(StmtKind kind) const
    {
        return weights[static_cast<std::uint32_t>(kind)];
    }

    void
    setWeight(StmtKind kind, std::uint32_t w)
    {
        weights[static_cast<std::uint32_t>(kind)] = w;
    }

    /**
     * One batch-boundary update.  @p novel_kinds / @p seen_kinds are
     * bitmasks over StmtKind (bit k = kind k): kinds that appeared
     * in a novel-signature case get `w + kBoost` (capped), kinds
     * that appeared but produced nothing new decay by 1/8th
     * (floored), kinds absent from the batch are untouched.
     */
    void update(std::uint32_t novel_kinds, std::uint32_t seen_kinds);

    /** The bank as JSON: `[w0,w1,...]`, one weight per StmtKind. */
    std::string json() const;
    /** Member @p key of @p m as a bank: an array of exactly
     *  kNumStmtKinds integers in [1, kMax], else an error in @p m. */
    static WeightBank read(JsonMembers &m, const char *key);
    /** Parse json()'s output.  @return false (and *err) on anything
     *  read() rejects; @p out is untouched then. */
    static bool fromJson(const std::string &text, WeightBank &out,
                         std::string *err = nullptr);

    /** Stable FNV-1a identity of the bank state. */
    std::uint64_t hash() const;

    bool
    operator==(const WeightBank &o) const
    {
        return weights == o.weights;
    }

  private:
    std::array<std::uint32_t, kNumStmtKinds> weights;
};

/**
 * The guided grammar entry point: generate() with the kind draw
 * weighted by @p bank.  Same Rng stream shape as generate() — one
 * draw for the kind, four for the parameters — but a different
 * mapping of the kind draw, so guided and unguided scenarios for the
 * same seed legitimately differ.
 */
ScenarioSpec generateWeighted(std::uint64_t seed,
                              std::uint32_t axes_mask,
                              const WeightBank &bank);

/** StmtKind bitmask of a scenario's body (bit k = kind k used). */
std::uint32_t kindsOf(const ScenarioSpec &spec);

/** One batch's (kinds bitmask, signature hash) observations, one per
 *  case that ran, in seed order. */
using BatchObservations =
    std::vector<std::pair<std::uint32_t, std::uint64_t>>;

/**
 * Fold one batch of observations into @p bank: walk @p obs in
 * order, inserting each hash into @p seen; kinds of cases whose hash
 * was new accumulate as novel, all appearing kinds as seen; then
 * apply exactly one update().
 * This is THE batch-boundary step of runCampaign()'s guided loop,
 * whichever executor runs the batches (thread pool or fleet), so
 * both follow the same deterministic weight trajectory.
 */
void applyBatch(WeightBank &bank, std::unordered_set<std::uint64_t> &seen,
                const BatchObservations &obs);

} // namespace forge
} // namespace jrpm

#endif // JRPM_FORGE_WEIGHTS_HH
