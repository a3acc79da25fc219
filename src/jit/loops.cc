#include "loops.hh"

#include <algorithm>

#include "common/logging.hh"

namespace jrpm
{

std::vector<std::int32_t>
bcSuccessors(const BcMethod &m, std::int32_t at)
{
    std::vector<std::int32_t> out;
    const BcInst &inst = m.code[at];
    const auto n = static_cast<std::int32_t>(m.code.size());
    if (bcIsBranch(inst.op))
        out.push_back(inst.imm);
    if (!bcIsTerminator(inst.op) && at + 1 < n)
        out.push_back(at + 1);
    return out;
}

std::int32_t
LoopNest::innermostAt(std::int32_t bc) const
{
    std::int32_t best = -1;
    std::uint32_t best_depth = 0;
    for (const auto &l : loops) {
        if (l.body.count(bc) && l.depth >= best_depth) {
            best = l.loopId;
            best_depth = l.depth;
        }
    }
    return best;
}

const JitLoop &
LoopNest::byId(std::int32_t loop_id) const
{
    if (const JitLoop *l = tryById(loop_id))
        return *l;
    panic("unknown loop id %d", loop_id);
}

const JitLoop *
LoopNest::tryById(std::int32_t loop_id) const
{
    for (const auto &l : loops)
        if (l.loopId == loop_id)
            return &l;
    return nullptr;
}

LoopNest
findLoops(const BcMethod &m, std::int32_t first_loop_id)
{
    const auto n = static_cast<std::int32_t>(m.code.size());
    LoopNest nest;
    if (n == 0)
        return nest;

    // Reachability from entry (instruction-granularity CFG).
    std::vector<bool> reachable(n, false);
    {
        std::vector<std::int32_t> work{0};
        reachable[0] = true;
        for (const auto &c : m.catches) {
            if (!reachable[c.handler]) {
                reachable[c.handler] = true;
                work.push_back(c.handler);
            }
        }
        while (!work.empty()) {
            std::int32_t at = work.back();
            work.pop_back();
            for (std::int32_t s : bcSuccessors(m, at)) {
                if (s < n && !reachable[s]) {
                    reachable[s] = true;
                    work.push_back(s);
                }
            }
        }
    }

    // Predecessors.
    std::vector<std::vector<std::int32_t>> preds(n);
    for (std::int32_t i = 0; i < n; ++i) {
        if (!reachable[i])
            continue;
        for (std::int32_t s : bcSuccessors(m, i))
            if (s < n)
                preds[s].push_back(i);
    }

    // Iterative dominators (methods are small; O(n^2) is fine).
    constexpr std::int32_t kUndef = -1;
    std::vector<std::int32_t> idom(n, kUndef);
    idom[0] = 0;
    // Catch handlers hang off the entry for domination purposes.
    auto intersect = [&](std::int32_t a, std::int32_t b) {
        while (a != b) {
            while (a > b)
                a = idom[a];
            while (b > a)
                b = idom[b];
        }
        return a;
    };
    bool changed = true;
    while (changed) {
        changed = false;
        for (std::int32_t i = 1; i < n; ++i) {
            if (!reachable[i])
                continue;
            std::int32_t nidom = kUndef;
            for (std::int32_t p : preds[i]) {
                if (idom[p] == kUndef)
                    continue;
                nidom = nidom == kUndef ? p : intersect(nidom, p);
            }
            if (nidom == kUndef) {
                // Only reachable through a catch edge: dominated by
                // the entry.
                nidom = 0;
            }
            if (idom[i] != nidom) {
                idom[i] = nidom;
                changed = true;
            }
        }
    }

    auto dominates = [&](std::int32_t a, std::int32_t b) {
        while (true) {
            if (a == b)
                return true;
            if (b == 0)
                return false;
            std::int32_t next = idom[b];
            if (next == b || next == kUndef)
                return false;
            b = next;
        }
    };

    // Back edges and natural loops; merge loops sharing a header.
    std::vector<JitLoop> loops;
    for (std::int32_t i = 0; i < n; ++i) {
        if (!reachable[i])
            continue;
        for (std::int32_t h : bcSuccessors(m, i)) {
            if (h >= n || !dominates(h, i))
                continue;
            // Natural loop of back edge i -> h.
            std::set<std::int32_t> body{h};
            std::vector<std::int32_t> work;
            if (i != h) {
                body.insert(i);
                work.push_back(i);
            }
            while (!work.empty()) {
                std::int32_t at = work.back();
                work.pop_back();
                for (std::int32_t p : preds[at])
                    if (body.insert(p).second)
                        work.push_back(p);
            }
            JitLoop *existing = nullptr;
            for (auto &l : loops)
                if (l.header == h)
                    existing = &l;
            if (existing) {
                existing->body.insert(body.begin(), body.end());
                existing->latches.push_back(i);
            } else {
                JitLoop l;
                l.header = h;
                l.body = std::move(body);
                l.latches.push_back(i);
                loops.push_back(std::move(l));
            }
        }
    }

    // Sort outermost-first (larger bodies first), assign ids and
    // parents.
    std::sort(loops.begin(), loops.end(),
              [](const JitLoop &a, const JitLoop &b) {
                  if (a.body.size() != b.body.size())
                      return a.body.size() > b.body.size();
                  return a.header < b.header;
              });
    for (std::size_t i = 0; i < loops.size(); ++i)
        loops[i].loopId = first_loop_id +
                          static_cast<std::int32_t>(i);
    for (std::size_t i = 0; i < loops.size(); ++i) {
        for (std::size_t j = 0; j < i; ++j) {
            // The closest enclosing loop is the smallest superset.
            const bool contains = std::includes(
                loops[j].body.begin(), loops[j].body.end(),
                loops[i].body.begin(), loops[i].body.end()) &&
                loops[j].body.size() > loops[i].body.size();
            if (contains) {
                loops[i].parent = loops[j].loopId;
                loops[i].depth = loops[j].depth + 1;
            }
        }
    }

    nest.loops = std::move(loops);
    return nest;
}

} // namespace jrpm
