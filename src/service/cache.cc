#include "cache.hh"

#include "common/json.hh"

namespace jrpm
{
namespace svc
{

WarmCache::WarmCache(CacheConfig config) : cfg(std::move(config))
{
    if (cfg.dir.empty())
        return;
    repoOwned = std::make_unique<CrystalRepo>(cfg.dir);
    repoOwned->setCapacity(cfg.capacity);
}

void
WarmCache::applyTo(JrpmConfig &jc,
                   const std::string &warm_override) const
{
    if (!repoOwned)
        return;
    jc.crystal.repo = repoOwned.get();
    jc.crystal.warm =
        warm_override.empty() ? cfg.warm
                              : parseWarmMode(warm_override);
    if (cfg.capacity > 0)
        jc.crystal.admitMinPredicted = cfg.admitMinPredicted;
}

void
WarmCache::statsJson(JsonWriter &w) const
{
    w.beginObject().field("enabled", enabled());
    if (repoOwned) {
        const CrystalStats s = repoOwned->stats();
        const std::uint64_t lookups = s.hits + s.misses;
        w.field("capacity", cfg.capacity);
        w.field("entries", repoOwned->size());
        w.field("hits", s.hits).field("misses", s.misses);
        w.key("hitRate").fixed(lookups ? static_cast<double>(s.hits) /
                                             static_cast<double>(lookups)
                                       : 0.0,
                               4);
        w.field("stores", s.stores);
        w.field("invalidations", s.invalidations);
        w.field("rejects", s.rejects).field("evictions", s.evictions);
    }
    w.endObject();
}

} // namespace svc
} // namespace jrpm
