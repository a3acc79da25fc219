/**
 * @file
 * The service's warm cache: the shared crystal repository plus the
 * admission and eviction policy the multi-tenant server applies to
 * it.
 *
 * Repeat submissions of the same program + config fingerprint skip
 * profiling and analysis entirely (PR 3's warm start); the service
 * keeps the repository bounded so millions of distinct tenants
 * cannot grow it without limit:
 *
 *  - eviction: entry count capped at `capacity`, LRU by file mtime
 *    (a lookup hit refreshes the mtime) — CrystalRepo::setCapacity;
 *  - admission: entries predicted to speed up by less than
 *    `admitMinPredicted` are not crystallized at all when a cap is
 *    set (they would evict entries that actually pay for the warm
 *    start);
 *  - observability: hit/miss/store/eviction counters publish live as
 *    `crystal.*` metrics and are snapshotted into the stats frame.
 */

#ifndef JRPM_SERVICE_CACHE_HH
#define JRPM_SERVICE_CACHE_HH

#include <cstddef>
#include <memory>
#include <string>

#include "common/json.hh"
#include "core/jrpm.hh"
#include "crystal/crystal.hh"

namespace jrpm
{
namespace svc
{

/** Warm-cache policy knobs. */
struct CacheConfig
{
    /** Repository directory; empty disables the cache. */
    std::string dir;
    /** Max entries on disk (0 = unbounded). */
    std::size_t capacity = 256;
    /** Admission bound on the predicted whole-program speedup;
     *  applied only when a capacity is set. */
    double admitMinPredicted = 0.0;
    /** Warm policy for submissions that don't choose one. */
    WarmMode warm = WarmMode::Auto;
};

/** The configured warm cache (see file header). */
class WarmCache
{
  public:
    explicit WarmCache(CacheConfig cfg);

    bool enabled() const { return repoOwned != nullptr; }
    CrystalRepo *repo() { return repoOwned.get(); }

    /** Wire this cache into one submission's pipeline config.
     *  @param warm_override "cold"|"warm"|"auto" from the request,
     *         or empty for the cache default */
    void applyTo(JrpmConfig &jc,
                 const std::string &warm_override) const;

    /** Counters + policy as a JSON object value for the stats
     *  frame. */
    void statsJson(JsonWriter &w) const;

    const CacheConfig &config() const { return cfg; }

  private:
    CacheConfig cfg;
    std::unique_ptr<CrystalRepo> repoOwned;
};

} // namespace svc
} // namespace jrpm

#endif // JRPM_SERVICE_CACHE_HH
