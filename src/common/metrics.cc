#include "metrics.hh"

#include "common/json.hh"
#include "common/logging.hh"

namespace jrpm
{

namespace
{

const char *
kindName(int k)
{
    switch (k) {
      case 0: return "counter";
      case 1: return "gauge";
      case 2: return "histogram";
    }
    return "?";
}

} // namespace

MetricsRegistry::Entry &
MetricsRegistry::fetch(const std::string &name, Kind kind)
{
    std::lock_guard<std::mutex> lock(mu);
    auto [it, inserted] = entries.try_emplace(name);
    if (inserted)
        it->second.kind = kind;
    else if (it->second.kind != kind)
        panic("metric '%s' registered as %s and %s", name.c_str(),
              kindName(static_cast<int>(it->second.kind)),
              kindName(static_cast<int>(kind)));
    return it->second;
}

Counter &
MetricsRegistry::counter(const std::string &name)
{
    return fetch(name, Kind::Counter).c;
}

Gauge &
MetricsRegistry::gauge(const std::string &name)
{
    return fetch(name, Kind::Gauge).g;
}

HistogramMetric &
MetricsRegistry::histogram(const std::string &name)
{
    return fetch(name, Kind::Histogram).h;
}

void
MetricsRegistry::reset()
{
    std::lock_guard<std::mutex> lock(mu);
    for (auto &[name, e] : entries) {
        e.c.reset();
        e.g.reset();
        e.h.reset();
    }
}

std::string
MetricsRegistry::dumpText() const
{
    std::lock_guard<std::mutex> lock(mu);
    std::string out;
    for (const auto &[name, e] : entries) {
        switch (e.kind) {
          case Kind::Counter:
            out += strfmt("%-44s %llu\n", name.c_str(),
                          static_cast<unsigned long long>(
                              e.c.value()));
            break;
          case Kind::Gauge:
            out += strfmt("%-44s %.6g\n", name.c_str(), e.g.value());
            break;
          case Kind::Histogram: {
            const SampleStat &s = e.h.summary();
            out += strfmt("%-44s count=%llu mean=%.6g stddev=%.6g "
                          "min=%.6g max=%.6g\n",
                          name.c_str(),
                          static_cast<unsigned long long>(s.count()),
                          s.mean(), s.stddev(), s.min(), s.max());
            break;
          }
        }
    }
    return out;
}

std::string
MetricsRegistry::dumpJson() const
{
    std::lock_guard<std::mutex> lock(mu);
    JsonWriter w;
    w.beginObject(JsonWriter::Layout::Lines);
    for (const auto &[name, e] : entries) {
        w.key(name).beginObject();
        switch (e.kind) {
          case Kind::Counter:
            w.field("kind", "counter").field("value", e.c.value());
            break;
          case Kind::Gauge:
            w.field("kind", "gauge").field("value", e.g.value(), 9);
            break;
          case Kind::Histogram: {
            const SampleStat &s = e.h.summary();
            w.field("kind", "histogram").field("count", s.count());
            w.field("mean", s.mean(), 9).field("stddev", s.stddev(), 9);
            w.field("min", s.min(), 9).field("max", s.max(), 9);
            break;
          }
        }
        w.endObject();
    }
    return w.endObject().take() + '\n';
}

bool
MetricsRegistry::writeFile(const std::string &path) const
{
    const bool json = path.size() >= 5 &&
                      path.compare(path.size() - 5, 5, ".json") == 0;
    return writeTextFile(path, json ? dumpJson() : dumpText(), "metrics");
}

} // namespace jrpm
