#include "metrics.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace vmargin::obs
{

namespace
{

/** The obs library sits below util (the thread pool is a client), so
 *  it carries its own minimal abort path instead of util::panic. */
[[noreturn]] void
obsPanic(const std::string &msg)
{
    std::fprintf(stderr, "panic: %s\n", msg.c_str());
    std::abort();
}

} // namespace

const SystemClock &
SystemClock::instance()
{
    static const SystemClock clock;
    return clock;
}

// ---- SpanStat ----------------------------------------------------

void
SpanStat::record(uint64_t duration_ns)
{
    count_.fetch_add(1, std::memory_order_relaxed);
    totalNs_.fetch_add(duration_ns, std::memory_order_relaxed);
    uint64_t cur = minNs_.load(std::memory_order_relaxed);
    while (duration_ns < cur &&
           !minNs_.compare_exchange_weak(cur, duration_ns,
                                         std::memory_order_relaxed))
        ;
    cur = maxNs_.load(std::memory_order_relaxed);
    while (duration_ns > cur &&
           !maxNs_.compare_exchange_weak(cur, duration_ns,
                                         std::memory_order_relaxed))
        ;
}

uint64_t
SpanStat::minNs() const
{
    const uint64_t v = minNs_.load(std::memory_order_relaxed);
    return v == UINT64_MAX ? 0 : v;
}

void
SpanStat::reset()
{
    count_.store(0, std::memory_order_relaxed);
    totalNs_.store(0, std::memory_order_relaxed);
    minNs_.store(UINT64_MAX, std::memory_order_relaxed);
    maxNs_.store(0, std::memory_order_relaxed);
}

// ---- Registry ----------------------------------------------------

Registry::Entry &
Registry::lookup(const std::string &name, Kind kind,
                 Stability stability)
{
    if (name.empty())
        obsPanic("obs: empty metric name");
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &entry : entries_) {
        if (entry->name != name)
            continue;
        if (entry->kind != kind)
            obsPanic("obs: metric '" + name +
                     "' re-registered as a different kind");
        return *entry;
    }
    auto entry = std::make_unique<Entry>();
    entry->name = name;
    entry->kind = kind;
    entry->stability = stability;
    switch (kind) {
    case Kind::Counter:
        entry->counter = std::make_unique<Counter>();
        break;
    case Kind::Gauge:
        entry->gauge = std::make_unique<Gauge>();
        break;
    case Kind::Span:
        entry->span = std::make_unique<SpanStat>();
        break;
    }
    entries_.push_back(std::move(entry));
    return *entries_.back();
}

Counter &
Registry::counter(const std::string &name, Stability stability)
{
    return *lookup(name, Kind::Counter, stability).counter;
}

Gauge &
Registry::gauge(const std::string &name)
{
    // Gauges describe instantaneous levels (queue depths, high-water
    // marks); those are scheduling-dependent by nature.
    return *lookup(name, Kind::Gauge, Stability::Sched)
                .gauge;
}

SpanStat &
Registry::span(const std::string &name)
{
    return *lookup(name, Kind::Span, Stability::Sched).span;
}

std::vector<std::string>
Registry::names() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const auto &entry : entries_)
        out.push_back(entry->name);
    return out;
}

namespace
{

/** Metric names contain only [A-Za-z0-9._-] by convention, but the
 *  emitter still escapes defensively so a stray name cannot corrupt
 *  the JSONL stream. */
void
appendJsonString(std::string &out, const std::string &text)
{
    out.push_back('"');
    for (const char c : text) {
        if (c == '"' || c == '\\') {
            out.push_back('\\');
            out.push_back(c);
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out.append(buf);
        } else {
            out.push_back(c);
        }
    }
    out.push_back('"');
}

} // namespace

std::string
Registry::countersJson() const
{
    std::vector<std::pair<std::string, uint64_t>> exact;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &entry : entries_)
            if (entry->kind == Kind::Counter &&
                entry->stability == Stability::Exact)
                exact.emplace_back(entry->name,
                                   entry->counter->value());
    }
    std::sort(exact.begin(), exact.end());

    std::string out = "{";
    for (size_t i = 0; i < exact.size(); ++i) {
        if (i)
            out.push_back(',');
        appendJsonString(out, exact[i].first);
        out.push_back(':');
        out += std::to_string(exact[i].second);
    }
    out.push_back('}');
    return out;
}

std::string
Registry::snapshotJson(uint64_t seq, const Clock &clock) const
{
    // Snapshot under one registration-lock hold so the sections are
    // mutually consistent as far as registration goes (values are
    // racy reads of live atomics — snapshots taken while workers run
    // are approximate; final drains are exact).
    std::vector<std::pair<std::string, uint64_t>> exact;
    std::vector<std::pair<std::string, int64_t>> sched;
    struct SpanRow
    {
        std::string name;
        uint64_t count, total, min, max;
    };
    std::vector<SpanRow> spans;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &entry : entries_) {
            switch (entry->kind) {
            case Kind::Counter:
                if (entry->stability == Stability::Exact)
                    exact.emplace_back(entry->name,
                                       entry->counter->value());
                else
                    sched.emplace_back(
                        entry->name,
                        static_cast<int64_t>(
                            entry->counter->value()));
                break;
            case Kind::Gauge:
                sched.emplace_back(entry->name,
                                   entry->gauge->value());
                break;
            case Kind::Span:
                spans.push_back({entry->name,
                                 entry->span->count(),
                                 entry->span->totalNs(),
                                 entry->span->minNs(),
                                 entry->span->maxNs()});
                break;
            }
        }
    }
    const auto byName = [](const auto &a, const auto &b) {
        return a.first < b.first;
    };
    std::sort(exact.begin(), exact.end(), byName);
    std::sort(sched.begin(), sched.end(), byName);
    std::sort(spans.begin(), spans.end(),
              [](const SpanRow &a, const SpanRow &b) {
                  return a.name < b.name;
              });

    std::string out =
        "{\"schema\":\"vmargin-telemetry-v1\",\"seq\":" +
        std::to_string(seq) +
        ",\"wall_ms\":" + std::to_string(clock.wallMillis());

    out += ",\"counters\":{";
    for (size_t i = 0; i < exact.size(); ++i) {
        if (i)
            out.push_back(',');
        appendJsonString(out, exact[i].first);
        out.push_back(':');
        out += std::to_string(exact[i].second);
    }
    out += "},\"scheduling\":{";
    for (size_t i = 0; i < sched.size(); ++i) {
        if (i)
            out.push_back(',');
        appendJsonString(out, sched[i].first);
        out.push_back(':');
        out += std::to_string(sched[i].second);
    }
    out += "},\"spans\":{";
    for (size_t i = 0; i < spans.size(); ++i) {
        if (i)
            out.push_back(',');
        appendJsonString(out, spans[i].name);
        out += ":{\"count\":" + std::to_string(spans[i].count) +
               ",\"total_ns\":" + std::to_string(spans[i].total) +
               ",\"min_ns\":" + std::to_string(spans[i].min) +
               ",\"max_ns\":" + std::to_string(spans[i].max) + "}";
    }
    out += "}}";
    return out;
}

void
Registry::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &entry : entries_) {
        switch (entry->kind) {
        case Kind::Counter:
            entry->counter->reset();
            break;
        case Kind::Gauge:
            entry->gauge->reset();
            break;
        case Kind::Span:
            entry->span->reset();
            break;
        }
    }
}

Registry &
Registry::global()
{
    static Registry registry;
    return registry;
}

} // namespace vmargin::obs
