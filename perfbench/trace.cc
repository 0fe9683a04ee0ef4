#include <fstream>
#include <iostream>
#include <map>

#include "bench.hh"
#include "util/logging.hh"

namespace vmbench
{

namespace util = vmargin::util;

Trace::Trace() : epoch_(Clock::now()) { spans_.reserve(1 << 16); }

uint64_t
Trace::nowNs() const
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - epoch_)
            .count());
}

size_t
Trace::open(const char *name)
{
    Span span;
    span.name = name;
    span.parent = stack_.empty() ? -1
                                 : static_cast<int64_t>(stack_.back());
    span.startNs = nowNs();
    spans_.push_back(span);
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
}

void
Trace::close(size_t index)
{
    if (stack_.empty() || stack_.back() != index)
        util::panicf("vmbench: trace spans closed out of order");
    stack_.pop_back();
    Span &span = spans_[index];
    span.endNs = nowNs();
    if (span.parent >= 0)
        spans_[static_cast<size_t>(span.parent)].childNs +=
            span.endNs - span.startNs;
}

Trace::Scope::Scope(Trace &trace, const char *name)
    : trace_(trace), index_(trace.open(name))
{
}

Trace::Scope::~Scope() { trace_.close(index_); }

void
Trace::addChild(const char *name, uint64_t duration_ns)
{
    if (stack_.empty())
        util::panicf("vmbench: trace child outside any span");
    Span &parent = spans_[stack_.back()];
    Span span;
    span.name = name;
    span.parent = static_cast<int64_t>(stack_.back());
    span.endNs = nowNs();
    span.startNs = span.endNs - duration_ns;
    parent.childNs += duration_ns;
    spans_.push_back(span);
}

double
Trace::selfSeconds(const std::string &name) const
{
    uint64_t ns = 0;
    for (const Span &span : spans_)
        if (name == span.name)
            ns += span.endNs - span.startNs - span.childNs;
    return static_cast<double>(ns) * 1e-9;
}

double
Trace::totalSeconds(const std::string &name) const
{
    uint64_t ns = 0;
    for (const Span &span : spans_)
        if (name == span.name)
            ns += span.endNs - span.startNs;
    return static_cast<double>(ns) * 1e-9;
}

double
Trace::rootSeconds() const
{
    uint64_t ns = 0;
    for (const Span &span : spans_)
        if (span.parent < 0)
            ns += span.endNs - span.startNs;
    return static_cast<double>(ns) * 1e-9;
}

double
Trace::coverage() const
{
    uint64_t wall = 0;
    uint64_t uncovered = 0;
    for (const Span &span : spans_)
        if (span.parent < 0) {
            wall += span.endNs - span.startNs;
            uncovered += span.endNs - span.startNs - span.childNs;
        }
    return wall ? 1.0 - static_cast<double>(uncovered) /
                            static_cast<double>(wall)
                : 0.0;
}

void
Trace::writeJsonl(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        util::fatalError("vmbench: cannot write trace to '" + path +
                         "'");
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        out << "{\"id\":" << i << ",\"parent\":" << span.parent
            << ",\"name\":\"" << span.name
            << "\",\"start_ns\":" << span.startNs
            << ",\"end_ns\":" << span.endNs << "}\n";
    }
}

void
Trace::printShares() const
{
    std::map<std::string, uint64_t> self;
    for (const Span &span : spans_)
        if (span.parent >= 0)
            self[span.name] += span.endNs - span.startNs - span.childNs;
    const double wall = rootSeconds();
    std::cerr << "vmbench: share of traced wall (" << wall << " s):";
    for (const auto &[name, ns] : self)
        std::cerr << ' ' << name << '='
                  << static_cast<double>(ns) * 1e-9 / wall;
    std::cerr << " untraced=" << 1.0 - coverage() << '\n';
}

} // namespace vmbench
