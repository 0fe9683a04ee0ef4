#include "cache.hh"

#include <algorithm>

#include "util/logging.hh"

namespace vmargin::sim
{

using util::panicf;

namespace
{

int
log2OfPow2(int value)
{
    int shift = 0;
    while ((1 << shift) < value)
        ++shift;
    return shift;
}

} // namespace

Cache::Cache(std::string name, int size_kb, int assoc, int line_bytes,
             Protection protection)
    : name_(std::move(name)), sizeKb_(size_kb), assoc_(assoc),
      lineBytes_(line_bytes), protection_(protection)
{
    if (size_kb <= 0 || assoc <= 0 || line_bytes <= 0)
        panicf("Cache ", name_, ": non-positive geometry");
    if (assoc > kMaxAssoc)
        util::fatalError(util::concat(
            "Cache ", name_, ": associativity ", assoc,
            " exceeds the ", kMaxAssoc,
            " ways a set's fill count can hold"));
    if (line_bytes & (line_bytes - 1))
        panicf("Cache ", name_, ": line size must be a power of two");
    const auto total_lines =
        static_cast<size_t>(size_kb) * 1024 /
        static_cast<size_t>(line_bytes);
    if (total_lines % static_cast<size_t>(assoc) != 0)
        panicf("Cache ", name_, ": ", total_lines,
               " lines not divisible by associativity ", assoc);
    sets_ = total_lines / static_cast<size_t>(assoc);
    if (sets_ == 0 || (sets_ & (sets_ - 1)))
        panicf("Cache ", name_, ": set count ", sets_,
               " must be a non-zero power of two");
    lineShift_ = log2OfPow2(line_bytes);
    const size_t lines = sets_ * static_cast<size_t>(assoc_);
    // Only the fill counts need a defined initial value (every set
    // starts empty); the tag and timestamp arrays are deliberately
    // left uninitialized, since a way past its set's fill count is
    // never read before it is filled. That keeps hierarchy
    // construction cheap: platforms are built per worker and per
    // cell, and zero-filling the 8 MB L3's arrays once dominated
    // that cost.
    keys_.reset(new uint64_t[lines]);
    lastUse_.reset(new uint64_t[lines]);
    fill_.reset(new uint8_t[sets_]());
}

bool
Cache::contains(uint64_t addr) const
{
    const size_t set = setIndex(addr);
    const uint64_t *keys =
        keys_.get() + set * static_cast<size_t>(assoc_);
    const uint64_t *end = keys + fill_[set];
    return std::find(keys, end, tagOf(addr)) != end;
}

void
Cache::invalidateAll()
{
    // Every set becomes empty; the stale tags and timestamps past
    // the (now zero) fill counts are never read again before their
    // ways are refilled.
    std::fill(fill_.get(), fill_.get() + sets_, uint8_t{0});
}

size_t
Cache::validLines() const
{
    size_t count = 0;
    for (size_t set = 0; set < sets_; ++set)
        count += fill_[set];
    return count;
}

} // namespace vmargin::sim
