#include "edac.hh"

#include <charconv>

#include "util/logging.hh"

namespace vmargin::sim
{

std::string_view
errorSiteName(ErrorSite site)
{
    for (const auto &[named, name] : kSiteNames)
        if (named == site)
            return name;
    util::panicf("errorSiteName: invalid site ", static_cast<int>(site));
}

std::optional<ErrorSite>
siteFromName(std::string_view name)
{
    for (const auto &[site, spelled] : kSiteNames)
        if (spelled == name)
            return site;
    return std::nullopt;
}

bool
SiteCounts::addNamed(std::string_view name, uint64_t count)
{
    const auto site = siteFromName(name);
    if (!site || count == 0 || (*this)[*site] != 0)
        return false;
    (*this)[*site] = count;
    return true;
}

void
appendSiteCounts(std::string &out, const SiteCounts &sites)
{
    bool first = true;
    for (const auto &[site, name] : kSiteNames) {
        if (!sites[site])
            continue;
        if (!std::exchange(first, false))
            out += ';';
        out.append(name).append(1, ':');
        char digits[24];
        out.append(digits,
                   std::to_chars(digits, digits + sizeof(digits),
                                 sites[site])
                       .ptr);
    }
}

std::optional<SiteCounts>
decodeSiteCounts(std::string_view text)
{
    SiteCounts sites;
    if (text.empty())
        return sites;
    for (;;) {
        const size_t semicolon = text.find(';');
        const std::string_view entry = text.substr(0, semicolon);
        const auto colon = entry.find(':');
        if (colon == std::string_view::npos)
            return std::nullopt;
        const char *last = entry.data() + entry.size();
        uint64_t count = 0;
        const auto [end, ec] =
            std::from_chars(entry.data() + colon + 1, last, count);
        if (ec != std::errc{} || end != last ||
            !sites.addNamed(entry.substr(0, colon), count))
            return std::nullopt;
        if (semicolon == std::string_view::npos)
            return sites;
        text.remove_prefix(semicolon + 1);
    }
}

std::string
errorKindName(ErrorKind kind)
{
    switch (kind) {
      case ErrorKind::Corrected:
        return "CE";
      case ErrorKind::Uncorrected:
        return "UE";
    }
    util::panicf("errorKindName: invalid kind ",
                 static_cast<int>(kind));
}

void
EdacLog::report(const ErrorRecord &record)
{
    records_.push_back(record);
}

uint64_t
EdacLog::correctedCount() const
{
    uint64_t total = 0;
    for (const auto &r : records_)
        if (r.kind == ErrorKind::Corrected)
            total += r.count;
    return total;
}

uint64_t
EdacLog::uncorrectedCount() const
{
    uint64_t total = 0;
    for (const auto &r : records_)
        if (r.kind == ErrorKind::Uncorrected)
            total += r.count;
    return total;
}

} // namespace vmargin::sim
