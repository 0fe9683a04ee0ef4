/**
 * @file
 * EDAC-style error reporting (the role of the Linux EDAC driver in
 * the paper's framework, [12]). Hardware error events detected by
 * the protection logic are logged with their kind, location and the
 * core whose access exposed them; the characterization framework's
 * parsing phase reads this log to classify runs as CE/UE.
 */

#ifndef VMARGIN_SIM_EDAC_HH
#define VMARGIN_SIM_EDAC_HH

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/types.hh"

namespace vmargin::sim
{

/** Error severity as EDAC reports it. */
enum class ErrorKind
{
    Corrected,  ///< single-bit, fixed by SECDED or refetch
    Uncorrected ///< detected but not correctable
};

/** Where the error was detected. */
enum class ErrorSite
{
    L1Cache,
    L2Cache,
    L3Cache,
    Dram
};

/** Number of ErrorSite values. */
inline constexpr size_t kErrorSites = 4;

/** The one site-name table, in name order: the order every text
 *  form of a site list (run log, report CSV, ledger payload) uses. */
inline constexpr std::array<std::pair<ErrorSite, std::string_view>,
                            kErrorSites>
    kSiteNames = {{{ErrorSite::Dram, "DRAM"},
                   {ErrorSite::L1Cache, "L1Cache"},
                   {ErrorSite::L2Cache, "L2Cache"},
                   {ErrorSite::L3Cache, "L3Cache"}}};
static_assert(std::is_sorted(
    kSiteNames.begin(), kSiteNames.end(),
    [](const auto &a, const auto &b) { return a.second < b.second; }));

/** Printable site name, from kSiteNames. */
std::string_view errorSiteName(ErrorSite site);

/** The site @p name spells; nullopt for a name not in kSiteNames. */
std::optional<ErrorSite> siteFromName(std::string_view name);

/**
 * Event counts per detection site: the location detail of the
 * paper's extended parser (section 2.2), one typed record from the
 * classifier through the ledger, the report and the breakdown.
 */
struct SiteCounts
{
    std::array<uint64_t, kErrorSites> bySite{};

    uint64_t &
    operator[](ErrorSite site) { return bySite[static_cast<size_t>(site)]; }

    uint64_t
    operator[](ErrorSite site) const
    {
        return bySite[static_cast<size_t>(site)];
    }

    SiteCounts &
    operator+=(const SiteCounts &other)
    {
        for (size_t i = 0; i < kErrorSites; ++i)
            bySite[i] += other.bySite[i];
        return *this;
    }

    /** Events across all sites. */
    uint64_t
    total() const
    {
        return std::accumulate(bySite.begin(), bySite.end(), uint64_t{0});
    }

    /** Number of sites with a nonzero count. */
    size_t
    populated() const
    {
        return bySite.size() -
               std::count(bySite.begin(), bySite.end(), uint64_t{0});
    }

    /** Record @p count events at the site spelled @p name; false,
     *  recording nothing, for an unknown or already recorded site or
     *  a zero count, none of which an encoder writes. */
    bool addNamed(std::string_view name, uint64_t count);

    bool operator==(const SiteCounts &other) const = default;
};

/** Append @p sites as "site:count" entries joined by ';', in name
 *  order, zero counts omitted (no events: nothing), to @p out. */
void appendSiteCounts(std::string &out, const SiteCounts &sites);

/** Parse the appendSiteCounts format; nullopt on a malformed entry
 *  (an empty one, one without ':', a count that is not all decimal
 *  digits or overflows) or one addNamed refuses. Nothing is
 *  trimmed. */
std::optional<SiteCounts> decodeSiteCounts(std::string_view text);

/** Printable kind name ("CE" / "UE"). */
std::string errorKindName(ErrorKind kind);

/** One logged hardware error event. */
struct ErrorRecord
{
    ErrorKind kind = ErrorKind::Corrected;
    ErrorSite site = ErrorSite::L2Cache;
    CoreId core = 0;     ///< core whose access exposed the error
    uint32_t epoch = 0;  ///< when during the run it was detected
    uint64_t count = 1;  ///< events coalesced into this record
};

/** In-memory EDAC log. */
class EdacLog
{
  public:
    /** Append a record. */
    void report(const ErrorRecord &record);

    /** All records since the last clear. */
    const std::vector<ErrorRecord> &records() const
    {
        return records_;
    }

    /** Total corrected-error events logged. */
    uint64_t correctedCount() const;

    /** Total uncorrected-error events logged. */
    uint64_t uncorrectedCount() const;

    /** Drop all records. */
    void clear() { records_.clear(); }

  private:
    std::vector<ErrorRecord> records_;
};

} // namespace vmargin::sim

#endif // VMARGIN_SIM_EDAC_HH
