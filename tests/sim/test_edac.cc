/**
 * @file
 * Unit tests for the EDAC error log.
 */

#include <gtest/gtest.h>

#include "sim/edac.hh"

namespace vmargin::sim
{
namespace
{

ErrorRecord
record(ErrorKind kind, ErrorSite site, uint64_t count)
{
    ErrorRecord r;
    r.kind = kind;
    r.site = site;
    r.count = count;
    return r;
}

TEST(Edac, StartsEmpty)
{
    const EdacLog log;
    EXPECT_TRUE(log.records().empty());
    EXPECT_EQ(log.correctedCount(), 0u);
    EXPECT_EQ(log.uncorrectedCount(), 0u);
}

TEST(Edac, CountsByKind)
{
    EdacLog log;
    log.report(record(ErrorKind::Corrected, ErrorSite::L2Cache, 3));
    log.report(record(ErrorKind::Corrected, ErrorSite::L3Cache, 2));
    log.report(
        record(ErrorKind::Uncorrected, ErrorSite::L2Cache, 1));
    EXPECT_EQ(log.correctedCount(), 5u);
    EXPECT_EQ(log.uncorrectedCount(), 1u);
    EXPECT_EQ(log.records().size(), 3u);
}

TEST(Edac, CountsBySite)
{
    // The per-site record the classifier builds from a run's log.
    SiteCounts corrected;
    corrected[ErrorSite::L2Cache] += 3;
    corrected[ErrorSite::L2Cache] += 4;
    corrected[ErrorSite::Dram] += 1;
    EXPECT_EQ(corrected[ErrorSite::L2Cache], 7u);
    EXPECT_EQ(corrected[ErrorSite::Dram], 1u);
    EXPECT_EQ(corrected[ErrorSite::L1Cache], 0u);
    EXPECT_EQ(corrected.total(), 8u);
    EXPECT_EQ(corrected.populated(), 2u);
}

TEST(Edac, Clear)
{
    EdacLog log;
    log.report(record(ErrorKind::Corrected, ErrorSite::L2Cache, 3));
    log.clear();
    EXPECT_TRUE(log.records().empty());
    EXPECT_EQ(log.correctedCount(), 0u);
}

TEST(Edac, Names)
{
    EXPECT_EQ(errorKindName(ErrorKind::Corrected), "CE");
    EXPECT_EQ(errorKindName(ErrorKind::Uncorrected), "UE");
    EXPECT_EQ(errorSiteName(ErrorSite::L1Cache), "L1Cache");
    EXPECT_EQ(errorSiteName(ErrorSite::L2Cache), "L2Cache");
    EXPECT_EQ(errorSiteName(ErrorSite::L3Cache), "L3Cache");
    EXPECT_EQ(errorSiteName(ErrorSite::Dram), "DRAM");
    for (size_t i = 0; i < kErrorSites; ++i) {
        const auto site = static_cast<ErrorSite>(i);
        EXPECT_EQ(siteFromName(errorSiteName(site)), site);
    }
    EXPECT_FALSE(siteFromName("Bogus").has_value());
    EXPECT_FALSE(siteFromName("l2cache").has_value());
}

} // namespace
} // namespace vmargin::sim
