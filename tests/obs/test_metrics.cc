/**
 * @file
 * Unit tests for the telemetry plane: the metrics registry, span
 * tracing with an injected clock, the JSON snapshot shape and the
 * JSONL sink.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/clock.hh"
#include "obs/metrics.hh"
#include "obs/sink.hh"

namespace vmargin::obs
{
namespace
{

TEST(Counter, MonotonicIncrements)
{
    Registry reg;
    Counter &c = reg.counter("a.total");
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    EXPECT_EQ(c.value(), 1u);
    c.inc(41);
    EXPECT_EQ(c.value(), 42u);
}

TEST(Counter, SameNameReturnsSameHandle)
{
    Registry reg;
    Counter &a = reg.counter("x.total");
    Counter &b = reg.counter("x.total");
    EXPECT_EQ(&a, &b);
    a.inc();
    EXPECT_EQ(b.value(), 1u);
}

TEST(Counter, ConcurrentIncrementsLoseNothing)
{
    Registry reg;
    Counter &c = reg.counter("hot.total");
    constexpr int kThreads = 8;
    constexpr int kPerThread = 10000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&c] {
            for (int i = 0; i < kPerThread; ++i)
                c.inc();
        });
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(c.value(),
              static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(Gauge, SetAddMax)
{
    Registry reg;
    Gauge &g = reg.gauge("queue.depth");
    g.set(5);
    EXPECT_EQ(g.value(), 5);
    g.add(-2);
    EXPECT_EQ(g.value(), 3);
    g.max(10);
    EXPECT_EQ(g.value(), 10);
    g.max(7); // never lowers
    EXPECT_EQ(g.value(), 10);
}

TEST(Span, RecordsAggregates)
{
    Registry reg;
    SpanStat &s = reg.span("phase");
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.minNs(), 0u); // never ran
    s.record(50);
    s.record(10);
    s.record(30);
    EXPECT_EQ(s.count(), 3u);
    EXPECT_EQ(s.totalNs(), 90u);
    EXPECT_EQ(s.minNs(), 10u);
    EXPECT_EQ(s.maxNs(), 50u);
}

TEST(Span, ScopedSpanUsesInjectedClock)
{
    Registry reg;
    SpanStat &s = reg.span("pinned");
    ManualClock clock;
    {
        ScopedSpan span(s, clock);
        clock.advanceMillis(3);
    }
    EXPECT_EQ(s.count(), 1u);
    EXPECT_EQ(s.totalNs(), 3000000u);
}

TEST(Registry, RegistrationOrderIsPreserved)
{
    Registry reg;
    reg.counter("zeta");
    reg.gauge("alpha");
    reg.span("mid");
    const auto names = reg.names();
    ASSERT_EQ(names.size(), 3u);
    EXPECT_EQ(names[0], "zeta");
    EXPECT_EQ(names[1], "alpha");
    EXPECT_EQ(names[2], "mid");
}

TEST(Registry, CountersJsonIsSortedAndExactOnly)
{
    Registry reg;
    reg.counter("b.exact").inc(2);
    reg.counter("a.exact").inc(1);
    reg.counter("z.sched", Stability::Sched).inc(99);
    reg.gauge("g").set(7);
    // Sorted by name, exact counters only — registration order and
    // the sched/gauge noise never leak into the comparable bytes.
    EXPECT_EQ(reg.countersJson(), "{\"a.exact\":1,\"b.exact\":2}");
}

TEST(Registry, ResetZeroesValuesKeepsRegistration)
{
    Registry reg;
    Counter &c = reg.counter("n");
    Gauge &g = reg.gauge("g");
    SpanStat &s = reg.span("s");
    c.inc(5);
    g.set(3);
    s.record(7);
    reg.reset();
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(g.value(), 0);
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.minNs(), 0u);
    EXPECT_EQ(reg.names().size(), 3u);
    // Handles stay live after reset.
    c.inc();
    EXPECT_EQ(c.value(), 1u);
}

TEST(Registry, SnapshotJsonShape)
{
    Registry reg;
    reg.counter("cells").inc(8);
    reg.counter("steals", Stability::Sched).inc(2);
    reg.gauge("depth").set(4);
    reg.span("plan").record(1000);
    ManualClock clock(1234);
    const std::string snap = reg.snapshotJson(7, clock);
    EXPECT_NE(snap.find("\"schema\":\"vmargin-telemetry-v1\""),
              std::string::npos);
    EXPECT_NE(snap.find("\"seq\":7"), std::string::npos);
    EXPECT_NE(snap.find("\"wall_ms\":1234"), std::string::npos);
    EXPECT_NE(snap.find("\"counters\":{\"cells\":8}"),
              std::string::npos);
    EXPECT_NE(snap.find("\"steals\":2"), std::string::npos);
    EXPECT_NE(snap.find("\"depth\":4"), std::string::npos);
    EXPECT_NE(snap.find("\"plan\""), std::string::npos);
    EXPECT_EQ(snap.find("\"histograms\""), std::string::npos);
    // One line: JSONL demands no embedded newline.
    EXPECT_EQ(snap.find('\n'), std::string::npos);
}

TEST(Registry, SnapshotBytesPinnedByManualClock)
{
    Registry reg;
    reg.counter("cells").inc(3);
    ManualClock clock(42);
    const std::string a = reg.snapshotJson(1, clock);
    const std::string b = reg.snapshotJson(1, clock);
    EXPECT_EQ(a, b);
}

TEST(RegistryDeath, KindMismatchAborts)
{
    Registry reg;
    reg.counter("dual");
    EXPECT_DEATH(reg.gauge("dual"), "dual");
}

class SinkTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        // One file per test: ctest runs the tests of this suite as
        // concurrent processes.
        path_ = (std::filesystem::temp_directory_path() /
                 (std::string("vmargin_obs_sink_") +
                  ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name() +
                  ".jsonl"))
                    .string();
        std::remove(path_.c_str());
    }

    void TearDown() override { std::remove(path_.c_str()); }

    std::vector<std::string> lines() const
    {
        std::ifstream in(path_);
        std::vector<std::string> out;
        for (std::string line; std::getline(in, line);)
            out.push_back(line);
        return out;
    }

    std::string path_;
};

TEST_F(SinkTest, FlushAppendsOneLinePerSnapshot)
{
    Registry reg;
    reg.counter("cells").inc(2);
    ManualClock clock(5);
    {
        TelemetrySink sink(path_, &reg, &clock);
        sink.flush();
        reg.counter("cells").inc(1);
        sink.flush();
        EXPECT_EQ(sink.snapshots(), 2u);
    } // destructor drains one more
    const auto all = lines();
    ASSERT_EQ(all.size(), 3u);
    EXPECT_NE(all[0].find("\"cells\":2"), std::string::npos);
    EXPECT_NE(all[1].find("\"cells\":3"), std::string::npos);
    EXPECT_NE(all[2].find("\"seq\":3"), std::string::npos);
}

TEST_F(SinkTest, MaybeFlushHonorsInterval)
{
    Registry reg;
    ManualClock clock;
    {
        TelemetrySink sink(path_, &reg, &clock);
        sink.maybeFlush(1000); // 0 ms since creation: suppressed
        clock.advanceMillis(999);
        sink.maybeFlush(1000); // still inside the interval
        clock.advanceMillis(1);
        sink.maybeFlush(1000); // interval reached
        sink.maybeFlush(0);    // <= 0 flushes unconditionally
        EXPECT_EQ(sink.snapshots(), 2u);
    }
    EXPECT_EQ(lines().size(), 3u); // + final drain
}

TEST_F(SinkTest, TruncatesExistingFile)
{
    {
        std::ofstream out(path_);
        out << "stale line\n";
    }
    {
        Registry reg;
        TelemetrySink sink(path_, &reg);
    }
    const auto all = lines();
    ASSERT_EQ(all.size(), 1u);
    EXPECT_EQ(all[0].find("stale"), std::string::npos);
}

TEST(SinkDeath, UnwritablePathIsFatal)
{
    Registry reg;
    EXPECT_EXIT(TelemetrySink("/nonexistent-dir/t.jsonl", &reg),
                ::testing::ExitedWithCode(1), "telemetry");
}

} // namespace
} // namespace vmargin::obs
