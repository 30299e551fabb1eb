/**
 * @file
 * DeloreanSession suspend/resume contract (src/core/session.hh): the
 * resumable window pipeline must be a pure re-arrangement of the
 * offline driver, never a different computation. Pinned here:
 *
 *  - feeding windows one at a time, in bulk, and DeloreanMethod::run
 *    over the same trace are bit-identical (MethodResult::operator==,
 *    doubles bitwise);
 *  - partialResult() after k windows equals a fresh offline run whose
 *    schedule was truncated to k regions;
 *  - suspend via sessionLivePoints -> writeLivePointFile ->
 *    loadPrefixForRun -> feedWarmWindows resumes bit-identically, and
 *    loadForRun (the full-coverage loader) rejects prefix files;
 *  - the threads of an executor do not change any bit of the result;
 *  - a truncated trace holding only regionEnd(k) instructions can
 *    feed exactly its k complete windows (the streaming feed policy);
 *  - estimate() reports the fed/total window counts and a 95% CI
 *    half-width that is 0 until two windows exist;
 *  - a confidence-mode session fed one window at a time stops where
 *    DeloreanMethod::run does, with the same result;
 *  - a session carrying several configs equals one solo session per
 *    config, cell by cell;
 *  - only a region-order prefix of fed windows can be suspended.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "checkpoint/livepoint.hh"
#include "core/delorean.hh"
#include "core/parallel.hh"
#include "core/session.hh"
#include "sampling/region.hh"
#include "workload/trace_io.hh"
#include "workload/trace_registry.hh"

namespace
{

using namespace delorean;
using core::DeloreanConfig;
using core::DeloreanMethod;
using core::DeloreanSession;

/** Unique temp path, removed (recursively) on scope exit. */
struct TempPath
{
    std::string path;

    explicit TempPath(const std::string &tag)
    {
        static int counter = 0;
        path = (std::filesystem::temp_directory_path() /
                ("delorean_session_" + tag + "_" +
                 std::to_string(::getpid()) + "_" +
                 std::to_string(counter++)))
                   .string();
    }

    ~TempPath()
    {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }
};

constexpr const char *benchmark = "spec:bzip2";

/** Small-but-real config: 3 windows, 2 MiB LLC, exact mode. */
DeloreanConfig
tinyConfig(unsigned num_regions = 3)
{
    DeloreanConfig config;
    config.hier.llc.size = 2 * 1024 * 1024;
    config.schedule.spacing = 200000;
    config.schedule.num_regions = num_regions;
    return config;
}

sampling::MethodResult
offlineRun(const DeloreanConfig &config)
{
    const auto master = workload::makeTrace(benchmark);
    return DeloreanMethod::run(*master, config);
}

TEST(Session, OneAtATimeBulkAndOfflineAreBitIdentical)
{
    const DeloreanConfig config = tinyConfig();
    const auto golden = offlineRun(config);

    DeloreanSession bulk(config);
    bulk.feedWindows(*workload::makeTrace(benchmark),
                     config.schedule.num_regions);
    EXPECT_EQ(bulk.finish(), golden);

    DeloreanSession stepped(config);
    for (unsigned r = 0; r < config.schedule.num_regions; ++r) {
        EXPECT_EQ(stepped.windowsFed(), r);
        stepped.feedWindows(*workload::makeTrace(benchmark), 1);
    }
    EXPECT_EQ(stepped.finish(), golden);
}

TEST(Session, PartialResultEqualsTruncatedOfflineRun)
{
    const DeloreanConfig config = tinyConfig();
    DeloreanSession session(config);
    for (unsigned k = 1; k <= config.schedule.num_regions; ++k) {
        session.feedWindows(*workload::makeTrace(benchmark), 1);
        EXPECT_EQ(session.partialResult(), offlineRun(tinyConfig(k)))
            << "after " << k << " windows";
    }
    // The last partial IS the full result.
    EXPECT_EQ(session.partialResult(), session.finish());
}

TEST(Session, SuspendAndResumeThroughLivePointsIsBitIdentical)
{
    const DeloreanConfig config = tinyConfig();
    const auto golden = offlineRun(config);
    TempPath dir("suspend");
    std::filesystem::create_directories(dir.path);
    const std::string lp_path = dir.path + "/prefix.dlp";

    // Feed 2 of 3 windows, suspend to a live-point file.
    {
        DeloreanSession session(config);
        session.feedWindows(*workload::makeTrace(benchmark), 2);
        checkpoint::writeLivePointFile(
            lp_path,
            checkpoint::sessionLivePoints(session, benchmark));
    }

    // Resume into a fresh session: warm prefix via the Analyst-only
    // path, then the remaining window through the normal feed.
    const auto warm =
        checkpoint::loadPrefixForRun(benchmark, config, lp_path);
    ASSERT_EQ(warm.size(), 2u);

    DeloreanSession resumed(config);
    const auto master = workload::makeTrace(benchmark);
    sampling::TraceCheckpointer checkpoints(*master);
    checkpoints.prepare(DeloreanMethod::checkpointPositions(config));
    resumed.feedWarmWindows(*master, checkpoints, warm);
    EXPECT_EQ(resumed.windowsFed(), 2u);
    resumed.feedWindows(*master, checkpoints, 1);
    EXPECT_EQ(resumed.finish(), golden);

    // The strict full-coverage loader must reject the prefix file with
    // a diagnostic pointing at the session-based resume path.
    try {
        (void)checkpoint::loadForRun(benchmark, config, lp_path);
        FAIL() << "loadForRun accepted a 2-of-3 prefix";
    } catch (const checkpoint::CheckpointError &e) {
        EXPECT_NE(std::string(e.what()).find("loadPrefixForRun"),
                  std::string::npos);
    }
}

TEST(Session, ExecutorThreadsDoNotChangeAnyBit)
{
    const DeloreanConfig cfg = tinyConfig();
    DeloreanSession a(cfg);
    a.feedWindows(*workload::makeTrace(benchmark),
                  cfg.schedule.num_regions);
    core::ThreadPool pool(2);
    DeloreanSession b(cfg);
    b.feedWindows(*workload::makeTrace(benchmark),
                  cfg.schedule.num_regions, &pool);
    EXPECT_EQ(a.finish(), b.finish());
}

TEST(Session, TruncatedTraceFeedsExactlyItsCompleteWindows)
{
    const DeloreanConfig config = tinyConfig();
    TempPath dir("truncated");
    std::filesystem::create_directories(dir.path);
    const std::string path = dir.path + "/short.dlt";

    // Record only regionEnd(1) = 2 * spacing instructions: windows 0
    // and 1 are complete, window 2's bytes do not exist yet.
    {
        const auto source = workload::makeTrace(benchmark);
        workload::recordTrace(*source, 2 * config.schedule.spacing,
                              path);
    }

    DeloreanSession session(config);
    session.feedWindows(workload::FileTrace(path), 2);
    EXPECT_EQ(session.windowsFed(), 2u);
    EXPECT_EQ(session.windowsTotal(), 3u);

    // Identical to a full-trace session stopped at the same point.
    DeloreanSession full(config);
    full.feedWindows(*workload::makeTrace(benchmark), 2);
    EXPECT_EQ(session.partialResult(), full.partialResult());
}

TEST(Session, EstimateTracksWindowsAndCi)
{
    const DeloreanConfig config = tinyConfig();
    DeloreanSession session(config);

    auto est = session.estimate();
    EXPECT_EQ(est.windows_fed, 0u);
    EXPECT_EQ(est.windows_total, 3u);
    EXPECT_EQ(est.mean_cpi, 0.0);
    EXPECT_EQ(est.ci_error, 0.0);

    session.feedWindows(*workload::makeTrace(benchmark), 1);
    est = session.estimate();
    EXPECT_EQ(est.windows_fed, 1u);
    EXPECT_GT(est.mean_cpi, 0.0);
    EXPECT_EQ(est.ci_error, 0.0) << "half-width defined from n=2";

    session.feedWindows(*workload::makeTrace(benchmark), 2);
    est = session.estimate();
    EXPECT_EQ(est.windows_fed, 3u);
    EXPECT_GT(est.mean_cpi, 0.0);
    EXPECT_GT(est.ci_error, 0.0);
}

/** Eight windows, 95% confidence, a loose bound that stops early. */
DeloreanConfig
earlyStopConfig()
{
    DeloreanConfig config = tinyConfig(8);
    config.confidence = 95.0;
    config.target_error = 0.5;
    config.min_windows = 2;
    return config;
}

TEST(Session, ConfidenceModeOneAtATimeEqualsRun)
{
    const DeloreanConfig config = earlyStopConfig();
    DeloreanSession session(config);
    const auto master = workload::makeTrace(benchmark);
    while (!session.done())
        session.feedWindows(*master, 1);

    EXPECT_LT(session.windowsFed(), session.windowsTotal());
    EXPECT_EQ(session.finish(), offlineRun(config));
}

TEST(Session, GroupedSessionEqualsSoloSessions)
{
    std::vector<DeloreanConfig> configs;
    for (const std::uint64_t mib : {1, 2, 4}) {
        configs.push_back(tinyConfig());
        configs.back().hier.llc.size = mib * 1024 * 1024;
    }
    const auto master = workload::makeTrace(benchmark);
    DeloreanSession grouped(configs);
    grouped.feedWindows(*master, grouped.windowsTotal());

    for (std::size_t i = 0; i < configs.size(); ++i) {
        DeloreanSession solo(configs[i]);
        solo.feedWindows(*master, solo.windowsTotal());
        EXPECT_EQ(grouped.finish(i), solo.finish()) << "cell " << i;
    }
}

TEST(Session, SuspendRejectsWindowsOutOfRegionOrder)
{
    DeloreanConfig config = earlyStopConfig();
    config.target_error = 0.0; // never stop
    DeloreanSession session(config);
    ASSERT_NE(session.windowOrder().front(), 0u)
        << "the seed's shuffle must move region 0";
    session.feedWindows(*workload::makeTrace(benchmark), 1);
    EXPECT_THROW((void)checkpoint::sessionLivePoints(session, benchmark),
                 checkpoint::CheckpointError);
}

} // namespace
