/**
 * @file
 * Tests for the live-point checkpoint store (src/checkpoint/) and the
 * confidence-driven driver: DLRNLVP1 round trips that resume
 * bit-identically, key-based invalidation, a corrupt-input suite
 * mirroring the trace-format one (tests/test_trace_io.cc), the
 * RunningCI/z-value math, and the two driver pins — `--error 0` equals
 * exact mode bit-for-bit, and a loose error bound replays measurably
 * fewer windows while landing inside it.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "base/histogram.hh"
#include "base/units.hh"
#include "checkpoint/livepoint.hh"
#include "core/delorean.hh"
#include "sampling/confidence.hh"
#include "workload/spec_profiles.hh"
#include "workload/trace_io.hh"

namespace
{

using namespace delorean;
using checkpoint::CheckpointError;

/** Unique temp path, removed on scope exit. */
struct TempPath
{
    std::string path;
    ::pid_t owner;

    explicit TempPath(const std::string &tag) : owner(::getpid())
    {
        static int counter = 0;
        const auto dir = std::filesystem::temp_directory_path();
        path = (dir / ("delorean_ckpt_" + tag + "_" +
                       std::to_string(owner) + "_" +
                       std::to_string(counter++)))
                   .string();
    }

    ~TempPath()
    {
        if (::getpid() != owner)
            return;
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }
};

/** Small schedule keeping every full run in the tier-1 budget. */
core::DeloreanConfig
quickConfig(unsigned regions = 3, InstCount spacing = 500'000)
{
    core::DeloreanConfig cfg;
    cfg.schedule.num_regions = regions;
    cfg.schedule.spacing = spacing;
    return cfg;
}

std::vector<std::uint8_t>
serialize(const checkpoint::LivePointFile &file)
{
    std::stringstream ss(std::ios::in | std::ios::out |
                         std::ios::binary);
    checkpoint::writeLivePoints(ss, file);
    const std::string s = ss.str();
    return {s.begin(), s.end()};
}

checkpoint::LivePointFile
deserialize(const std::vector<std::uint8_t> &bytes)
{
    std::stringstream ss(std::string(bytes.begin(), bytes.end()),
                         std::ios::in | std::ios::binary);
    return checkpoint::readLivePoints(ss);
}

// --------------------------------------------------------- running CI

TEST(RunningCI, WelfordMatchesClosedForm)
{
    sampling::RunningCI ci;
    const double xs[] = {1.0, 2.0, 3.0, 4.0, 5.0};
    for (const double x : xs)
        ci.add(x);
    EXPECT_EQ(ci.count(), 5u);
    EXPECT_DOUBLE_EQ(ci.mean(), 3.0);
    EXPECT_DOUBLE_EQ(ci.variance(), 2.5); // sample variance, n-1

    const double z = 1.96;
    EXPECT_DOUBLE_EQ(ci.halfWidth(z), z * std::sqrt(2.5 / 5.0));
    EXPECT_DOUBLE_EQ(ci.relativeHalfWidth(z),
                     z * std::sqrt(2.5 / 5.0) / 3.0);
}

TEST(RunningCI, DegenerateCasesFailSafe)
{
    sampling::RunningCI ci;
    EXPECT_EQ(ci.halfWidth(1.96), 0.0);
    ci.add(2.0);
    // One sample: variance undefined, half-width 0 — the driver
    // separately floors the stop rule at two windows.
    EXPECT_EQ(ci.variance(), 0.0);
    EXPECT_EQ(ci.halfWidth(1.96), 0.0);

    // Zero mean with nonzero spread can never satisfy a relative
    // bound: report +inf, not a div-by-zero.
    sampling::RunningCI zero;
    zero.add(-1.0);
    zero.add(1.0);
    EXPECT_EQ(zero.mean(), 0.0);
    EXPECT_TRUE(std::isinf(zero.relativeHalfWidth(1.96)));

    // Identical samples: zero variance, zero relative width.
    sampling::RunningCI flat;
    flat.add(2.0);
    flat.add(2.0);
    EXPECT_EQ(flat.relativeHalfWidth(1.96), 0.0);
}

TEST(RunningCI, ZValueMatchesNormalQuantiles)
{
    EXPECT_NEAR(sampling::zForConfidence(95.0), 1.95996, 1e-4);
    EXPECT_NEAR(sampling::zForConfidence(99.7), 2.96774, 1e-4);
    EXPECT_NEAR(sampling::zForConfidence(90.0), 1.64485, 1e-4);
    EXPECT_NEAR(sampling::zForConfidence(50.0), 0.67449, 1e-4);
}

// -------------------------------------------------- histogram snapshot

TEST(HistogramSnapshot, RoundTripIsExact)
{
    LogHistogram h;
    h.add(1, 1.0);
    h.add(100, 0.25);
    h.add(100'000, 3.5);
    h.add(100, 0.125);

    const auto snap = h.snapshot();
    const LogHistogram back = LogHistogram::fromSnapshot(snap);
    // operator== compares per-cell weights and the *accumulated* total
    // weight bitwise: fromSnapshot must restore the stored total
    // verbatim, never re-sum cells in a different order.
    EXPECT_TRUE(back == h);
    EXPECT_EQ(back.totalWeight(), h.totalWeight());

    // Cells are sparse, ascending, strictly positive.
    for (std::size_t i = 1; i < snap.cells.size(); ++i)
        EXPECT_LT(snap.cells[i - 1].first, snap.cells[i].first);
    for (const auto &[idx, w] : snap.cells)
        EXPECT_GT(w, 0.0);

    // Empty histogram round trips too.
    const LogHistogram empty;
    EXPECT_TRUE(LogHistogram::fromSnapshot(empty.snapshot()) == empty);
}

// ----------------------------------------------------- file round trip

TEST(LivePoint, RecordRoundTripAndResumeBitIdentical)
{
    const auto cfg = quickConfig();
    const auto file = checkpoint::recordLivePoints("bzip2", cfg);
    ASSERT_EQ(file.windows.size(), cfg.schedule.num_regions);
    for (std::size_t r = 0; r < file.windows.size(); ++r) {
        EXPECT_EQ(file.windows[r].region, r);
        EXPECT_EQ(file.windows[r].warming_start,
                  cfg.schedule.warmingStart(unsigned(r)));
    }

    // Byte round trip reproduces every window operator==-equal.
    const auto back = deserialize(serialize(file));
    EXPECT_EQ(back.workload, file.workload);
    EXPECT_TRUE(back.key == file.key);
    ASSERT_EQ(back.windows.size(), file.windows.size());
    for (std::size_t r = 0; r < file.windows.size(); ++r)
        EXPECT_TRUE(back.windows[r] == file.windows[r])
            << "window " << r;

    // Serialization is deterministic (sorted maps, sorted cells).
    EXPECT_EQ(serialize(file), serialize(back));

    // Resuming from the persisted warm state is bit-identical to the
    // fresh end-to-end run (MethodResult::operator== is bitwise).
    TempPath out("roundtrip");
    checkpoint::writeLivePointFile(out.path, file);
    const auto warm = checkpoint::loadForRun("bzip2", cfg, out.path);
    auto trace = workload::makeSpecTrace("bzip2");
    const auto resumed = core::DeloreanMethod::run(*trace, cfg, &warm);
    auto fresh_trace = workload::makeSpecTrace("bzip2");
    const auto fresh = core::DeloreanMethod::run(*fresh_trace, cfg);
    EXPECT_EQ(resumed, fresh);
    EXPECT_EQ(resumed.windows_replayed, resumed.windows_total);
}

/** 64-bit FNV-1a over @p bytes. */
std::uint64_t
fnv1a(const std::vector<std::uint8_t> &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const std::uint8_t b : bytes) {
        h ^= b;
        h *= 0x100000001b3ull;
    }
    return h;
}

// Golden pin of a recording's serialized bytes: the file carries every
// window's key set, back distances and vicinity histogram, so a drift
// in any warm-up pass (or in the format) changes the digest.
TEST(LivePoint, GoldenRecordingDigest)
{
    const auto bytes =
        serialize(checkpoint::recordLivePoints("bzip2", quickConfig()));
    EXPECT_EQ(bytes.size(), 58178u);
    EXPECT_EQ(fnv1a(bytes), 0x0427bf312c1c914bull);
}

TEST(LivePoint, KeyInvalidation)
{
    const auto cfg = quickConfig();
    const auto base = checkpoint::livePointKey("bzip2", cfg);

    // Result-shaping config fields move the key...
    auto c = cfg;
    c.hier.llc.size = 4 * MiB;
    EXPECT_FALSE(checkpoint::livePointKey("bzip2", c) == base);
    c = cfg;
    c.schedule.spacing = 250'000;
    EXPECT_FALSE(checkpoint::livePointKey("bzip2", c) == base);

    // ...while the early-stop knobs and the path are normalized out:
    // warm state is valid under any stopping rule.
    c = cfg;
    c.confidence = 95.0;
    c.target_error = 0.03;
    c.window_seed = 7;
    c.min_windows = 2;
    c.livepoint_file = "/anywhere.dlvp";
    EXPECT_TRUE(checkpoint::livePointKey("bzip2", c) == base);

    // A different workload is a different key.
    EXPECT_FALSE(checkpoint::livePointKey("mcf", cfg) == base);
}

TEST(LivePoint, LoadForRunRejectsMismatches)
{
    const auto cfg = quickConfig();
    const auto file = checkpoint::recordLivePoints("bzip2", cfg);
    TempPath out("mismatch");
    checkpoint::writeLivePointFile(out.path, file);

    // Wrong workload or result-shaping config: key mismatch.
    EXPECT_THROW((void)checkpoint::loadForRun("mcf", cfg, out.path),
                 CheckpointError);
    auto c = cfg;
    c.hier.llc.size = 4 * MiB;
    EXPECT_THROW((void)checkpoint::loadForRun("bzip2", c, out.path),
                 CheckpointError);

    // Different schedule: caught before any key comparison.
    c = quickConfig(2, 400'000);
    EXPECT_THROW((void)checkpoint::loadForRun("bzip2", c, out.path),
                 CheckpointError);

    // Missing file.
    EXPECT_THROW(
        (void)checkpoint::loadForRun("bzip2", cfg, "/nonexistent.dlvp"),
        CheckpointError);

    // Early-stop knobs alone do NOT invalidate.
    c = cfg;
    c.confidence = 95.0;
    c.target_error = 0.25;
    c.min_windows = 2;
    EXPECT_EQ(checkpoint::loadForRun("bzip2", c, out.path).size(),
              cfg.schedule.num_regions);
}

TEST(LivePoint, FileBackedWorkloadRerecordInvalidates)
{
    TempPath trace_path("trace");
    auto source = workload::makeSpecTrace("bzip2");
    const auto cfg = quickConfig(2, 200'000);
    workload::recordTrace(*source, cfg.schedule.totalInstructions(),
                          trace_path.path);
    const std::string spec = "file:" + trace_path.path;

    const auto file = checkpoint::recordLivePoints(spec, cfg);
    TempPath out("rerecord");
    checkpoint::writeLivePointFile(out.path, file);
    EXPECT_EQ(checkpoint::loadForRun(spec, cfg, out.path).size(), 2u);

    // Re-record the same path with different content: the embedded
    // key folds in the file digest, so the live-points go stale.
    auto other = workload::makeSpecTrace("mcf");
    workload::recordTrace(*other, cfg.schedule.totalInstructions(),
                          trace_path.path);
    EXPECT_THROW((void)checkpoint::loadForRun(spec, cfg, out.path),
                 CheckpointError);
}

// ------------------------------------------------------- corrupt input

class CorruptLivePoint : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // One shared recording per suite run keeps the corrupt cases
        // cheap; each test mutates its own copy of the bytes.
        static const std::vector<std::uint8_t> recorded = [] {
            const auto file =
                checkpoint::recordLivePoints("bzip2",
                                             quickConfig(2, 200'000));
            return serialize(file);
        }();
        bytes_ = recorded;
    }

    /** Expect CheckpointError mentioning @p hint for @p bytes. */
    void
    expectError(const std::vector<std::uint8_t> &bytes,
                const std::string &hint)
    {
        try {
            (void)deserialize(bytes);
            FAIL() << "expected CheckpointError (" << hint << ")";
        } catch (const CheckpointError &e) {
            EXPECT_NE(std::string(e.what()).find(hint),
                      std::string::npos)
                << e.what();
        }
    }

    std::vector<std::uint8_t> bytes_;
};

TEST_F(CorruptLivePoint, MissingFile)
{
    EXPECT_THROW((void)checkpoint::readLivePointFile("/nonexistent.dlvp"),
                 CheckpointError);
}

TEST_F(CorruptLivePoint, BadMagic)
{
    auto b = bytes_;
    b[0] = 'X';
    expectError(b, "bad magic");
}

TEST_F(CorruptLivePoint, WrongVersion)
{
    auto b = bytes_;
    b[8] = 99;
    expectError(b, "unsupported version 99");
}

TEST_F(CorruptLivePoint, NonzeroReservedHeader)
{
    auto b = bytes_;
    b[12] = 1;
    expectError(b, "reserved");
}

TEST_F(CorruptLivePoint, TruncatedHeader)
{
    expectError({bytes_.begin(), bytes_.begin() + 10}, "truncated");
}

TEST_F(CorruptLivePoint, TruncatedName)
{
    // Header fixed part is 8 magic + 4 version + 4 reserved + 16 key +
    // 4 name length = 36 bytes; cut inside the name bytes.
    expectError({bytes_.begin(), bytes_.begin() + 38}, "truncated");
}

TEST_F(CorruptLivePoint, OversizedNameLength)
{
    auto b = bytes_;
    b[32] = 0xff;
    b[33] = 0xff;
    b[34] = 0xff;
    b[35] = 0x7f;
    expectError(b, "string length");
}

TEST_F(CorruptLivePoint, TruncatedPayload)
{
    expectError({bytes_.begin(), bytes_.end() - 16}, "truncated");
}

TEST_F(CorruptLivePoint, TrailingBytes)
{
    auto b = bytes_;
    b.push_back(0);
    expectError(b, "trailing bytes");
}

TEST_F(CorruptLivePoint, InvalidSchedule)
{
    // num_regions lives right after the name ("bzip2", 5 bytes).
    auto b = bytes_;
    const std::size_t num_regions_at = 36 + 5;
    b[num_regions_at] = 0;
    b[num_regions_at + 1] = 0;
    b[num_regions_at + 2] = 0;
    b[num_regions_at + 3] = 0;
    expectError(b, "schedule");
}

TEST_F(CorruptLivePoint, WindowCountMismatch)
{
    // The window-count u32 follows num_regions + 3 u64 schedule
    // fields; a count that disagrees with the schedule is rejected
    // before any window parsing.
    auto b = bytes_;
    const std::size_t count_at = 36 + 5 + 4 + 24;
    b[count_at] = 0x7;
    expectError(b, "window count");
}

TEST_F(CorruptLivePoint, GarbageKeyFlags)
{
    // First window starts right after the count. Layout: u32 region,
    // u64 warming_start, u64 region_refs, u32 key count, then 25-byte
    // key records whose last byte is the flags.
    auto b = bytes_;
    const std::size_t window_at = 36 + 5 + 4 + 24 + 4;
    const std::size_t first_flags_at = window_at + 4 + 8 + 8 + 4 + 24;
    ASSERT_LT(first_flags_at, b.size());
    b[first_flags_at] = 0xf0;
    expectError(b, "flags");
}

TEST_F(CorruptLivePoint, ImplausibleKeyCount)
{
    auto b = bytes_;
    const std::size_t key_count_at = 36 + 5 + 4 + 24 + 4 + 4 + 8 + 8;
    b[key_count_at + 3] = 0xff; // > 1<<24
    expectError(b, "implausible");
}

// The remaining structural rules — strictly increasing back-distance
// lines, ascending histogram cells, positive weights, engaged <= 4 —
// are easiest to violate through the writer's own struct.

checkpoint::LivePointFile
tinyFile()
{
    static const checkpoint::LivePointFile recorded =
        checkpoint::recordLivePoints("bzip2", quickConfig(2, 200'000));
    return recorded;
}

TEST_F(CorruptLivePoint, EngagedAboveFour)
{
    auto f = tinyFile();
    f.windows[0].warm.explored.engaged = 5;
    expectError(serialize(f), "engagement");
}

TEST_F(CorruptLivePoint, WindowOffsetDisagreesWithSchedule)
{
    auto f = tinyFile();
    f.windows[1].warming_start += 1;
    expectError(serialize(f), "trace offset");
}

TEST_F(CorruptLivePoint, HistogramNegativeTotalWeight)
{
    auto f = tinyFile();
    // Rebuild the vicinity histogram pair with a poisoned total.
    auto events = f.windows[0].warm.explored.vicinity.events();
    auto snap = events.snapshot();
    snap.total_weight = -1.0;
    f.windows[0].warm.explored.vicinity = statmodel::ReuseHistogram(
        LogHistogram::fromSnapshot(snap),
        f.windows[0].warm.explored.vicinity.censoredHist());
    expectError(serialize(f), "total weight");
}

// ----------------------------------------------- confidence-driven runs

TEST(Confidence, ErrorZeroIsBitIdenticalToExactMode)
{
    const auto cfg = quickConfig();
    auto trace = workload::makeSpecTrace("bzip2");
    const auto exact = core::DeloreanMethod::run(*trace, cfg);

    // --error 0 never stops: the shuffled replay covers every window
    // and reassembles in region order, so everything except the two
    // reporting fields is pinned bit-identical to exact mode.
    auto c = cfg;
    c.confidence = 95.0;
    c.target_error = 0.0;
    auto trace2 = workload::makeSpecTrace("bzip2");
    auto shuffled = core::DeloreanMethod::run(*trace2, c);
    EXPECT_EQ(shuffled.windows_replayed, exact.windows_replayed);
    EXPECT_EQ(shuffled.confidence, 95.0);
    EXPECT_GE(shuffled.ci_error, 0.0);
    shuffled.confidence = exact.confidence;
    shuffled.ci_error = exact.ci_error;
    EXPECT_EQ(shuffled, exact);
}

TEST(Confidence, LooseBoundStopsEarlyInsideIt)
{
    // Eight windows, a 50% error bound and a two-window floor: the
    // stop rule must cut the replay well short of full coverage and
    // report a residual CI within the requested bound.
    auto cfg = quickConfig(8, 200'000);
    cfg.confidence = 95.0;
    cfg.target_error = 0.5;
    cfg.min_windows = 2;
    auto trace = workload::makeSpecTrace("bzip2");
    const auto result = core::DeloreanMethod::run(*trace, cfg);

    EXPECT_EQ(result.windows_total, 8u);
    EXPECT_LT(result.windows_replayed, result.windows_total);
    EXPECT_GE(result.windows_replayed, 2u);
    EXPECT_LE(result.ci_error, 0.5);
    EXPECT_EQ(result.confidence, 95.0);

    // Deterministic: the same config replays the same windows.
    auto trace2 = workload::makeSpecTrace("bzip2");
    EXPECT_EQ(core::DeloreanMethod::run(*trace2, cfg), result);

    // A different shuffle seed is a different (but equally valid) run.
    auto reseeded = cfg;
    reseeded.window_seed = 1234;
    auto trace3 = workload::makeSpecTrace("bzip2");
    const auto other = core::DeloreanMethod::run(*trace3, reseeded);
    EXPECT_LE(other.ci_error, 0.5);
}

// Golden-value pin of an early-stopped run (the tolerance rule of
// Delorean.GoldenBzip2QuickSchedule: integers exact, doubles to 1e-6
// relative for cross-compiler FP differences). Which windows replay
// and where the stop rule fires depend on the seeded shuffle and the
// running CI, so any drift in either shows up here.
TEST(Confidence, GoldenEarlyStoppedRun)
{
    auto cfg = quickConfig(8, 200'000);
    cfg.confidence = 95.0;
    cfg.target_error = 0.5;
    cfg.min_windows = 2;
    auto trace = workload::makeSpecTrace("bzip2");
    const auto r = core::DeloreanMethod::run(*trace, cfg);

    auto near = [](double expected) {
        return std::abs(expected) * 1e-6 + 1e-12;
    };
    EXPECT_EQ(r.windows_replayed, 2u);
    EXPECT_EQ(r.keys_total, 1223u);
    EXPECT_EQ(r.traps, 20450u);
    EXPECT_NEAR(r.ci_error, 0.087900842167665111,
                near(0.087900842167665111));
    EXPECT_NEAR(r.cpi(), 1.16615625, near(1.16615625));
}

TEST(Confidence, ResumeFromLivePointsStopsIdentically)
{
    // Early stopping composes with live-point resume: the warm state
    // is schedule-wide, the stop rule picks the same shuffled prefix,
    // and the result is bit-identical to the cold early-stopped run.
    auto cfg = quickConfig(8, 200'000);
    cfg.confidence = 95.0;
    cfg.target_error = 0.5;
    cfg.min_windows = 2;

    const auto file = checkpoint::recordLivePoints("bzip2", cfg);
    TempPath out("resume_stop");
    checkpoint::writeLivePointFile(out.path, file);
    const auto warm = checkpoint::loadForRun("bzip2", cfg, out.path);

    auto trace = workload::makeSpecTrace("bzip2");
    const auto resumed = core::DeloreanMethod::run(*trace, cfg, &warm);
    auto trace2 = workload::makeSpecTrace("bzip2");
    const auto cold = core::DeloreanMethod::run(*trace2, cfg);
    EXPECT_EQ(resumed, cold);
    EXPECT_LT(resumed.windows_replayed, resumed.windows_total);
}

} // namespace
