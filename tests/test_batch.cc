/**
 * @file
 * Tests for the batch execution subsystem (src/batch/): content
 * cache-key recipe (golden pins + sensitivity, the file content
 * digest), versioned MethodResult serialization (exact round trip,
 * corrupt-input robustness), the persistent result cache
 * (store/load/gc, corruption and torn entries as a miss),
 * manifest parsing, and the BatchRunner guarantees — cached and
 * sharded execution bit-identical (MethodResult::operator==) to
 * direct serial runs, with a fully cached second run executing zero
 * cells.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "base/logging.hh"
#include "base/units.hh"
#include "base/xxh64.hh"
#include "batch/error.hh"
#include "batch/runner.hh"
#include "core/delorean.hh"
#include "workload/spec_profiles.hh"
#include "workload/trace_io.hh"

namespace
{

using namespace delorean;
using namespace delorean::batch;

// ------------------------------------------------------------- helpers

/** Unique temp path, removed (recursively) on scope exit. */
struct TempPath
{
    std::string path;
    ::pid_t owner;

    explicit TempPath(const std::string &tag) : owner(::getpid())
    {
        static int counter = 0;
        const auto dir = std::filesystem::temp_directory_path();
        path = (dir / ("delorean_batch_" + tag + "_" +
                       std::to_string(owner) + "_" +
                       std::to_string(counter++)))
                   .string();
    }

    ~TempPath()
    {
        // Only the creating process may clean up (death-test children
        // exit() through static destructors).
        if (::getpid() != owner)
            return;
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }
};

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << text;
}

/** Small schedule so whole-plan tests stay in the tier-1 budget. */
core::DeloreanConfig
tinyConfig(std::uint64_t llc_size = 2 * MiB)
{
    core::DeloreanConfig cfg;
    cfg.schedule.num_regions = 2;
    cfg.schedule.spacing = 200'000;
    cfg.hier.llc.size = llc_size;
    return cfg;
}

/** A short DeLorean run whose result exercises every field. */
sampling::MethodResult
tinyResult()
{
    auto trace = workload::makeSpecTrace("bzip2");
    return core::DeloreanMethod::run(*trace, tinyConfig());
}

// ------------------------------------------------------------ cache key

// Golden pin of the cache-key recipe for the default configuration.
// If this moves, every previously written cache entry silently
// invalidates (annoying) — or, if the change was meant to alter
// results but forgot to, entries could *falsely hit* (dangerous).
// Bump batch_code_version (or update this pin) only deliberately,
// together with a review of src/batch/result_io.cc compatibility.
TEST(CacheKey, GoldenDefaultConfigPin)
{
    // Named object: GCC 12 at -O3 emits a -Wmaybe-uninitialized false
    // positive for a braced temporary's inner std::string members.
    const core::DeloreanConfig default_config;
    const CacheKey key =
        cellKey("spec:bzip2", "delorean", default_config);
    // Pin history: f800f43a449f853bd025562b4afb161c before the
    // early-stop knobs entered the recipe (docs/batch.md) — that move
    // was deliberate and coincided with the result_io v2→v3 bump.
    EXPECT_EQ(key.hex(), "3fdd50dab304ffabae93e7203e2a435c");
}

TEST(CacheKey, HexIsStableAndWellFormed)
{
    const CacheKey key = cellKey("mcf", "smarts", tinyConfig());
    EXPECT_EQ(key.hex().size(), 32u);
    EXPECT_EQ(key.hex(),
              cellKey("mcf", "smarts", tinyConfig()).hex());
}

TEST(CacheKey, BareAndExplicitSpecSchemeAgree)
{
    const auto cfg = tinyConfig();
    EXPECT_EQ(cellKey("bzip2", "delorean", cfg),
              cellKey("spec:bzip2", "delorean", cfg));
}

TEST(CacheKey, SensitiveToEverySemanticInput)
{
    const auto cfg = tinyConfig();
    const CacheKey base = cellKey("bzip2", "delorean", cfg);

    EXPECT_NE(cellKey("mcf", "delorean", cfg), base);
    EXPECT_NE(cellKey("bzip2", "smarts", cfg), base);

    auto c = cfg;
    c.hier.llc.size = 4 * MiB;
    EXPECT_NE(cellKey("bzip2", "delorean", c), base);

    c = cfg;
    c.schedule.spacing = 300'000;
    EXPECT_NE(cellKey("bzip2", "delorean", c), base);

    c = cfg;
    c.sim.prefetch = true;
    EXPECT_NE(cellKey("bzip2", "delorean", c), base);

    c = cfg;
    c.paper_vicinity_period = 10'000;
    EXPECT_NE(cellKey("bzip2", "delorean", c), base);

    c = cfg;
    c.cost.trap_cycles = 1.0;
    EXPECT_NE(cellKey("bzip2", "delorean", c), base);

    c = cfg;
    c.paper_horizons.pop_back();
    EXPECT_NE(cellKey("bzip2", "delorean", c), base);
}

TEST(CacheKey, DisplayNamesDoNotFragment)
{
    const auto cfg = tinyConfig();
    const CacheKey base = cellKey("bzip2", "delorean", cfg);

    // Cache level names are display-only.
    auto c = cfg;
    c.hier.llc.name = "renamed";
    EXPECT_EQ(cellKey("bzip2", "delorean", c), base);
}

TEST(CacheKey, EarlyStopKnobsAreKeyedLivepointFileIsNot)
{
    const auto cfg = tinyConfig();
    const CacheKey base = cellKey("bzip2", "delorean", cfg);

    // The stop rule changes which windows contribute: every knob must
    // move the key.
    auto c = cfg;
    c.confidence = 95.0;
    EXPECT_NE(cellKey("bzip2", "delorean", c), base);

    c = cfg;
    c.target_error = 0.03;
    EXPECT_NE(cellKey("bzip2", "delorean", c), base);

    c = cfg;
    c.window_seed = 42;
    EXPECT_NE(cellKey("bzip2", "delorean", c), base);

    c = cfg;
    c.min_windows = 5;
    EXPECT_NE(cellKey("bzip2", "delorean", c), base);

    // Resuming from valid live-points is bit-identical to a fresh
    // warm-up (src/checkpoint/), so the path must not fragment the
    // cache.
    c = cfg;
    c.livepoint_file = "/some/warm.dlvp";
    EXPECT_EQ(cellKey("bzip2", "delorean", c), base);
}

TEST(CacheKey, FileWorkloadKeyedByContentNotPath)
{
    TempPath a("trace_a"), b("trace_b");
    auto source = workload::makeSpecTrace("bzip2");
    workload::recordTrace(*source, 1000, a.path);
    source->reset();
    workload::recordTrace(*source, 1000, b.path);

    const auto cfg = tinyConfig();
    const CacheKey ka = cellKey("file:" + a.path, "delorean", cfg);
    const CacheKey kb = cellKey("file:" + b.path, "delorean", cfg);
    // Golden pin of a file-backed cell key: the recording is
    // deterministic, so this moves only with the content-digest recipe.
    // Pin history: 8a17c7916abdf031986e1610056493dc while the content
    // digest was byte-serial FNV-1a. Adopting the XXH64 content digest
    // (docs/batch.md) moved every file:/champsim: key once; spec keys
    // (GoldenDefaultConfigPin) did not move.
    EXPECT_EQ(ka.hex(), "b05a1d5af11cf205d3137693d44bd25b");
    // Identical content at different paths is the same workload...
    EXPECT_EQ(ka, kb);

    // ...and re-recorded content at the same path is a different one.
    auto other = workload::makeSpecTrace("mcf");
    workload::recordTrace(*other, 1000, a.path);
    EXPECT_NE(cellKey("file:" + a.path, "delorean", cfg), ka);

    // The scheme is part of the identity: the same bytes replayed
    // through a different decoder are a different workload.
    EXPECT_NE(KeyBuilder().workload("champsim:" + b.path).key(),
              KeyBuilder().workload("file:" + b.path).key());

    EXPECT_THROW(cellKey("file:/nonexistent/trace.dlt", "delorean", cfg),
                 BatchError);
}

// The file digest is XXH64 of the content under the key halves' two
// offset bases, folded in after the size: the 64 KiB reads of the
// file path give the same digest as the same bytes fed in uneven
// chunks, and both equal libxxhash's one-shot XXH64 (test_base.cc).
TEST(CacheKey, FileDigestIsXxh64OfContentInAnyChunking)
{
    TempPath file("digest");
    std::string bytes(200'003, '\0'); // > 3 reads of 64 KiB
    for (std::size_t i = 0; i < bytes.size(); ++i)
        bytes[i] = char(std::uint8_t(i * 131 + 7));
    writeFile(file.path, bytes);

    const std::uint64_t seed_hi = 14695981039346656037ull;
    const std::uint64_t seed_lo = 0x9e3779b97f4a7c15ull;
    const auto recipe = [&](std::uint64_t hi, std::uint64_t lo) {
        return KeyBuilder()
            .str("workload-file")
            .str("file")
            .u64(bytes.size())
            .u64(hi)
            .u64(lo)
            .key();
    };
    const CacheKey key = workloadIdentity("file:" + file.path);
    // libxxhash 0.8.1: XXH64(bytes, 200003, seed_hi / seed_lo).
    EXPECT_EQ(key, recipe(0xc2cb61fc9d85cfedull, 0x6609ff579bbc16e0ull));

    for (const std::size_t chunk :
         {std::size_t(1), std::size_t(7), std::size_t(31), std::size_t(33),
          std::size_t(65535), std::size_t(65537)}) {
        Xxh64Pair digest({seed_hi, seed_lo});
        for (std::size_t off = 0; off < bytes.size(); off += chunk)
            digest.update(bytes.data() + off,
                          std::min(chunk, bytes.size() - off));
        const auto [hi, lo] = digest.digest();
        EXPECT_EQ(recipe(hi, lo), key) << "chunk=" << chunk;
    }
}

// ---------------------------------------------------------- result I/O

TEST(ResultIo, MethodResultRoundTripIsExact)
{
    const auto result = tinyResult();
    std::stringstream ss(std::ios::in | std::ios::out |
                         std::ios::binary);
    writeMethodResult(ss, result);
    const auto back = readMethodResult(ss);
    // Defaulted operator==: every statistic, per-region record and
    // cost bucket, doubles compared bitwise.
    EXPECT_EQ(back, result);
}

TEST(ResultIo, MeasuredTimingsRoundTripOutsideEquality)
{
    // Measured phase timings ride through serialization bit-exactly —
    // a cache hit replays the producing run's wall-clock — but they
    // are deliberately invisible to operator== (hotpath.hh), so two
    // results that differ only in timings still compare equal.
    const auto result = tinyResult();
    const auto &m = result.cost.measured();
    const auto replay =
        std::size_t(profiling::HotPhase::ExplorerReplay);
    ASSERT_GT(m.ns[replay], 0.0); // a real run measured something

    std::stringstream ss(std::ios::in | std::ios::out |
                         std::ios::binary);
    writeMethodResult(ss, result);
    const auto back = readMethodResult(ss);
    for (std::size_t p = 0; p < profiling::hot_phase_count; ++p) {
        EXPECT_EQ(back.cost.measured().ns[p], m.ns[p]);
        EXPECT_EQ(back.cost.measured().calls[p], m.calls[p]);
        EXPECT_EQ(back.cost.measured().items[p], m.items[p]);
    }

    auto other = result;
    other.cost.measured().note(profiling::HotPhase::Scout, 123.0, 1);
    EXPECT_EQ(other, result);
}

TEST(ResultIo, WindowCoverageFieldsRoundTrip)
{
    // The v3 window-coverage block must survive serialization exactly
    // and participate in equality (unlike the timing block).
    auto result = tinyResult();
    result.windows_total = 10;
    result.windows_replayed = 4;
    result.confidence = 99.7;
    result.ci_error = 0.0123456789012345678;
    std::stringstream ss(std::ios::in | std::ios::out |
                         std::ios::binary);
    writeMethodResult(ss, result);
    const auto back = readMethodResult(ss);
    EXPECT_EQ(back.windows_total, 10u);
    EXPECT_EQ(back.windows_replayed, 4u);
    EXPECT_EQ(back.confidence, 99.7);
    EXPECT_EQ(back.ci_error, 0.0123456789012345678);
    EXPECT_EQ(back, result);

    auto other = result;
    other.windows_replayed = 5;
    EXPECT_NE(other, result);
}

TEST(ResultIo, SizeCurveRoundTripIsExact)
{
    SizeCurve curve;
    curve.sizes = {1 * MiB, 2 * MiB, 4 * MiB};
    curve.mpki = {5.25, 3.125, 0.0078125};
    curve.cpi = {1.5, 1.25, 1.125};
    std::stringstream ss(std::ios::in | std::ios::out |
                         std::ios::binary);
    writeSizeCurve(ss, curve);
    EXPECT_EQ(readSizeCurve(ss), curve);
}

TEST(ResultIo, RejectsCorruptInput)
{
    const auto result = tinyResult();
    std::ostringstream os(std::ios::binary);
    writeMethodResult(os, result);
    const std::string good = os.str();

    const auto expectThrows = [](std::string bytes) {
        std::istringstream is(std::move(bytes), std::ios::binary);
        EXPECT_THROW((void)readMethodResult(is), BatchError);
    };

    expectThrows("");                            // empty
    expectThrows("DLRNTRC1" + good.substr(8));   // foreign magic
    expectThrows(good.substr(0, good.size() / 2)); // truncated
    expectThrows(good + "x");                    // trailing bytes

    std::string bad_version = good;
    bad_version[8] = char(0xee);
    expectThrows(bad_version);

    // A SizeCurve record is not a MethodResult (kind mismatch).
    SizeCurve curve;
    curve.sizes = {1};
    curve.mpki = {0.0};
    curve.cpi = {0.0};
    std::ostringstream cs(std::ios::binary);
    writeSizeCurve(cs, curve);
    expectThrows(cs.str());

    // And vice versa.
    std::istringstream is(good, std::ios::binary);
    EXPECT_THROW((void)readSizeCurve(is), BatchError);
}

// --------------------------------------------------------- result cache

TEST(ResultCache, StoreLoadContainsGc)
{
    TempPath dir("cache");
    const ResultCache cache(dir.path);
    const auto result = tinyResult();
    const CacheKey key = cellKey("bzip2", "delorean", tinyConfig());

    EXPECT_FALSE(cache.contains(key));
    EXPECT_FALSE(cache.load(key).has_value());

    cache.store(key, result);
    EXPECT_TRUE(cache.contains(key));
    EXPECT_EQ(*cache.load(key), result);
    ASSERT_EQ(cache.entries().size(), 1u);
    EXPECT_EQ(cache.entries()[0], key.hex());

    // gc keeps referenced entries, removes the rest.
    EXPECT_EQ(cache.gc({key.hex()}), 0u);
    EXPECT_EQ(cache.gc({}), 1u);
    EXPECT_FALSE(cache.contains(key));
}

TEST(ResultCache, CorruptEntryIsAMissNotAnError)
{
    TempPath dir("corrupt");
    const ResultCache cache(dir.path);
    const CacheKey key = cellKey("bzip2", "delorean", tinyConfig());
    writeFile(dir.path + "/" + key.hex() + ".res", "garbage bytes");

    EXPECT_TRUE(cache.contains(key));
    setLogQuiet(true);
    EXPECT_FALSE(cache.load(key).has_value());
    setLogQuiet(false);

    // The next store repairs the entry.
    const auto result = tinyResult();
    cache.store(key, result);
    EXPECT_EQ(*cache.load(key), result);

    // Torn writes: an entry cut at every byte offset, or grown by one
    // junk byte, is a miss through both loaders — never a throw, never
    // a wrong answer.
    const std::string entry = dir.path + "/" + key.hex() + ".res";
    const std::string good = *cache.loadBytes(key);
    const auto expectMiss = [&](const std::string &bytes,
                                const std::string &what) {
        writeFile(entry, bytes);
        setLogQuiet(true);
        EXPECT_NO_THROW({
            EXPECT_FALSE(cache.load(key).has_value()) << what;
            EXPECT_FALSE(cache.loadBytes(key).has_value()) << what;
        }) << what;
        setLogQuiet(false);
    };
    for (std::size_t cut = 0; cut < good.size(); ++cut)
        expectMiss(good.substr(0, cut), "cut at " + std::to_string(cut));
    expectMiss(good + 'x', "one junk byte appended");

    // A batch run over a torn entry re-executes the cell and repairs
    // the entry to exactly a fresh run's result.
    const BatchPlan plan({"bzip2"}, {{"tiny", tinyConfig()}},
                         {{"tiny", tinyConfig().schedule}}, {"delorean"});
    ASSERT_EQ(plan.cells().size(), 1u);
    ASSERT_EQ(plan.cells()[0].key, key);
    BatchOptions opt;
    opt.cache_dir = dir.path;
    for (const std::string &torn :
         {good.substr(0, good.size() / 2), good + 'x'}) {
        writeFile(entry, torn);
        setLogQuiet(true);
        const auto report = BatchRunner::run(plan, opt);
        setLogQuiet(false);
        EXPECT_EQ(report.executed, 1u);
        EXPECT_EQ(report.cache_hits, 0u);
        ASSERT_TRUE(cache.load(key).has_value());
        EXPECT_TRUE(cache.loadBytes(key).has_value());
        // operator== ignores the measured timings the bytes carry.
        EXPECT_EQ(*cache.load(key), result);
    }
}

TEST(ResultCache, RunStatsAccumulate)
{
    TempPath dir("stats");
    const ResultCache cache(dir.path);
    EXPECT_EQ(cache.stats(), ResultCache::RunStats{});

    cache.recordRun(5, 0);
    cache.recordRun(1, 4);
    const auto s = cache.stats();
    EXPECT_EQ(s.last_run_executed, 1u);
    EXPECT_EQ(s.last_run_cached, 4u);
    EXPECT_EQ(s.total_executed, 6u);
    EXPECT_EQ(s.total_cached, 4u);

    // Concurrent calls within one process (the daemon's drain loops
    // finishing jobs at once) must not lose increments to interleaved
    // read-modify-writes of stats.tsv.
    TempPath shared_dir("stats_mt");
    const ResultCache shared(shared_dir.path);
    constexpr int calls = 500;
    std::vector<std::thread> threads;
    for (int t = 0; t < 2; ++t)
        threads.emplace_back([&shared] {
            for (int i = 0; i < calls; ++i)
                shared.recordRun(1, 2);
        });
    for (auto &thread : threads)
        thread.join();
    const auto m = shared.stats();
    EXPECT_EQ(m.total_executed, 2u * calls);
    EXPECT_EQ(m.total_cached, 4u * calls);
}

TEST(ResultCache, MalformedStatsRowsWarnAndReadAsZeros)
{
    // Regression: stats() used stream extraction, which skips
    // whitespace — a truncated row pulled counters across the newline
    // and `batch_run status` printed shifted columns as real numbers.
    // Every malformed shape must warn and read as a fresh RunStats.
    TempPath dir("badstats");
    const ResultCache cache(dir.path);
    const std::string stats_path = dir.path + "/stats.tsv";
    const ResultCache::RunStats zeros;

    const char *bad[] = {
        "",                        // empty file
        "1\t2\t3\n",               // truncated row (3 fields)
        "1\t2\t3\t4\t5\n",         // too many fields
        "1\t2\tthree\t4\n",        // junk counter
        "1\t2\t-3\t4\n",           // negative would wrap via stoull
        "1 2 3 4\n",               // space-separated, not tabs
        "1\t2\t3\n9\t9\t9\t9\n",   // short row + spillover line
    };
    for (const char *text : bad) {
        writeFile(stats_path, text);
        setLogQuiet(true);
        const auto before = warnCount();
        EXPECT_EQ(cache.stats(), zeros) << "input: " << text;
        EXPECT_GT(warnCount(), before) << "input: " << text;
        setLogQuiet(false);
    }

    // A well-formed row still parses, and trailing junk after it
    // warns without discarding the valid counters.
    writeFile(stats_path, "1\t2\t3\t4\ngarbage\n");
    setLogQuiet(true);
    const auto s = cache.stats();
    setLogQuiet(false);
    EXPECT_EQ(s.last_run_executed, 1u);
    EXPECT_EQ(s.last_run_cached, 2u);
    EXPECT_EQ(s.total_executed, 3u);
    EXPECT_EQ(s.total_cached, 4u);
}

// ------------------------------------------------------------- manifest

TEST(Manifest, ExpandsCrossProductInDocumentedOrder)
{
    TempPath m("manifest");
    writeFile(m.path,
              "# comment\n"
              "workload bzip2\n"
              "workload mcf   # trailing comment\n"
              "config small llc=2MiB\n"
              "config big llc=8MiB prefetch=1\n"
              "schedule quick spacing=200000 regions=2\n"
              "methods smarts,delorean\n");
    const auto plan = BatchPlan::fromManifest(m.path);

    ASSERT_EQ(plan.cells().size(), 2u * 2u * 1u * 2u);
    const auto &cells = plan.cells();
    // workloads-major, then configs, then schedules, methods innermost.
    EXPECT_EQ(cells[0].workload, "bzip2");
    EXPECT_EQ(cells[0].config_name, "small");
    EXPECT_EQ(cells[0].method, "smarts");
    EXPECT_EQ(cells[1].method, "delorean");
    EXPECT_EQ(cells[2].config_name, "big");
    EXPECT_TRUE(cells[2].config.sim.prefetch);
    EXPECT_EQ(cells[4].workload, "mcf");

    for (const auto &cell : cells) {
        EXPECT_EQ(cell.index, std::size_t(&cell - cells.data()));
        EXPECT_EQ(cell.config.schedule.spacing, 200'000u);
        EXPECT_EQ(cell.config.schedule.num_regions, 2u);
        EXPECT_EQ(cell.schedule_name, "quick");
        // The plan shares one workload hash prefix across cells (file
        // digests read once); byte-wise it must equal cellKey().
        EXPECT_EQ(cell.key,
                  cellKey(cell.workload, cell.method, cell.config));
    }
    EXPECT_EQ(cells[0].config.hier.llc.size, 2 * MiB);
    EXPECT_EQ(cells[2].config.hier.llc.size, 8 * MiB);
}

TEST(Manifest, DefaultsConfigScheduleAndMethods)
{
    TempPath m("defaults");
    writeFile(m.path, "workload bzip2\n");
    const auto plan = BatchPlan::fromManifest(m.path);
    ASSERT_EQ(plan.cells().size(), 1u);
    EXPECT_EQ(plan.cells()[0].config_name, "default");
    EXPECT_EQ(plan.cells()[0].schedule_name, "default");
    EXPECT_EQ(plan.cells()[0].method, "delorean");
}

TEST(Manifest, EarlyStopConfigKeysParse)
{
    TempPath m("earlystop");
    writeFile(m.path,
              "workload bzip2\n"
              "config conf confidence=95 error=0.03 seed=7 "
              "minwindows=4 livepoints=/tmp/warm.dlvp\n"
              "schedule quick spacing=200000 regions=2\n");
    const auto plan = BatchPlan::fromManifest(m.path);
    ASSERT_EQ(plan.cells().size(), 1u);
    const auto &c = plan.cells()[0].config;
    EXPECT_EQ(c.confidence, 95.0);
    EXPECT_EQ(c.target_error, 0.03);
    EXPECT_EQ(c.window_seed, 7u);
    EXPECT_EQ(c.min_windows, 4u);
    EXPECT_EQ(c.livepoint_file, "/tmp/warm.dlvp");
}

TEST(Manifest, HashInsideAPathIsNotAComment)
{
    // '#' only starts a comment at a token boundary: a workload path
    // containing '#' must survive parsing intact.
    TempPath trace("has#hash"), m("hash_manifest");
    auto source = workload::makeSpecTrace("bzip2");
    workload::recordTrace(*source, 1000, trace.path);

    writeFile(m.path, "workload file:" + trace.path +
                          " # an actual comment\n");
    const auto plan = BatchPlan::fromManifest(m.path);
    ASSERT_EQ(plan.cells().size(), 1u);
    EXPECT_EQ(plan.cells()[0].workload, "file:" + trace.path);
}

TEST(Manifest, RejectsMalformedInput)
{
    const auto expectRejected = [](const std::string &text) {
        TempPath m("bad");
        writeFile(m.path, text);
        EXPECT_THROW((void)BatchPlan::fromManifest(m.path), BatchError)
            << "accepted: " << text;
    };

    expectRejected("");                            // no workloads
    expectRejected("frobnicate bzip2\n");          // unknown directive
    expectRejected("workload\n");                  // missing spec
    expectRejected("workload bzip2 extra\n");      // trailing token
    expectRejected("workload bzip2\n"
                   "methods delorean, smarts\n");  // space in the list
    expectRejected("workload bzip2\nconfig a llc=-2MiB\n"); // negative
    expectRejected("workload bzip2\n"                       // overflow
                   "config a llc=18446744073709551615K\n");
    expectRejected("workload bzip2\n"                 // u32 narrowing
                   "config a assoc=4294967298\n");
    expectRejected("workload bzip2\nconfig a assoc=0\n"); // geometry
    expectRejected("workload bzip2\nconfig a llc=63\n");
    expectRejected("workload bzip2\n"       // 3-way: non-pow2 sets
                   "config a llc=2MiB assoc=3\n");
    expectRejected("workload bzip2\n"
                   "schedule s spacing=500000 regions=4294967298\n");
    expectRejected("workload bzip2\n"
                   "schedule s spacing=-1 regions=2\n");
    expectRejected("workload bzip2\nconfig a llc=huge\n");
    expectRejected("workload bzip2\nconfig a wat=1\n");
    expectRejected("workload bzip2\nconfig a confidence=junk\n");
    expectRejected("workload bzip2\nconfig a confidence=-5\n");
    expectRejected("workload bzip2\nconfig a confidence=100\n");
    expectRejected("workload bzip2\nconfig a error=nan\n");
    expectRejected("workload bzip2\nconfig a error=0.03x\n");
    expectRejected("workload bzip2\nconfig a llc\n"); // not k=v
    expectRejected("workload bzip2\nconfig a llc=2MiB\n"
                   "config a llc=4MiB\n");         // duplicate name
    expectRejected("workload bzzip2\n");        // typo'd profile name
    expectRejected("workload warp:x\n");        // unknown scheme
    expectRejected("workload bzip2\nmethods warp9\n");
    expectRejected("workload bzip2\nmethods delorean\n"
                   "methods smarts\n");            // repeated directive
    expectRejected("workload bzip2\n"
                   "schedule s spacing=1000 regions=2\n"); // too tight
    EXPECT_THROW((void)BatchPlan::fromManifest("/nonexistent/manifest"),
                 BatchError);
}

// --------------------------------------------------------------- runner

TEST(Runner, InvalidShardRejected)
{
    const BatchPlan plan({"bzip2"}, {{"c", tinyConfig()}},
                         {{"s", tinyConfig().schedule}});
    BatchOptions opt;
    opt.use_cache = false;
    opt.shard_count = 0;
    EXPECT_THROW((void)BatchRunner::run(plan, opt), BatchError);
    opt.shard_count = 2;
    opt.shard_index = 2;
    EXPECT_THROW((void)BatchRunner::run(plan, opt), BatchError);
}

// The acceptance bar: a sharded batch_run over >= 3 workloads x 2
// configs is bit-identical (MethodResult::operator==) to direct
// serial DeloreanMethod::run calls, and a second invocation is served
// entirely from the persistent cache (0 cells executed).
TEST(Runner, ShardedAndCachedRunsMatchDirectBitwise)
{
    const std::vector<std::string> workloads = {"bzip2", "mcf",
                                                "gamess"};
    const BatchPlan plan(workloads,
                         {{"small", tinyConfig(2 * MiB)},
                          {"big", tinyConfig(8 * MiB)}},
                         {{"tiny", tinyConfig().schedule}},
                         {"delorean"});
    ASSERT_EQ(plan.cells().size(), 6u);

    // Direct serial reference, no batch machinery.
    std::vector<sampling::MethodResult> direct;
    for (const auto &cell : plan.cells())
        direct.push_back(BatchRunner::runCell(cell));

    TempPath dir("runner_cache");
    BatchOptions opt;
    opt.cache_dir = dir.path;
    opt.shard_count = 2;

    // Two shards of a cold cache partition the plan between them.
    opt.shard_index = 0;
    const auto shard0 = BatchRunner::run(plan, opt);
    opt.shard_index = 1;
    const auto shard1 = BatchRunner::run(plan, opt);
    EXPECT_EQ(shard0.executed, 3u);
    EXPECT_EQ(shard1.executed, 3u);
    EXPECT_EQ(shard0.cache_hits, 0u);
    EXPECT_EQ(shard0.skipped, 3u);

    std::vector<bool> covered(plan.cells().size(), false);
    for (const auto *report : {&shard0, &shard1}) {
        for (const auto &outcome : report->outcomes) {
            EXPECT_FALSE(covered[outcome.cell]) << "cell run twice";
            covered[outcome.cell] = true;
            EXPECT_EQ(outcome.result, direct[outcome.cell]);
            EXPECT_FALSE(outcome.from_cache);
        }
    }
    for (const auto c : covered)
        EXPECT_TRUE(c);

    // Second, unsharded invocation: everything from the cache, zero
    // cells executed, still bit-identical — including through the
    // threaded cell fan-out.
    BatchOptions warm;
    warm.cache_dir = dir.path;
    warm.threads = 3;
    const auto cached = BatchRunner::run(plan, warm);
    EXPECT_EQ(cached.executed, 0u);
    EXPECT_EQ(cached.cache_hits, plan.cells().size());
    ASSERT_EQ(cached.outcomes.size(), plan.cells().size());
    for (std::size_t i = 0; i < cached.outcomes.size(); ++i) {
        EXPECT_TRUE(cached.outcomes[i].from_cache);
        EXPECT_EQ(cached.outcomes[i].cell, i);
        EXPECT_EQ(cached.outcomes[i].result, direct[i]);
    }

    // The status counters expose exactly that.
    const auto stats = ResultCache(dir.path).stats();
    EXPECT_EQ(stats.last_run_executed, 0u);
    EXPECT_EQ(stats.last_run_cached, plan.cells().size());
    EXPECT_EQ(stats.total_executed, plan.cells().size());
}

TEST(Runner, RefusesToCacheFileRerecordedMidRun)
{
    TempPath trace("midrun"), dir("midrun_cache");
    auto source = workload::makeSpecTrace("bzip2");
    workload::recordTrace(*source, 450'000, trace.path);

    core::DeloreanConfig cfg = tinyConfig();
    const BatchPlan plan({"file:" + trace.path}, {{"c", cfg}},
                         {{"s", cfg.schedule}});

    // Between plan keying and execution, the file is re-recorded with
    // different content. Storing the fresh result under the stale key
    // would poison any future run whose file matches the old bytes;
    // the runner must refuse instead.
    auto other = workload::makeSpecTrace("mcf");
    workload::recordTrace(*other, 450'000, trace.path);

    BatchOptions opt;
    opt.cache_dir = dir.path;
    EXPECT_THROW((void)BatchRunner::run(plan, opt), BatchError);
    EXPECT_TRUE(ResultCache(dir.path).entries().empty());
}

TEST(Runner, RerecordGuardDigestsEachFileOncePerGuard)
{
    TempPath trace("guard");
    auto source = workload::makeSpecTrace("bzip2");
    workload::recordTrace(*source, 450'000, trace.path);

    core::DeloreanConfig cfg = tinyConfig();
    const BatchPlan plan({"file:" + trace.path, "bzip2"}, {{"c", cfg}},
                         {{"s", cfg.schedule}});
    ASSERT_EQ(plan.cells().size(), 2u);
    const BatchCell &file_cell = plan.cells()[0];
    const BatchCell &spec_cell = plan.cells()[1];
    ASSERT_EQ(file_cell.workload, "file:" + trace.path);

    RerecordGuard early;
    EXPECT_NO_THROW(early.check(file_cell));

    auto other = workload::makeSpecTrace("mcf");
    workload::recordTrace(*other, 450'000, trace.path);

    // A guard that first looks after the re-record refuses the stale
    // cell; a workload without a file is never refused.
    RerecordGuard late;
    EXPECT_THROW(late.check(file_cell), BatchError);
    EXPECT_NO_THROW(late.check(spec_cell));
    // The early guard digested the file once, before the re-record:
    // its check window closed then.
    EXPECT_NO_THROW(early.check(file_cell));
}

TEST(Runner, OneUnitPlanSpreadsItsWindowsBitIdentically)
{
    // One co-scheduled unit and four threads: the unit pool's idle
    // workers run the unit's windows. Results and cache entries equal
    // a threads=1 run's — the entries byte for byte once the measured
    // wall-clock timings (stored, but outside equality) are cleared.
    core::DeloreanConfig config = tinyConfig();
    config.schedule.num_regions = 4;
    core::DeloreanConfig big = config;
    big.hier.llc.size = 8 * MiB;
    const BatchPlan plan({"bzip2"}, {{"small", config}, {"big", big}},
                         {{"s", config.schedule}}, {"delorean"});
    ASSERT_EQ(plan.cells().size(), 2u);

    TempPath serial_dir("one_unit_t1"), spread_dir("one_unit_t4");
    BatchOptions opt;
    opt.cache_dir = serial_dir.path;
    const auto serial = BatchRunner::run(plan, opt);
    opt.cache_dir = spread_dir.path;
    opt.threads = 4;
    const auto spread = BatchRunner::run(plan, opt);

    const ResultCache serial_cache(serial_dir.path);
    const ResultCache spread_cache(spread_dir.path);
    const auto untimedBytes = [](const ResultCache &cache,
                                 const CacheKey &key) {
        auto result = cache.load(key);
        EXPECT_TRUE(result.has_value());
        if (!result)
            return std::string();
        result->cost.measured() = {};
        std::ostringstream os(std::ios::binary);
        writeMethodResult(os, *result);
        return os.str();
    };
    ASSERT_EQ(spread.executed, 2u);
    ASSERT_EQ(spread.outcomes.size(), serial.outcomes.size());
    for (std::size_t i = 0; i < plan.cells().size(); ++i) {
        const auto &key = plan.cells()[i].key;
        EXPECT_EQ(spread.outcomes[i].result, serial.outcomes[i].result);
        EXPECT_EQ(spread.outcomes[i].result,
                  BatchRunner::runCell(plan.cells()[i]));
        EXPECT_EQ(untimedBytes(spread_cache, key),
                  untimedBytes(serial_cache, key));
    }
}

TEST(ResultCache, GcReclaimsOrphanedTempFiles)
{
    TempPath dir("orphans");
    const ResultCache cache(dir.path);
    const CacheKey key = cellKey("bzip2", "delorean", tinyConfig());
    cache.store(key, tinyResult());
    // A writer killed before its rename leaves a temp file behind.
    writeFile(dir.path + "/" + key.hex() + ".res.tmp.12345.0", "x");

    EXPECT_EQ(cache.gc({key.hex()}), 1u); // orphan gone, entry kept
    EXPECT_TRUE(cache.contains(key));
    EXPECT_FALSE(std::filesystem::exists(
        dir.path + "/" + key.hex() + ".res.tmp.12345.0"));
}

// The re-submission contract, CLI path: the same manifest *content* —
// whether from the same file or a byte-identical copy at another path
// — expands to the same content keys, so a second BatchRunner::run
// executes zero cells and serves everything from the cache. (The
// batch service pins the same contract over its socket in
// tests/test_service.cc.)
TEST(Runner, SameManifestContentResubmittedExecutesZero)
{
    const std::string text = "workload bzip2\n"
                             "config c llc=2MiB\n"
                             "schedule s spacing=200000 regions=2\n"
                             "methods delorean\n";
    TempPath first("resub_a"), second("resub_b"), dir("resub_cache");
    writeFile(first.path, text);
    writeFile(second.path, text);

    BatchOptions opt;
    opt.cache_dir = dir.path;

    const auto cold =
        BatchRunner::run(BatchPlan::fromManifest(first.path), opt);
    EXPECT_EQ(cold.executed, 1u);
    EXPECT_EQ(cold.cache_hits, 0u);

    const auto warm =
        BatchRunner::run(BatchPlan::fromManifest(second.path), opt);
    EXPECT_EQ(warm.executed, 0u);
    EXPECT_EQ(warm.cache_hits, 1u);
    EXPECT_EQ(warm.outcomes[0].result, cold.outcomes[0].result);

    const auto stats = ResultCache(dir.path).stats();
    EXPECT_EQ(stats.last_run_executed, 0u);
    EXPECT_EQ(stats.last_run_cached, 1u);
}

TEST(Manifest, TextAndFileParsingAgree)
{
    const std::string text = "workload bzip2\n"
                             "config c llc=2MiB\n"
                             "schedule s spacing=200000 regions=2\n"
                             "methods smarts,delorean\n";
    TempPath m("text_vs_file");
    writeFile(m.path, text);

    const auto from_file = BatchPlan::fromManifest(m.path);
    const auto from_text = BatchPlan::fromManifestText(text, "inline");
    ASSERT_EQ(from_text.cells().size(), from_file.cells().size());
    for (std::size_t i = 0; i < from_text.cells().size(); ++i)
        EXPECT_EQ(from_text.cells()[i].key, from_file.cells()[i].key);

    // Diagnostics carry the caller's label instead of a path.
    try {
        (void)BatchPlan::fromManifestText("frobnicate\n", "submit#7");
        FAIL() << "malformed text accepted";
    } catch (const BatchError &e) {
        EXPECT_NE(std::string(e.what()).find("submit#7"),
                  std::string::npos);
    }
}

TEST(CacheKey, HexRoundTripAndRejects)
{
    const CacheKey key = cellKey("bzip2", "delorean", tinyConfig());
    EXPECT_EQ(CacheKey::fromHex(key.hex()), key);

    std::string upper = key.hex();
    for (auto &c : upper)
        c = char(std::toupper((unsigned char)c));
    EXPECT_EQ(CacheKey::fromHex(upper), key);

    EXPECT_THROW((void)CacheKey::fromHex(""), BatchError);
    EXPECT_THROW((void)CacheKey::fromHex("abc"), BatchError);
    EXPECT_THROW((void)CacheKey::fromHex(key.hex() + "0"), BatchError);
    std::string bad = key.hex();
    bad[7] = 'g';
    EXPECT_THROW((void)CacheKey::fromHex(bad), BatchError);
}

TEST(ResultCache, LoadBytesMatchesSerializationAndRejectsCorrupt)
{
    TempPath dir("loadbytes");
    const ResultCache cache(dir.path);
    const CacheKey key = cellKey("bzip2", "delorean", tinyConfig());
    EXPECT_FALSE(cache.loadBytes(key).has_value());

    const auto result = tinyResult();
    cache.store(key, result);
    std::ostringstream os(std::ios::binary);
    writeMethodResult(os, result);
    const auto bytes = cache.loadBytes(key);
    ASSERT_TRUE(bytes.has_value());
    EXPECT_EQ(*bytes, os.str()); // what the service streams to clients

    // Corruption is a validated miss, exactly like load().
    writeFile(dir.path + "/" + key.hex() + ".res", "garbage");
    setLogQuiet(true);
    EXPECT_FALSE(cache.loadBytes(key).has_value());
    setLogQuiet(false);
}

TEST(Runner, NoCacheModeWritesNothing)
{
    const BatchPlan plan({"bzip2"}, {{"c", tinyConfig()}},
                         {{"s", tinyConfig().schedule}});
    TempPath dir("nocache");
    BatchOptions opt;
    opt.use_cache = false;
    opt.cache_dir = dir.path;
    const auto report = BatchRunner::run(plan, opt);
    EXPECT_EQ(report.executed, 1u);
    EXPECT_FALSE(std::filesystem::exists(dir.path));
}

TEST(Runner, AllThreeMethodsRun)
{
    const BatchPlan plan({"bzip2"}, {{"c", tinyConfig()}},
                         {{"s", tinyConfig().schedule}},
                         {"smarts", "coolsim", "delorean"});
    BatchOptions opt;
    opt.use_cache = false;
    const auto report = BatchRunner::run(plan, opt);
    ASSERT_EQ(report.outcomes.size(), 3u);
    EXPECT_EQ(report.outcomes[0].result.method, "SMARTS");
    EXPECT_EQ(report.outcomes[1].result.method, "CoolSim");
    EXPECT_EQ(report.outcomes[2].result.method, "DeLorean");
}

// Co-scheduling is an execution strategy only: a plan whose cells
// share the trace and Explorer geometry runs them as one group (each
// window's reference stream decoded once, DeloreanMethod::runGroup),
// and every cell's result must stay bit-identical to a solo runCell.
TEST(Runner, CoScheduledGroupMatchesSoloBitwise)
{
    const BatchPlan plan({"mcf"},
                         {{"s", tinyConfig(1 * MiB)},
                          {"m", tinyConfig(2 * MiB)},
                          {"l", tinyConfig(4 * MiB)}},
                         {{"tiny", tinyConfig().schedule}},
                         {"delorean"});
    ASSERT_EQ(plan.cells().size(), 3u);

    std::vector<sampling::MethodResult> solo;
    for (const auto &cell : plan.cells())
        solo.push_back(BatchRunner::runCell(cell));

    BatchOptions opt;
    opt.use_cache = false;
    const auto report = BatchRunner::run(plan, opt);
    EXPECT_EQ(report.executed, 3u);
    ASSERT_EQ(report.outcomes.size(), 3u);
    for (std::size_t i = 0; i < report.outcomes.size(); ++i) {
        EXPECT_EQ(report.outcomes[i].cell, i);
        EXPECT_EQ(report.outcomes[i].result, solo[i]);
    }

    // The group-level entry point agrees too (the runner delegates to
    // it, but a direct call also covers the degenerate sizes).
    auto trace = workload::makeSpecTrace("mcf");
    std::vector<core::DeloreanConfig> configs;
    for (const auto &cell : plan.cells())
        configs.push_back(cell.config);
    const auto grouped = core::DeloreanMethod::runGroup(*trace, configs);
    ASSERT_EQ(grouped.size(), 3u);
    for (std::size_t i = 0; i < grouped.size(); ++i)
        EXPECT_EQ(grouped[i], solo[i]);
    EXPECT_TRUE(core::DeloreanMethod::runGroup(*trace, {}).empty());
    const auto single = core::DeloreanMethod::runGroup(
        *trace, {configs.front()});
    ASSERT_EQ(single.size(), 1u);
    EXPECT_EQ(single.front(), solo.front());
}

// A group member whose result is already cached must not change the
// others: the misses still co-schedule, outcomes scatter by position,
// and the cached cell is served verbatim.
TEST(Runner, PartialCacheHitStillCoSchedulesTheMisses)
{
    const BatchPlan plan({"bzip2"},
                         {{"s", tinyConfig(2 * MiB)},
                          {"m", tinyConfig(4 * MiB)},
                          {"l", tinyConfig(8 * MiB)}},
                         {{"tiny", tinyConfig().schedule}},
                         {"delorean"});
    ASSERT_EQ(plan.cells().size(), 3u);

    TempPath dir("cosched_cache");
    BatchOptions opt;
    opt.cache_dir = dir.path;

    // Pre-seed only the middle cell.
    {
        ResultCache cache(dir.path);
        cache.store(plan.cells()[1].key,
                    BatchRunner::runCell(plan.cells()[1]));
    }

    const auto report = BatchRunner::run(plan, opt);
    EXPECT_EQ(report.executed, 2u);
    EXPECT_EQ(report.cache_hits, 1u);
    ASSERT_EQ(report.outcomes.size(), 3u);
    EXPECT_TRUE(report.outcomes[1].from_cache);
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_EQ(report.outcomes[i].result,
                  BatchRunner::runCell(plan.cells()[i]));
}

} // namespace
