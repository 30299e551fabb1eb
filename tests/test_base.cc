/**
 * @file
 * Unit tests for the base utilities: integer math, addresses, RNG,
 * histograms, the stats package, and the XXH64 digest.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "base/addr.hh"
#include "base/fastdiv.hh"
#include "base/flat_hash.hh"
#include "base/histogram.hh"
#include "base/intmath.hh"
#include "base/logging.hh"
#include "base/random.hh"
#include "base/stats.hh"
#include "base/units.hh"
#include "base/xxh64.hh"

namespace
{

using namespace delorean;

// ------------------------------------------------------------- intmath

TEST(IntMath, PowerOfTwo)
{
    EXPECT_TRUE(isPowerOf2(1ull));
    EXPECT_TRUE(isPowerOf2(2ull));
    EXPECT_TRUE(isPowerOf2(4096ull));
    EXPECT_FALSE(isPowerOf2(0ull));
    EXPECT_FALSE(isPowerOf2(3ull));
    EXPECT_FALSE(isPowerOf2(4097ull));
}

TEST(IntMath, FloorCeilLog2)
{
    EXPECT_EQ(floorLog2(1ull), 0);
    EXPECT_EQ(floorLog2(2ull), 1);
    EXPECT_EQ(floorLog2(3ull), 1);
    EXPECT_EQ(floorLog2(4ull), 2);
    EXPECT_EQ(ceilLog2(1ull), 0);
    EXPECT_EQ(ceilLog2(3ull), 2);
    EXPECT_EQ(ceilLog2(4ull), 2);
    EXPECT_EQ(ceilLog2(5ull), 3);
}

TEST(IntMath, DivCeilAndRounding)
{
    EXPECT_EQ(divCeil(10ull, 3ull), 4ull);
    EXPECT_EQ(divCeil(9ull, 3ull), 3ull);
    EXPECT_EQ(roundUp<std::uint64_t>(5, 4), 8ull);
    EXPECT_EQ(roundUp<std::uint64_t>(8, 4), 8ull);
    EXPECT_EQ(roundDown<std::uint64_t>(5, 4), 4ull);
}

// ---------------------------------------------------------------- addr

TEST(Addr, LineAndPageExtraction)
{
    EXPECT_EQ(lineOf(0), 0ull);
    EXPECT_EQ(lineOf(63), 0ull);
    EXPECT_EQ(lineOf(64), 1ull);
    EXPECT_EQ(lineAddr(2), 128ull);
    EXPECT_EQ(pageOf(4095), 0ull);
    EXPECT_EQ(pageOf(4096), 1ull);
    EXPECT_EQ(lines_per_page, 64ull);
}

TEST(Addr, PageOfLineConsistency)
{
    for (Addr a : {0ull, 63ull, 64ull, 4095ull, 4096ull, 123456789ull})
        EXPECT_EQ(pageOfLine(lineOf(a)), pageOf(a)) << a;
}

// ----------------------------------------------------------------- rng

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    bool differ = false;
    for (int i = 0; i < 16 && !differ; ++i)
        differ = a.next() != b.next();
    EXPECT_TRUE(differ);
}

TEST(Rng, CopySnapshotsStream)
{
    Rng a(7);
    a.next();
    Rng snapshot = a;
    const auto x = a.next();
    EXPECT_EQ(snapshot.next(), x);
}

TEST(Rng, BoundedRange)
{
    Rng r(3);
    for (int i = 0; i < 1000; ++i) {
        const auto v = r.nextBounded(17);
        EXPECT_LT(v, 17ull);
    }
    for (int i = 0; i < 1000; ++i) {
        const auto v = r.nextRange(5, 9);
        EXPECT_GE(v, 5ull);
        EXPECT_LE(v, 9ull);
    }
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng r(11);
    for (int i = 0; i < 1000; ++i) {
        const double d = r.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, GeometricMeanNearPeriod)
{
    Rng r(5);
    const std::uint64_t period = 100;
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += double(r.nextGeometric(period));
    const double mean = sum / n;
    EXPECT_NEAR(mean, double(period), 5.0);
}

TEST(Rng, GeometricPeriodOne)
{
    Rng r(5);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(r.nextGeometric(1), 1ull);
}

TEST(Rng, ChanceExtremes)
{
    Rng r(9);
    for (int i = 0; i < 50; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

// ----------------------------------------------------------- histogram

TEST(LogHistogram, SmallValuesExact)
{
    LogHistogram h(8);
    for (std::uint64_t v = 0; v < 8; ++v)
        h.add(v);
    EXPECT_DOUBLE_EQ(h.totalWeight(), 8.0);
    const auto buckets = h.buckets();
    ASSERT_EQ(buckets.size(), 8u);
    for (std::uint64_t v = 0; v < 8; ++v) {
        EXPECT_EQ(buckets[v].low, v);
        EXPECT_EQ(buckets[v].high, v + 1);
        EXPECT_DOUBLE_EQ(buckets[v].weight, 1.0);
    }
}

TEST(LogHistogram, BucketsCoverValue)
{
    LogHistogram h(8);
    for (std::uint64_t v :
         {0ull, 1ull, 7ull, 8ull, 100ull, 12345ull, 1ull << 40}) {
        h.clear();
        h.add(v);
        const auto buckets = h.buckets();
        ASSERT_EQ(buckets.size(), 1u) << v;
        EXPECT_LE(buckets[0].low, v) << v;
        EXPECT_GT(buckets[0].high, v) << v;
    }
}

TEST(LogHistogram, CdfMonotone)
{
    LogHistogram h(8);
    Rng r(1);
    for (int i = 0; i < 1000; ++i)
        h.add(r.nextBounded(1'000'000));
    double prev = 0.0;
    for (std::uint64_t x = 1; x < 1'000'000; x *= 3) {
        const double c = h.cdf(x);
        EXPECT_GE(c, prev);
        prev = c;
    }
    EXPECT_NEAR(h.cdf(2'000'000), 1.0, 1e-12);
}

TEST(LogHistogram, WeightedSamples)
{
    LogHistogram h(8);
    h.add(10, 3.0);
    h.add(1000, 1.0);
    EXPECT_DOUBLE_EQ(h.totalWeight(), 4.0);
    EXPECT_NEAR(h.cdf(100), 0.75, 1e-12);
}

TEST(LogHistogram, MergeAddsWeights)
{
    LogHistogram a(8), b(8);
    a.add(5);
    b.add(5);
    b.add(500);
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.totalWeight(), 3.0);
    EXPECT_NEAR(a.cdf(5), 2.0 / 3.0, 1e-12);
}

TEST(LogHistogram, QuantileInverseOfCdf)
{
    LogHistogram h(8);
    for (std::uint64_t v = 0; v < 1000; ++v)
        h.add(v);
    const auto median = h.quantile(0.5);
    EXPECT_NEAR(double(median), 500.0, 16.0);
}

TEST(LogHistogram, MeanOfConstant)
{
    LogHistogram h(8);
    for (int i = 0; i < 10; ++i)
        h.add(4);
    EXPECT_NEAR(h.mean(), 4.5, 0.51); // bucket midpoint of [4,5)
}

TEST(LogHistogram, RelativeResolutionBounded)
{
    // Bucket width must stay within 1/sub_buckets of the value.
    LogHistogram h(8);
    for (std::uint64_t v : {100ull, 10'000ull, 1'000'000ull, 1ull << 50}) {
        h.clear();
        h.add(v);
        const auto b = h.buckets().at(0);
        EXPECT_LE(double(b.high - b.low), double(v) / 8.0 + 1.0) << v;
    }
}

// --------------------------------------------------------------- stats

TEST(Stats, ScalarAndAverage)
{
    statistics::Scalar s("count", "a counter");
    ++s;
    s += 2.0;
    EXPECT_DOUBLE_EQ(s.value(), 3.0);

    statistics::Average a("avg", "an average");
    a.sample(2.0);
    a.sample(4.0);
    EXPECT_DOUBLE_EQ(a.value(), 3.0);
    EXPECT_EQ(a.count(), 2ull);
}

TEST(Stats, GroupDumpContainsNamesAndDescs)
{
    statistics::StatGroup g("core");
    statistics::Scalar s("hits", "cache hits");
    s += 7;
    g.add(&s);
    std::ostringstream os;
    g.dump(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("core.hits"), std::string::npos);
    EXPECT_NE(out.find("cache hits"), std::string::npos);
    EXPECT_NE(out.find("7"), std::string::npos);
}

TEST(Stats, ResetAll)
{
    statistics::StatGroup g("x");
    statistics::Scalar s("v", "");
    s += 5;
    g.add(&s);
    g.resetAll();
    EXPECT_DOUBLE_EQ(s.value(), 0.0);
}

// ----------------------------------------------------------- flat hash

TEST(FlatAddrMap, BasicInsertFindErase)
{
    FlatAddrMap<int> m;
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.find(42), nullptr);
    EXPECT_FALSE(m.erase(42));

    EXPECT_TRUE(m.emplace(42, 7).second);
    EXPECT_FALSE(m.emplace(42, 9).second); // try_emplace semantics
    ASSERT_NE(m.find(42), nullptr);
    EXPECT_EQ(*m.find(42), 7);
    EXPECT_EQ(m.size(), 1u);

    *m.find(42) = 11;
    EXPECT_EQ(*m.find(42), 11);

    EXPECT_TRUE(m.erase(42));
    EXPECT_EQ(m.find(42), nullptr);
    EXPECT_TRUE(m.empty());
}

TEST(FlatAddrMap, ClusteringKeysSurviveBackwardShiftErase)
{
    // Sequential keys (cacheline numbers of a hot array) exercise the
    // probe-chain repair of backward-shift deletion.
    FlatAddrMap<Addr> m;
    for (Addr k = 1000; k < 1512; ++k)
        m.emplace(k, k * 3);
    for (Addr k = 1000; k < 1512; k += 2)
        EXPECT_TRUE(m.erase(k));
    for (Addr k = 1000; k < 1512; ++k) {
        const Addr *v = m.find(k);
        if (k % 2 == 0) {
            EXPECT_EQ(v, nullptr) << k;
        } else {
            ASSERT_NE(v, nullptr) << k;
            EXPECT_EQ(*v, k * 3);
        }
    }
}

// Randomized bit-identity against the reference unordered_map: every
// operation's outcome and the final contents must agree exactly. This
// is the contract that lets the profiling hot paths swap their
// unordered_maps for the flat table without any behaviour change.
TEST(FlatAddrMap, RandomizedOpsMatchUnorderedMapReference)
{
    Rng rng(0xf1a7);
    FlatAddrMap<std::uint64_t> flat;
    std::unordered_map<Addr, std::uint64_t> ref;

    for (int op = 0; op < 200'000; ++op) {
        // Narrow key space so inserts, hits, and erases all happen.
        const Addr key = rng.nextBounded(4096) * 64;
        const int kind = int(rng.nextBounded(4));
        if (kind == 0) {
            const auto [slot, inserted] = flat.emplace(key, Addr(op));
            const auto [it, ref_inserted] =
                ref.try_emplace(key, Addr(op));
            EXPECT_EQ(inserted, ref_inserted);
            EXPECT_EQ(*slot, it->second);
        } else if (kind == 1) {
            std::uint64_t *v = flat.find(key);
            const auto it = ref.find(key);
            ASSERT_EQ(v != nullptr, it != ref.end());
            if (v) {
                EXPECT_EQ(*v, it->second);
                *v = Addr(op);
                it->second = Addr(op);
            }
        } else if (kind == 2) {
            EXPECT_EQ(flat.erase(key), ref.erase(key) == 1);
        } else {
            EXPECT_EQ(flat.contains(key), ref.count(key) == 1);
        }
        ASSERT_EQ(flat.size(), ref.size());
    }

    // Final contents identical (order-independent comparison).
    std::map<Addr, std::uint64_t> flat_sorted, ref_sorted(ref.begin(),
                                                          ref.end());
    flat.forEach([&](Addr k, std::uint64_t v) { flat_sorted[k] = v; });
    EXPECT_EQ(flat_sorted, ref_sorted);
}

TEST(LogHistogram, NextNonEmptyWalksBitmap)
{
    LogHistogram h;
    EXPECT_EQ(h.nextNonEmpty(0), LogHistogram::npos);

    h.add(3);
    h.add(1000);
    h.add(1'000'000);

    std::vector<std::uint64_t> lows;
    for (std::size_t i = h.nextNonEmpty(0); i != LogHistogram::npos;
         i = h.nextNonEmpty(i + 1))
        lows.push_back(h.bucketAt(i).low);

    const auto buckets = h.buckets();
    ASSERT_EQ(lows.size(), buckets.size());
    for (std::size_t i = 0; i < lows.size(); ++i)
        EXPECT_EQ(lows[i], buckets[i].low);
    EXPECT_EQ(h.nonEmptyBuckets(), buckets.size());
}

// ------------------------------------------------------------- logging

TEST(Logging, WarnCountsAndQuiet)
{
    setLogQuiet(true);
    const auto before = warnCount();
    warn("expected test warning %d", 1);
    EXPECT_EQ(warnCount(), before + 1);
    setLogQuiet(false);
}

// ------------------------------------------------------------- fastdiv

// FastDiv is a drop-in for `/` and `%` by an invariant divisor — the
// synthetic trace generator's draw streams are bit-identical only if
// it is *exact* for every (n, d). Sweep adversarial divisors (1,
// powers of two +-1, extremes) with adversarial and random numerators
// against the hardware operators.
TEST(FastDiv, AdversarialAndRandomPairsMatchHardware)
{
    std::vector<std::uint64_t> divisors = {
        1,
        2,
        3,
        5,
        7,
        10,
        63,
        64,
        65,
        (std::uint64_t(1) << 32) - 1,
        std::uint64_t(1) << 32,
        (std::uint64_t(1) << 32) + 1,
        (std::uint64_t(1) << 63) - 1,
        std::uint64_t(1) << 63,
        ~std::uint64_t(0) - 1,
        ~std::uint64_t(0),
    };
    Rng rng(0xfa57d1);
    for (int i = 0; i < 64; ++i)
        divisors.push_back(1 + rng.next() % 1'000'000);
    for (int i = 0; i < 64; ++i)
        divisors.push_back(std::max<std::uint64_t>(1, rng.next()));

    for (const std::uint64_t d : divisors) {
        const FastDiv fd(d);
        EXPECT_EQ(fd.divisor(), d);
        EXPECT_EQ(fd.negMod(), (std::uint64_t(0) - d) % d);
        std::vector<std::uint64_t> numerators = {
            0, 1, d - 1, d, d + 1, 2 * d - 1, 2 * d,
            ~std::uint64_t(0), ~std::uint64_t(0) - 1,
        };
        for (int i = 0; i < 64; ++i)
            numerators.push_back(rng.next());
        for (const std::uint64_t n : numerators) {
            ASSERT_EQ(fd.div(n), n / d) << "n=" << n << " d=" << d;
            ASSERT_EQ(fd.mod(n), n % d) << "n=" << n << " d=" << d;
        }
    }
}

// The overload must consume the identical RNG stream and return the
// identical values as the plain bounded draw.
TEST(FastDiv, RngBoundedOverloadMatchesPlainDraw)
{
    for (const std::uint64_t bound :
         {std::uint64_t(1), std::uint64_t(3), std::uint64_t(64),
          std::uint64_t(12345), (std::uint64_t(1) << 40) + 9}) {
        Rng a(0x5eed), b(0x5eed);
        const FastDiv fd(bound);
        for (int i = 0; i < 2000; ++i)
            ASSERT_EQ(a.nextBounded(bound), b.nextBounded(fd))
                << "bound=" << bound << " draw " << i;
    }
}

// ---------------------------------------------------------------- xxh64

/** Deterministic test input: byte i is (131 i + 7) mod 256. */
std::vector<std::uint8_t>
xxhPattern(std::size_t n)
{
    std::vector<std::uint8_t> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = std::uint8_t(i * 131 + 7);
    return v;
}

// Reference vectors. The two unseeded ones are the published XXH64
// values; the rest were produced by the reference implementation
// (libxxhash 0.8.1, XXH64(pattern, n, seed)) with xxhPattern inputs
// whose lengths walk every tail branch: the 1-byte loop, the 4-byte
// step, the 8-byte loop, and the 32-byte stripes before them.
TEST(Xxh64, MatchesReferenceVectors)
{
    EXPECT_EQ(xxh64("", 0), 0xef46db3751d8e999ull);
    EXPECT_EQ(xxh64(nullptr, 0), 0xef46db3751d8e999ull);
    EXPECT_EQ(xxh64("abc", 3), 0x44bc2cf5ad770999ull);

    struct Vector
    {
        std::size_t len;
        std::uint64_t seed;
        std::uint64_t digest;
    };
    const Vector vectors[] = {
        {1, 0x1ull, 0x0766883a0a47a96aull},
        {4, 0x9e3779b97f4a7c15ull, 0xa65107f22943365aull},
        {7, 0xcbf29ce484222325ull, 0x6503ae631c8aa55dull},
        {8, 0x1ull, 0xc14d78e582fe5026ull},
        {12, 0x9e3779b97f4a7c15ull, 0xbc37a5ae43141b1aull},
        {31, 0xcbf29ce484222325ull, 0x0da669c1174cf6f3ull},
        {32, 0x1ull, 0xdf4f0f6ea84ebbcaull},
        {33, 0x9e3779b97f4a7c15ull, 0xd7fe2bfee6e4cdedull},
        {45, 0xcbf29ce484222325ull, 0xf5c8078babfa4d1eull},
        {100, 0x1ull, 0xe6a0d25e6e0a7f2aull},
    };
    for (const auto &v : vectors) {
        const auto bytes = xxhPattern(v.len);
        EXPECT_EQ(xxh64(bytes.data(), bytes.size(), v.seed), v.digest)
            << "len=" << v.len;
    }
}

// A digest must not depend on how its input was split into update()
// calls, including chunks that straddle the 32-byte stripe buffer and
// the 64 KiB reads of a file digest; each seed of a pair digests
// exactly like a lone XXH64 under that seed.
TEST(Xxh64, UnevenChunksMatchOneShot)
{
    const auto bytes = xxhPattern(200'003);
    const std::uint64_t seed_hi = 0xcbf29ce484222325ull;
    const std::uint64_t seed_lo = 0x9e3779b97f4a7c15ull;
    // libxxhash 0.8.1 on the same input.
    const std::uint64_t want_hi = 0xc2cb61fc9d85cfedull;
    const std::uint64_t want_lo = 0x6609ff579bbc16e0ull;
    EXPECT_EQ(xxh64(bytes.data(), bytes.size(), seed_hi), want_hi);
    EXPECT_EQ(xxh64(bytes.data(), bytes.size(), seed_lo), want_lo);

    for (const std::size_t chunk :
         {std::size_t(1), std::size_t(7), std::size_t(31), std::size_t(33),
          std::size_t(65535), std::size_t(65537)}) {
        Xxh64Pair pair({seed_hi, seed_lo});
        for (std::size_t off = 0; off < bytes.size(); off += chunk)
            pair.update(bytes.data() + off,
                        std::min(chunk, bytes.size() - off));
        const auto [hi, lo] = pair.digest();
        EXPECT_EQ(hi, want_hi) << "chunk=" << chunk;
        EXPECT_EQ(lo, want_lo) << "chunk=" << chunk;
    }
}

} // namespace
