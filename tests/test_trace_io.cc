/**
 * @file
 * Tests for the trace ingestion subsystem: the on-disk format
 * (writer/reader round trip), the clone/skip/reset TraceSource
 * contract across synthetic and file-backed sources, corrupt-input
 * robustness, seek-speed skip, the ChampSim decoder, the trace-spec
 * registry, and the replay-equivalence guarantee (a recorded run is
 * bit-identical to its in-memory source through the full DeLorean
 * pipeline, serial and host-parallel).
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <vector>

#include "core/delorean.hh"
#include "workload/champsim_trace.hh"
#include "workload/endian.hh"
#include "workload/spec_profiles.hh"
#include "workload/trace_io.hh"
#include "workload/trace_registry.hh"

namespace
{

using namespace delorean;
using namespace delorean::workload;

// ------------------------------------------------------------- helpers

/** Unique temp file, removed on scope exit. */
struct TempFile
{
    std::string path;
    ::pid_t owner;

    explicit TempFile(const std::string &tag) : owner(::getpid())
    {
        static int counter = 0;
        const auto dir = std::filesystem::temp_directory_path();
        path = (dir / ("delorean_test_" + tag + "_" +
                       std::to_string(owner) + "_" +
                       std::to_string(counter++)))
                   .string();
    }

    ~TempFile()
    {
        // Death-test children exit() through static destructors; only
        // the process that created the file may remove it, or a fork
        // would delete the parent's shared fixtures.
        if (::getpid() != owner)
            return;
        std::error_code ec;
        std::filesystem::remove(path, ec);
    }
};

// Plain throwing I/O helpers (no gtest macros: they also run during
// static initialization of the parameterized-suite fixtures).

std::vector<std::uint8_t>
readBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("readBytes: cannot open " + path);
    return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                     std::istreambuf_iterator<char>());
}

void
writeBytes(const std::string &path, const std::vector<std::uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              std::streamsize(bytes.size()));
    if (!out)
        throw std::runtime_error("writeBytes: write failed on " + path);
}

bool
sameInst(const Instruction &a, const Instruction &b)
{
    return a == b; // Instruction::operator== is defaulted: all fields
}

/** Record @p n instructions of SPEC-like @p bench into @p path. */
void
recordSpec(const std::string &bench, InstCount n, const std::string &path)
{
    auto src = makeSpecTrace(bench);
    ASSERT_EQ(recordTrace(*src, n, path), n);
}

/** A small synthetic ChampSim input_instr file for the adapter tests. */
struct ChampSimRecord
{
    std::uint64_t ip = 0;
    bool is_branch = false;
    bool taken = false;
    std::uint64_t dest_mem[2] = {0, 0};
    std::uint64_t src_mem[4] = {0, 0, 0, 0};
};

void
writeChampSim(const std::string &path,
              const std::vector<ChampSimRecord> &records)
{
    std::vector<std::uint8_t> bytes(records.size() * 64, 0);
    for (std::size_t r = 0; r < records.size(); ++r) {
        const auto &rec = records[r];
        std::uint8_t *base = bytes.data() + r * 64;
        le::putU64(base + 0, rec.ip);
        base[8] = rec.is_branch;
        base[9] = rec.taken;
        for (int i = 0; i < 2; ++i)
            le::putU64(base + 16 + 8 * std::size_t(i), rec.dest_mem[i]);
        for (int i = 0; i < 4; ++i)
            le::putU64(base + 32 + 8 * std::size_t(i), rec.src_mem[i]);
    }
    writeBytes(path, bytes);
}

/** Deterministic pseudo-ChampSim workload big enough for contract
 *  tests: a few thousand records mixing loads/stores/branches. */
void
writeChampSimWorkload(const std::string &path, std::size_t n = 4000)
{
    std::vector<ChampSimRecord> recs(n);
    for (std::size_t i = 0; i < n; ++i) {
        auto &r = recs[i];
        r.ip = 0x400000 + 4 * i;
        switch (i % 5) {
          case 0:
            r.src_mem[0] = 0x10000000 + 64 * (i % 512);
            break;
          case 1:
            r.dest_mem[0] = 0x20000000 + 64 * (i % 256);
            break;
          case 2:
            r.is_branch = true;
            r.taken = i % 3 == 0;
            break;
          case 3:
            r.src_mem[0] = 0x10000000 + 64 * ((i * 7) % 512);
            r.src_mem[1] = 0x30000000 + 64 * (i % 128);
            break;
          default:
            break; // plain ALU
        }
    }
    writeChampSim(path, recs);
}

// --------------------------------------------------------- round trip

TEST(TraceIo, WriterReaderRoundTrip)
{
    TempFile f("roundtrip");
    auto src = makeSpecTrace("bzip2");
    std::vector<Instruction> golden;
    {
        TraceWriter writer(f.path, src->name());
        for (int i = 0; i < 5000; ++i) {
            const auto inst = src->next();
            golden.push_back(inst);
            writer.append(inst);
        }
        writer.finish();
    }

    TraceReader reader(f.path);
    EXPECT_EQ(reader.name(), "bzip2");
    ASSERT_EQ(reader.instCount(), 5000u);
    for (const auto &expect : golden) {
        const auto got = reader.next();
        ASSERT_TRUE(sameInst(got, expect));
    }
    EXPECT_THROW((void)reader.next(), TraceError);
}

TEST(TraceIo, RecordTraceMatchesSource)
{
    TempFile f("record");
    recordSpec("mcf", 3000, f.path);

    FileTrace file(f.path);
    EXPECT_EQ(file.name(), "mcf");
    EXPECT_EQ(file.instCount(), 3000u);
    auto mem = makeSpecTrace("mcf");
    for (int i = 0; i < 3000; ++i) {
        ASSERT_TRUE(sameInst(file.next(), mem->next())) << i;
    }
}

TEST(TraceIo, FailedRecordingLeavesNoFile)
{
    // A source that throws mid-recording must not leave a
    // valid-looking truncated trace behind.
    TempFile src("short_src");
    TempFile out("failed_out");
    recordSpec("bzip2", 100, src.path);
    FileTrace too_short(src.path);
    EXPECT_THROW(recordTrace(too_short, 1'000, out.path), TraceError);
    EXPECT_FALSE(std::filesystem::exists(out.path));
}

TEST(TraceIo, AllInstructionFieldsSurvive)
{
    // Exercise every field, including the ones synthetic bzip2 rarely
    // sets together.
    TempFile f("fields");
    std::vector<Instruction> insts;
    {
        Instruction i1;
        i1.type = InstType::Load;
        i1.pc = 0x1234;
        i1.addr = 0xdeadbeef;
        i1.dep_load = true;
        i1.latency = 4;
        Instruction i2;
        i2.type = InstType::Branch;
        i2.pc = ~Addr(0);
        i2.target = 0x42;
        i2.taken = true;
        Instruction i3; // all defaults
        insts = {i1, i2, i3};
        TraceWriter writer(f.path, "fields");
        for (const auto &inst : insts)
            writer.append(inst);
        writer.finish();
    }
    TraceReader reader(f.path);
    for (const auto &expect : insts)
        ASSERT_TRUE(sameInst(reader.next(), expect));
}

// ----------------------------------------------- clone/skip contract

struct SourceFactory
{
    std::string label;
    std::function<std::unique_ptr<TraceSource>()> make;
};

/**
 * The parameterized clone/skip/reset contract, run over every kind of
 * TraceSource. Factories hand out fresh, position-0 sources backed by
 * shared fixture files.
 */
class TraceContract : public ::testing::TestWithParam<SourceFactory>
{
  public:
    static std::vector<SourceFactory> factories();
};

std::vector<SourceFactory>
TraceContract::factories()
{
    // Fixture files live for the whole test binary.
    static const TempFile file_trace("contract_file");
    static const TempFile champsim_trace("contract_champsim");
    static bool initialized = false;
    if (!initialized) {
        initialized = true;
        auto src = makeSpecTrace("bzip2");
        recordTrace(*src, 30'000, file_trace.path);
        writeChampSimWorkload(champsim_trace.path);
    }

    return {
        {"synthetic",
         [] { return makeSpecTrace("bzip2"); }},
        {"file",
         [] { return std::make_unique<FileTrace>(file_trace.path); }},
        {"file_loop",
         [] {
             return std::make_unique<FileTrace>(file_trace.path, true);
         }},
        {"champsim",
         [] {
             return std::make_unique<ChampSimTrace>(champsim_trace.path);
         }},
    };
}

TEST_P(TraceContract, ClonesProduceIdenticalSuffixes)
{
    auto t = GetParam().make();
    t->skip(7'000);
    auto a = t->clone();
    auto b = t->clone();
    EXPECT_EQ(a->position(), t->position());
    EXPECT_EQ(b->position(), t->position());
    // Advance the clones in different interleavings; streams must agree
    // with each other and with the original.
    for (int i = 0; i < 5'000; ++i) {
        const auto x = a->next();
        const auto y = b->next();
        const auto z = t->next();
        ASSERT_TRUE(sameInst(x, y)) << i;
        ASSERT_TRUE(sameInst(x, z)) << i;
    }
}

TEST_P(TraceContract, CloneOfAdvancedCloneContinues)
{
    auto t = GetParam().make();
    t->skip(1'000);
    auto a = t->clone();
    a->skip(1'000);
    auto b = a->clone();
    EXPECT_EQ(b->position(), 2'000u);
    for (int i = 0; i < 2'000; ++i)
        ASSERT_TRUE(sameInst(a->next(), b->next())) << i;
}

TEST_P(TraceContract, SkipMatchesNext)
{
    for (const InstCount n : {InstCount(1), InstCount(63),
                              InstCount(4096), InstCount(17'321)}) {
        auto a = GetParam().make();
        auto b = GetParam().make();
        a->skip(n);
        for (InstCount i = 0; i < n; ++i)
            (void)b->next();
        ASSERT_EQ(a->position(), b->position()) << n;
        for (int i = 0; i < 100; ++i)
            ASSERT_TRUE(sameInst(a->next(), b->next())) << n;
    }
}

TEST_P(TraceContract, MemLinesMatchesNextFiltering)
{
    // memLines(n) must yield exactly the line() of each isMem() record
    // that n x next() would produce — in order — and leave the source
    // in the same state (the Explorer replay fast path's contract).
    for (const InstCount n : {InstCount(1), InstCount(63),
                              InstCount(4096), InstCount(17'321)}) {
        auto a = GetParam().make();
        auto b = GetParam().make();

        std::vector<Addr> got(std::size_t(n), 0);
        const InstCount m = a->memLines(got.data(), n);
        got.resize(std::size_t(m));

        std::vector<Addr> expect;
        for (InstCount i = 0; i < n; ++i) {
            const auto inst = b->next();
            if (inst.isMem())
                expect.push_back(inst.line());
        }
        ASSERT_EQ(got, expect) << n;
        ASSERT_EQ(a->position(), b->position()) << n;

        // State equivalence: both sources continue identically.
        for (int i = 0; i < 100; ++i)
            ASSERT_TRUE(sameInst(a->next(), b->next())) << n;
    }
}

TEST_P(TraceContract, ResetReproducesPrefix)
{
    auto t = GetParam().make();
    std::vector<Instruction> prefix;
    for (int i = 0; i < 3'000; ++i)
        prefix.push_back(t->next());
    t->skip(5'000);
    t->reset();
    EXPECT_EQ(t->position(), 0u);
    for (const auto &expect : prefix)
        ASSERT_TRUE(sameInst(t->next(), expect));
}

INSTANTIATE_TEST_SUITE_P(
    AllSources, TraceContract,
    ::testing::ValuesIn(TraceContract::factories()),
    [](const auto &info) { return info.param.label; });

// ------------------------------------------------------ seek-speed skip

TEST(FileTraceSkip, IsSeekSpeedNotDecodeSpeed)
{
    TempFile f("seekspeed");
    recordSpec("bzip2", 100'000, f.path);

    FileTrace t(f.path);
    t.skip(99'000);
    EXPECT_EQ(t.recordsDecoded(), 0u); // pure seek: nothing decoded
    (void)t.next();
    // One decode for the requested instruction — the chunked buffer
    // read is raw bytes, not decodes.
    EXPECT_EQ(t.recordsDecoded(), 1u);
    EXPECT_EQ(t.position(), 99'001u);
}

TEST(FileTraceSkip, CloneAfterDeepSkipDecodesNothing)
{
    TempFile f("deepclone");
    recordSpec("bzip2", 50'000, f.path);

    FileTrace t(f.path);
    t.skip(49'999);
    auto snap = t.clone();
    EXPECT_EQ(snap->position(), 49'999u);
    EXPECT_EQ(t.recordsDecoded(), 0u);
    ASSERT_TRUE(sameInst(snap->next(), t.next()));
}

TEST(FileTraceClone, ClonesKeepReadingTheFileTheOriginalOpened)
{
    // A recording replaced at its path while a cell runs: clones made
    // afterwards share the original's open file, so they read the first
    // recording — not the new file at the old header's data offset (a
    // longer profile name moves the records by two bytes).
    TempFile path("clone_replaced"), replacement("clone_replacement");
    const InstCount n = 20'000;
    recordSpec("bzip2", n, path.path);
    const FileTrace trace(path.path);
    recordSpec("omnetpp", n, replacement.path);
    std::filesystem::rename(replacement.path, path.path);

    auto reference = makeSpecTrace("bzip2");
    std::vector<Instruction> want;
    for (InstCount i = 0; i < n; ++i)
        want.push_back(reference->next());
    for (const InstCount at : {InstCount(0), InstCount(4'100), n - 100}) {
        auto clone = trace.clone();
        clone->skip(at);
        for (InstCount i = at; i < n; ++i)
            ASSERT_TRUE(sameInst(clone->next(), want[i])) << at << " " << i;
    }
    auto lines = trace.clone();
    std::vector<Addr> got(n);
    got.resize(lines->memLines(got.data(), n));
    std::vector<Addr> expected;
    for (const auto &inst : want)
        if (inst.isMem())
            expected.push_back(lineOf(inst.addr));
    EXPECT_EQ(got, expected);
}

TEST(FileTraceClone, ChampSimClonesKeepReadingTheFileTheOriginalOpened)
{
    TempFile path("cs_replaced"), copy("cs_reference"),
        replacement("cs_replacement");
    writeChampSimWorkload(path.path, 3'000);
    writeChampSimWorkload(copy.path, 3'000);
    const ChampSimTrace trace(path.path);
    const ChampSimTrace reference(copy.path);
    std::vector<ChampSimRecord> other(5'000);
    for (std::size_t i = 0; i < other.size(); ++i) {
        other[i].ip = 0x900000 + 8 * i;
        other[i].src_mem[0] = 0x50000000 + 64 * i;
    }
    writeChampSim(replacement.path, other);
    std::filesystem::rename(replacement.path, path.path);

    for (int round = 0; round < 3; ++round) {
        auto clone = trace.clone();
        auto want = reference.clone();
        for (int i = 0; i < 8'000; ++i) // wraps the 3,000 records
            ASSERT_TRUE(sameInst(clone->next(), want->next()))
                << round << " " << i;
    }
}

TEST(FileTraceSkip, OverrunThrows)
{
    TempFile f("overrun");
    recordSpec("bzip2", 1'000, f.path);

    FileTrace t(f.path);
    t.skip(1'000); // to the end: fine
    EXPECT_THROW((void)t.next(), TraceError);
    FileTrace u(f.path);
    EXPECT_THROW(u.skip(1'001), TraceError);
}

TEST(FileTraceMemLines, BulkDecodeCountsAndBounds)
{
    TempFile f("memlines");
    recordSpec("bzip2", 10'000, f.path);

    FileTrace t(f.path);
    std::vector<Addr> lines(10'000);
    const InstCount m = t.memLines(lines.data(), 10'000);
    EXPECT_GT(m, 0u);
    EXPECT_LT(m, 10'000u);
    EXPECT_EQ(t.position(), 10'000u);
    // Bulk decode counts every scanned record.
    EXPECT_EQ(t.recordsDecoded(), 10'000u);
    // Exhausted: one more instruction must throw, like next().
    EXPECT_THROW((void)t.memLines(lines.data(), 1), TraceError);

    // Looping wrap mid-batch equals the concatenated plain streams.
    FileTrace looped(f.path, true);
    FileTrace plain(f.path);
    std::vector<Addr> wrap(15'000), flat(15'000);
    const InstCount wm = looped.memLines(wrap.data(), 15'000);
    InstCount fm = plain.memLines(flat.data(), 10'000);
    plain.reset();
    fm += plain.memLines(flat.data() + fm, 5'000);
    ASSERT_EQ(wm, fm);
    wrap.resize(wm);
    flat.resize(fm);
    EXPECT_EQ(wrap, flat);
    EXPECT_EQ(looped.position(), 15'000u);
}

TEST(FileTraceMemLines, GarbageRecordThrowsAtExactIndex)
{
    TempFile f("memlines_garbage");
    recordSpec("bzip2", 100, f.path);
    auto bytes = readBytes(f.path);
    bytes[37 + 60 * 32 + 24] = 9; // record 60, bad type byte
    writeBytes(f.path, bytes);

    FileTrace t(f.path);
    std::vector<Addr> lines(100);
    try {
        (void)t.memLines(lines.data(), 100);
        FAIL() << "expected TraceError";
    } catch (const TraceError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "garbage record at index 60"),
                  std::string::npos)
            << e.what();
    }
}

TEST(FileTraceSkip, LoopWrapsModularly)
{
    TempFile f("loopwrap");
    recordSpec("bzip2", 1'000, f.path);

    FileTrace looped(f.path, true);
    FileTrace plain(f.path);
    looped.skip(2'500); // 2.5 laps
    plain.skip(500);
    EXPECT_EQ(looped.position(), 2'500u);
    for (int i = 0; i < 200; ++i)
        ASSERT_TRUE(sameInst(looped.next(), plain.next()));
}

// ------------------------------------------------------- corrupt input

class CorruptTrace : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        file_ = std::make_unique<TempFile>("corrupt");
        recordSpec("bzip2", 100, file_->path);
        bytes_ = readBytes(file_->path);
        // Header: 32 fixed bytes + 5 name bytes ("bzip2").
        ASSERT_EQ(bytes_.size(), 37u + 100u * 32u);
    }

    /** Write a mutated copy and expect TraceError mentioning @p hint. */
    void
    expectError(const std::vector<std::uint8_t> &bytes,
                const std::string &hint)
    {
        writeBytes(file_->path, bytes);
        try {
            TraceReader reader(file_->path);
            // Header errors throw on open; record garbage on decode.
            while (reader.position() < reader.instCount())
                (void)reader.next();
            FAIL() << "expected TraceError (" << hint << ")";
        } catch (const TraceError &e) {
            EXPECT_NE(std::string(e.what()).find(hint), std::string::npos)
                << e.what();
        }
    }

    std::unique_ptr<TempFile> file_;
    std::vector<std::uint8_t> bytes_;
};

TEST_F(CorruptTrace, MissingFile)
{
    EXPECT_THROW(TraceReader("/nonexistent/delorean.dlt"), TraceError);
    EXPECT_THROW(FileTrace("/nonexistent/delorean.dlt"), TraceError);
}

TEST_F(CorruptTrace, BadMagic)
{
    auto b = bytes_;
    b[0] = 'X';
    expectError(b, "bad magic");
}

TEST_F(CorruptTrace, WrongVersion)
{
    auto b = bytes_;
    b[8] = 99;
    expectError(b, "unsupported version 99");
}

TEST_F(CorruptTrace, WrongRecordSize)
{
    auto b = bytes_;
    b[12] = 16;
    expectError(b, "record size");
}

TEST_F(CorruptTrace, NonzeroReservedHeader)
{
    auto b = bytes_;
    b[24] = 1;
    expectError(b, "reserved");
}

TEST_F(CorruptTrace, TruncatedHeader)
{
    expectError({bytes_.begin(), bytes_.begin() + 20}, "truncated header");
}

TEST_F(CorruptTrace, TruncatedName)
{
    expectError({bytes_.begin(), bytes_.begin() + 34}, "truncated header");
}

TEST_F(CorruptTrace, OversizedNameLength)
{
    auto b = bytes_;
    b[28] = 0xff;
    b[29] = 0xff;
    b[30] = 0xff;
    expectError(b, "name length");
}

TEST_F(CorruptTrace, TruncatedPayload)
{
    expectError({bytes_.begin(), bytes_.end() - 48}, "truncated payload");
}

TEST_F(CorruptTrace, TrailingBytes)
{
    auto b = bytes_;
    b.push_back(0);
    expectError(b, "trailing bytes");
}

TEST_F(CorruptTrace, GarbageRecordType)
{
    auto b = bytes_;
    b[37 + 50 * 32 + 24] = 7; // record 50, type byte
    expectError(b, "garbage record at index 50");
}

TEST_F(CorruptTrace, GarbageRecordFlags)
{
    auto b = bytes_;
    b[37 + 10 * 32 + 25] = 0xf0; // record 10, undefined flag bits
    expectError(b, "garbage record at index 10");
}

TEST_F(CorruptTrace, GarbageRecordReservedBytes)
{
    auto b = bytes_;
    b[37 + 99 * 32 + 31] = 1; // last record, reserved tail byte
    expectError(b, "garbage record at index 99");
}

TEST(CorruptChampSim, DetectableDamageThrows)
{
    TempFile f("champ_corrupt");
    EXPECT_THROW(ChampSimTrace("/nonexistent/trace.champsim"),
                 TraceError);

    writeBytes(f.path, {});
    EXPECT_THROW(ChampSimTrace(f.path), TraceError);

    writeBytes(f.path, std::vector<std::uint8_t>(100, 0)); // not % 64
    EXPECT_THROW(ChampSimTrace(f.path), TraceError);
}

// --------------------------------------------------- ChampSim decoding

TEST(ChampSim, DecodesRecordsIntoInstructionStream)
{
    TempFile f("champ_decode");
    std::vector<ChampSimRecord> recs(4);
    // r0: load + store + taken branch in one instruction.
    recs[0].ip = 0x1000;
    recs[0].src_mem[1] = 0xa000; // slot order preserved
    recs[0].dest_mem[0] = 0xb000;
    recs[0].is_branch = true;
    recs[0].taken = true;
    // r1: not-taken branch.
    recs[1].ip = 0x2000;
    recs[1].is_branch = true;
    recs[1].taken = false;
    // r2: plain ALU.
    recs[2].ip = 0x2004;
    // r3: two loads.
    recs[3].ip = 0x3000;
    recs[3].src_mem[0] = 0xc000;
    recs[3].src_mem[2] = 0xd000;
    writeChampSim(f.path, recs);

    ChampSimTrace t(f.path);
    EXPECT_EQ(t.records(), 4u);

    auto i = t.next(); // r0 load
    EXPECT_EQ(i.type, InstType::Load);
    EXPECT_EQ(i.pc, 0x1000u);
    EXPECT_EQ(i.addr, 0xa000u);

    i = t.next(); // r0 store
    EXPECT_EQ(i.type, InstType::Store);
    EXPECT_EQ(i.addr, 0xb000u);

    i = t.next(); // r0 branch: target is the next record's ip
    EXPECT_EQ(i.type, InstType::Branch);
    EXPECT_TRUE(i.taken);
    EXPECT_EQ(i.target, 0x2000u);

    i = t.next(); // r1 branch, not taken: no target
    EXPECT_EQ(i.type, InstType::Branch);
    EXPECT_FALSE(i.taken);
    EXPECT_EQ(i.target, 0u);

    i = t.next(); // r2 ALU
    EXPECT_EQ(i.type, InstType::Other);
    EXPECT_EQ(i.pc, 0x2004u);

    i = t.next(); // r3 first load
    EXPECT_EQ(i.type, InstType::Load);
    EXPECT_EQ(i.addr, 0xc000u);
    i = t.next(); // r3 second load
    EXPECT_EQ(i.addr, 0xd000u);

    // Wrap-around: r3 is followed by r0 again; position keeps counting.
    EXPECT_EQ(t.position(), 7u);
    i = t.next();
    EXPECT_EQ(i.type, InstType::Load);
    EXPECT_EQ(i.pc, 0x1000u);
    EXPECT_EQ(t.position(), 8u);
}

TEST(ChampSim, TakenBranchAcrossWrapTargetsFirstIp)
{
    TempFile f("champ_wrapbr");
    std::vector<ChampSimRecord> recs(2);
    recs[0].ip = 0x5000;
    recs[1].ip = 0x6000;
    recs[1].is_branch = true;
    recs[1].taken = true;
    writeChampSim(f.path, recs);

    ChampSimTrace t(f.path);
    (void)t.next();
    const auto br = t.next();
    EXPECT_EQ(br.type, InstType::Branch);
    EXPECT_EQ(br.target, 0x5000u); // wraps to record 0
}

TEST(ChampSim, NameIsFileStem)
{
    TempFile f("champ_name");
    writeChampSimWorkload(f.path, 64);
    ChampSimTrace t(f.path);
    EXPECT_EQ(t.name(),
              std::filesystem::path(f.path).stem().string());
}

// ------------------------------------------------------------ registry

TEST(TraceRegistry, ResolvesAllSchemes)
{
    TempFile dlt("registry_dlt");
    TempFile champ("registry_champ");
    recordSpec("bzip2", 100, dlt.path);
    writeChampSimWorkload(champ.path, 64);

    EXPECT_EQ(makeTrace("bzip2")->name(), "bzip2");
    EXPECT_EQ(makeTrace("spec:mcf")->name(), "mcf");
    EXPECT_EQ(makeTrace("file:" + dlt.path)->name(), "bzip2");
    EXPECT_EQ(makeTrace("champsim:" + champ.path)->name(),
              std::filesystem::path(champ.path).stem().string());
}

TEST(TraceRegistry, BadFileSurfacesAsTraceError)
{
    EXPECT_THROW(makeTrace("file:/nonexistent/x.dlt"), TraceError);
    EXPECT_THROW(makeTrace("champsim:/nonexistent/x.trace"), TraceError);
}

TEST(TraceRegistryDeathTest, UnknownSchemeIsFatal)
{
    EXPECT_EXIT((void)makeTrace("gem5:/tmp/foo"),
                ::testing::ExitedWithCode(1), "unknown scheme 'gem5'");
}

// -------------------------------------------------- replay equivalence

/**
 * The PR's acceptance bar: a trace recorded from spec:bzip2 and
 * replayed through FileTrace yields a MethodResult bit-identical
 * (operator==, doubles compared exactly) to the in-memory run, in both
 * serial and host-parallel modes — the file-backed "KVM checkpoint"
 * semantics hold through the full warmup -> analyze pipeline. The
 * integer statistics are additionally pinned to the golden values of
 * test_core.cc (Delorean.GoldenBzip2QuickSchedule) so drift in either
 * path is caught even if both drift together.
 */
TEST(ReplayEquivalence, FileBackedBzip2MatchesInMemoryBitExactly)
{
    core::DeloreanConfig cfg;
    cfg.schedule.num_regions = 3;
    cfg.schedule.spacing = 500'000;
    cfg.hier.llc.size = 2 * MiB;

    TempFile f("replay");
    recordSpec("bzip2", cfg.schedule.totalInstructions(), f.path);

    auto mem = makeSpecTrace("bzip2");
    const auto golden = core::DeloreanMethod::run(*mem, cfg);

    FileTrace file(f.path);
    const auto replay = core::DeloreanMethod::run(file, cfg);
    EXPECT_TRUE(replay == golden);

    cfg.host_threads = 3;
    const auto parallel_replay = core::DeloreanMethod::run(file, cfg);
    EXPECT_TRUE(parallel_replay == golden);

    // Golden pins from test_core.cc.
    EXPECT_EQ(replay.keys_total, 1789u);
    EXPECT_EQ(replay.keys_explored, 635u);
    EXPECT_EQ(replay.keys_unresolved, 100u);
    EXPECT_EQ(replay.traps, 35211u);
    EXPECT_EQ(replay.reuse_samples, 1131u);
}

} // namespace
