#include "checkpoint/livepoint.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <utility>

#include "base/intmath.hh"
#include "core/session.hh"
#include "workload/endian.hh"
#include "workload/trace_registry.hh"

namespace delorean::checkpoint
{

namespace
{

namespace le = workload::le;

// Caps no legitimate live-point approaches; a reader hitting one is
// looking at garbage and must not attempt a huge allocation.
constexpr std::uint32_t max_string = 1u << 16;
constexpr std::uint32_t max_count = 1u << 24;
constexpr std::uint32_t max_sub_buckets = 1u << 16;

void
putBytes(std::ostream &os, const void *data, std::size_t n)
{
    os.write(static_cast<const char *>(data), std::streamsize(n));
    if (!os)
        throw CheckpointError("live-point write failed");
}

void
putU8(std::ostream &os, std::uint8_t v)
{
    putBytes(os, &v, 1);
}

void
putU32(std::ostream &os, std::uint32_t v)
{
    std::uint8_t b[4];
    le::putU32(b, v);
    putBytes(os, b, 4);
}

void
putU64(std::ostream &os, std::uint64_t v)
{
    std::uint8_t b[8];
    le::putU64(b, v);
    putBytes(os, b, 8);
}

void
putF64(std::ostream &os, double v)
{
    putU64(os, std::bit_cast<std::uint64_t>(v));
}

void
putStr(std::ostream &os, const std::string &s)
{
    if (s.size() > max_string)
        throw CheckpointError("live-point write: string too long");
    putU32(os, std::uint32_t(s.size()));
    putBytes(os, s.data(), s.size());
}

void
getBytes(std::istream &is, void *data, std::size_t n)
{
    is.read(static_cast<char *>(data), std::streamsize(n));
    if (std::size_t(is.gcount()) != n)
        throw CheckpointError("live-point file truncated");
}

std::uint8_t
getU8(std::istream &is)
{
    std::uint8_t v;
    getBytes(is, &v, 1);
    return v;
}

std::uint32_t
getU32(std::istream &is)
{
    std::uint8_t b[4];
    getBytes(is, b, 4);
    return le::getU32(b);
}

std::uint64_t
getU64(std::istream &is)
{
    std::uint8_t b[8];
    getBytes(is, b, 8);
    return le::getU64(b);
}

double
getF64(std::istream &is)
{
    return std::bit_cast<double>(getU64(is));
}

std::string
getStr(std::istream &is)
{
    const std::uint32_t len = getU32(is);
    if (len > max_string)
        throw CheckpointError(
            "live-point file: implausible string length");
    std::string s(len, '\0');
    getBytes(is, s.data(), len);
    return s;
}

void
putHistogram(std::ostream &os, const LogHistogram &hist)
{
    const auto snap = hist.snapshot();
    putU32(os, snap.sub_buckets);
    putF64(os, snap.total_weight);
    if (snap.cells.size() > max_count)
        throw CheckpointError("live-point write: histogram too large");
    putU32(os, std::uint32_t(snap.cells.size()));
    for (const auto &[idx, weight] : snap.cells) {
        putU64(os, idx);
        putF64(os, weight);
    }
}

LogHistogram
getHistogram(std::istream &is)
{
    LogHistogram::Snapshot snap;
    snap.sub_buckets = getU32(is);
    if (snap.sub_buckets == 0 || snap.sub_buckets > max_sub_buckets ||
        !isPowerOf2(std::uint64_t(snap.sub_buckets)))
        throw CheckpointError(
            "live-point file: invalid histogram layout");
    snap.total_weight = getF64(is);
    if (!std::isfinite(snap.total_weight) || snap.total_weight < 0.0)
        throw CheckpointError(
            "live-point file: invalid histogram total weight");
    const std::uint32_t cells = getU32(is);
    if (cells > max_count)
        throw CheckpointError(
            "live-point file: implausible histogram cell count");
    snap.cells.reserve(cells);
    std::uint64_t prev_idx = 0;
    for (std::uint32_t i = 0; i < cells; ++i) {
        const std::uint64_t idx = getU64(is);
        if (i > 0 && idx <= prev_idx)
            throw CheckpointError("live-point file: histogram cells "
                                  "out of order");
        prev_idx = idx;
        const double weight = getF64(is);
        if (!std::isfinite(weight) || weight <= 0.0)
            throw CheckpointError(
                "live-point file: invalid histogram cell weight");
        snap.cells.emplace_back(idx, weight);
    }
    return LogHistogram::fromSnapshot(snap);
}

void
putWindow(std::ostream &os, const LivePointWindow &w)
{
    putU32(os, w.region);
    putU64(os, w.warming_start);

    // --- KeySet ---------------------------------------------------------
    const core::KeySet &keys = w.warm.keys;
    putU64(os, keys.region_refs);
    if (keys.keys.size() > max_count)
        throw CheckpointError("live-point write: key set too large");
    putU32(os, std::uint32_t(keys.keys.size()));
    for (const auto &k : keys.keys) {
        putU64(os, k.line);
        putU64(os, k.first_offset);
        putU64(os, k.pc);
        putU8(os, std::uint8_t((k.write ? 1 : 0) |
                               (k.lukewarm_hit ? 2 : 0)));
    }

    // --- ExplorerResult -------------------------------------------------
    const core::ExplorerResult &e = w.warm.explored;
    putU32(os, e.engaged);

    // The map is serialized sorted by line so recordings are
    // byte-deterministic (and the reader can validate ordering).
    std::vector<std::pair<Addr, RefCount>> back(e.back_distance.begin(),
                                                e.back_distance.end());
    std::sort(back.begin(), back.end());
    if (back.size() > max_count)
        throw CheckpointError(
            "live-point write: back-distance map too large");
    putU32(os, std::uint32_t(back.size()));
    for (const auto &[line, dist] : back) {
        putU64(os, line);
        putU64(os, dist);
    }

    if (e.unresolved.size() > max_count)
        throw CheckpointError(
            "live-point write: unresolved list too large");
    putU32(os, std::uint32_t(e.unresolved.size()));
    for (const auto line : e.unresolved)
        putU64(os, line);

    for (const auto v : e.found_by)
        putU64(os, v);
    for (const auto v : e.dp_traps)
        putU64(os, v);
    for (const auto v : e.dp_false_positives)
        putU64(os, v);
    for (const auto v : e.vicinity_traps)
        putU64(os, v);
    for (const auto v : e.vicinity_false_positives)
        putU64(os, v);
    for (const auto v : e.window_insts)
        putU64(os, v);
    putU64(os, e.vicinity_samples);

    putHistogram(os, e.vicinity.events());
    putHistogram(os, e.vicinity.censoredHist());
}

LivePointWindow
getWindow(std::istream &is, const sampling::RegionSchedule &sched)
{
    LivePointWindow w;
    w.region = getU32(is);
    if (w.region >= sched.num_regions)
        throw CheckpointError("live-point file: window region index "
                              "out of range");
    w.warming_start = getU64(is);
    if (w.warming_start != sched.warmingStart(w.region))
        throw CheckpointError("live-point file: window trace offset "
                              "disagrees with the recorded schedule");

    // --- KeySet ---------------------------------------------------------
    core::KeySet &keys = w.warm.keys;
    keys.region_refs = getU64(is);
    const std::uint32_t n_keys = getU32(is);
    if (n_keys > max_count)
        throw CheckpointError("live-point file: implausible key count");
    keys.keys.reserve(n_keys);
    for (std::uint32_t i = 0; i < n_keys; ++i) {
        core::KeyAccess k;
        k.line = getU64(is);
        k.first_offset = getU64(is);
        k.pc = getU64(is);
        const std::uint8_t flags = getU8(is);
        if (flags & ~std::uint8_t(3))
            throw CheckpointError(
                "live-point file: unknown key flags");
        k.write = flags & 1;
        k.lukewarm_hit = flags & 2;
        keys.keys.push_back(k);
    }

    // --- ExplorerResult -------------------------------------------------
    core::ExplorerResult &e = w.warm.explored;
    e.engaged = getU32(is);
    if (e.engaged > 4)
        throw CheckpointError(
            "live-point file: implausible explorer engagement");

    const std::uint32_t n_back = getU32(is);
    if (n_back > max_count)
        throw CheckpointError(
            "live-point file: implausible back-distance count");
    e.back_distance.reserve(n_back);
    Addr prev_line = 0;
    for (std::uint32_t i = 0; i < n_back; ++i) {
        const Addr line = getU64(is);
        if (i > 0 && line <= prev_line)
            throw CheckpointError("live-point file: back-distance "
                                  "entries out of order");
        prev_line = line;
        e.back_distance.emplace(line, getU64(is));
    }

    const std::uint32_t n_unresolved = getU32(is);
    if (n_unresolved > max_count)
        throw CheckpointError(
            "live-point file: implausible unresolved count");
    e.unresolved.reserve(n_unresolved);
    for (std::uint32_t i = 0; i < n_unresolved; ++i)
        e.unresolved.push_back(getU64(is));

    for (auto &v : e.found_by)
        v = getU64(is);
    for (auto &v : e.dp_traps)
        v = getU64(is);
    for (auto &v : e.dp_false_positives)
        v = getU64(is);
    for (auto &v : e.vicinity_traps)
        v = getU64(is);
    for (auto &v : e.vicinity_false_positives)
        v = getU64(is);
    for (auto &v : e.window_insts)
        v = getU64(is);
    e.vicinity_samples = getU64(is);

    LogHistogram events = getHistogram(is);
    LogHistogram censored = getHistogram(is);
    e.vicinity = statmodel::ReuseHistogram(std::move(events),
                                           std::move(censored));
    return w;
}

} // namespace

batch::CacheKey
livePointKey(const std::string &spec,
             const core::DeloreanConfig &config)
{
    // Early-stop knobs are normalized to their defaults: live-points
    // persist warm state, which is valid under any stopping rule. The
    // workload identity (content digest for file-backed specs) and
    // every other result-shaping field stay in the key.
    core::DeloreanConfig normalized = config;
    const core::DeloreanConfig defaults;
    normalized.confidence = defaults.confidence;
    normalized.target_error = defaults.target_error;
    normalized.window_seed = defaults.window_seed;
    normalized.min_windows = defaults.min_windows;
    normalized.livepoint_file.clear();
    return batch::KeyBuilder()
        .workload(spec)
        .str("livepoints")
        .config(normalized)
        .key();
}

void
writeLivePoints(std::ostream &os, const LivePointFile &file)
{
    const auto &sched = file.schedule;
    if (file.windows.empty() ||
        file.windows.size() > sched.num_regions)
        throw CheckpointError("live-point write: windows must form a "
                              "non-empty prefix of the schedule");

    putBytes(os, LivePointFormat::magic.data(),
             LivePointFormat::magic.size());
    putU32(os, LivePointFormat::version);
    putU32(os, 0); // reserved
    putU64(os, file.key.hi);
    putU64(os, file.key.lo);
    putStr(os, file.workload);
    putU32(os, sched.num_regions);
    putU64(os, sched.spacing);
    putU64(os, sched.region_len);
    putU64(os, sched.detailed_warming);
    putU32(os, std::uint32_t(file.windows.size()));
    for (const auto &w : file.windows)
        putWindow(os, w);
    os.flush();
    if (!os)
        throw CheckpointError("live-point write failed");
}

LivePointFile
readLivePoints(std::istream &is)
{
    std::array<char, 8> magic;
    getBytes(is, magic.data(), magic.size());
    if (magic != LivePointFormat::magic)
        throw CheckpointError("live-point file: bad magic");
    const std::uint32_t version = getU32(is);
    if (version != LivePointFormat::version)
        throw CheckpointError(
            "live-point file: unsupported version " +
            std::to_string(version));
    if (getU32(is) != 0)
        throw CheckpointError(
            "live-point file: nonzero reserved header field");

    LivePointFile file;
    file.key.hi = getU64(is);
    file.key.lo = getU64(is);
    file.workload = getStr(is);
    file.schedule.num_regions = getU32(is);
    file.schedule.spacing = getU64(is);
    file.schedule.region_len = getU64(is);
    file.schedule.detailed_warming = getU64(is);
    if (file.schedule.num_regions == 0 ||
        file.schedule.num_regions > max_count ||
        file.schedule.region_len == 0 ||
        file.schedule.spacing <= file.schedule.region_len +
                                     file.schedule.detailed_warming)
        throw CheckpointError(
            "live-point file: invalid recorded schedule");

    const std::uint32_t n_windows = getU32(is);
    if (n_windows == 0 || n_windows > file.schedule.num_regions)
        throw CheckpointError(
            "live-point file: window count is not a non-empty prefix "
            "of the recorded schedule");
    file.windows.reserve(n_windows);
    for (std::uint32_t i = 0; i < n_windows; ++i) {
        LivePointWindow w = getWindow(is, file.schedule);
        if (w.region != i)
            throw CheckpointError("live-point file: windows out of "
                                  "region order");
        file.windows.push_back(std::move(w));
    }
    if (is.peek() != std::istream::traits_type::eof())
        throw CheckpointError("live-point file: trailing bytes");
    return file;
}

LivePointFile
recordLivePoints(const std::string &spec,
                 const core::DeloreanConfig &config)
{
    // The warm state is valid under any stopping rule: record it from
    // a full in-order replay.
    core::DeloreanConfig exact = config;
    exact.confidence = 0.0;
    exact.livepoint_file.clear();
    core::DeloreanSession session(exact);
    session.feedWindows(*workload::makeTrace(spec), session.windowsTotal());
    return sessionLivePoints(session, spec);
}

void
writeLivePointFile(const std::string &path, const LivePointFile &file)
{
    const std::string tmp = path + ".tmp";
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os)
            throw CheckpointError("cannot write live-point file '" +
                                  tmp + "'");
        writeLivePoints(os, file);
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        throw CheckpointError("cannot publish live-point file '" +
                              path + "'");
    }
}

LivePointFile
readLivePointFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        throw CheckpointError("cannot open live-point file '" + path +
                              "'");
    return readLivePoints(is);
}

namespace
{

/** loadForRun/loadPrefixForRun's shared validation. */
std::vector<core::RegionWarm>
loadValidated(const std::string &spec,
              const core::DeloreanConfig &config,
              const std::string &path)
{
    LivePointFile file = readLivePointFile(path);

    const auto &want = config.schedule;
    const auto &have = file.schedule;
    if (have.num_regions != want.num_regions ||
        have.spacing != want.spacing ||
        have.region_len != want.region_len ||
        have.detailed_warming != want.detailed_warming)
        throw CheckpointError(
            "live-point file '" + path +
            "' was recorded for a different region schedule");

    const batch::CacheKey expected = livePointKey(spec, config);
    if (!(file.key == expected))
        throw CheckpointError(
            "live-point file '" + path + "' (key " + file.key.hex() +
            ") does not match workload/config (key " + expected.hex() +
            "): the trace was re-recorded or the configuration "
            "changed; re-record the live-points");

    std::vector<core::RegionWarm> warm;
    warm.reserve(file.windows.size());
    for (auto &w : file.windows)
        warm.push_back(std::move(w.warm));
    return warm;
}

} // namespace

std::vector<core::RegionWarm>
loadForRun(const std::string &spec, const core::DeloreanConfig &config,
           const std::string &path)
{
    std::vector<core::RegionWarm> warm =
        loadValidated(spec, config, path);
    if (warm.size() != config.schedule.num_regions)
        throw CheckpointError(
            "live-point file '" + path + "' holds a " +
            std::to_string(warm.size()) + "-window prefix of the " +
            std::to_string(config.schedule.num_regions) +
            "-region schedule; resume it through a DeloreanSession "
            "(loadPrefixForRun)");
    return warm;
}

std::vector<core::RegionWarm>
loadPrefixForRun(const std::string &spec,
                 const core::DeloreanConfig &config,
                 const std::string &path)
{
    return loadValidated(spec, config, path);
}

LivePointFile
sessionLivePoints(const core::DeloreanSession &session,
                  const std::string &spec)
{
    if (session.windowsFed() == 0)
        throw CheckpointError(
            "cannot suspend a session before any fed window");

    const auto &order = session.windowOrder();
    for (unsigned i = 0; i < session.windowsFed(); ++i)
        if (order[i] != i)
            throw CheckpointError(
                "cannot suspend a session whose fed windows are not a "
                "region-order prefix");

    const core::DeloreanConfig &config = session.config();
    LivePointFile file;
    file.key = livePointKey(spec, config);
    file.workload = session.benchmark();
    file.schedule = config.schedule;
    const auto warm = session.warmWindows();
    file.windows.reserve(warm.size());
    for (std::size_t r = 0; r < warm.size(); ++r) {
        LivePointWindow w;
        w.region = std::uint32_t(r);
        w.warming_start = config.schedule.warmingStart(unsigned(r));
        w.warm = warm[r];
        file.windows.push_back(std::move(w));
    }
    return file;
}

} // namespace delorean::checkpoint
