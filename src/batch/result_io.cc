#include "batch/result_io.hh"

#include <istream>
#include <limits>
#include <ostream>

#include "batch/error.hh"
#include "workload/endian_stream.hh"

namespace delorean::batch
{

namespace
{

namespace le = workload::le;

// A cap that no legitimate record approaches; a reader hitting it is
// looking at garbage and must not attempt a huge allocation.
constexpr std::uint32_t max_count = 1u << 24;

/** The result format's codec messages (workload/endian_stream.hh). */
struct Codec
{
    using Error = BatchError;
    static constexpr const char *writing = "result write";
    static constexpr const char *reading = "result record";
};
constexpr auto &putBytes = le::putBytes<Codec>;
constexpr auto &putU32 = le::putU32<Codec>;
constexpr auto &putU64 = le::putU64<Codec>;
constexpr auto &putF64 = le::putF64<Codec>;
constexpr auto &putStr = le::putStr<Codec>;
constexpr auto &getBytes = le::getBytes<Codec>;
constexpr auto &getU32 = le::getU32<Codec>;
constexpr auto &getU64 = le::getU64<Codec>;
constexpr auto &getF64 = le::getF64<Codec>;
constexpr auto &getStr = le::getStr<Codec>;

void
putHeader(std::ostream &os, std::uint32_t kind)
{
    putBytes(os, ResultFormat::magic.data(), ResultFormat::magic.size());
    putU32(os, ResultFormat::version);
    putU32(os, kind);
}

void
getHeader(std::istream &is, std::uint32_t expected_kind)
{
    std::array<char, 8> magic;
    getBytes(is, magic.data(), magic.size());
    if (magic != ResultFormat::magic)
        throw BatchError("result record: bad magic");
    const std::uint32_t version = getU32(is);
    if (version != ResultFormat::version)
        throw BatchError("result record: unsupported version " +
                         std::to_string(version));
    const std::uint32_t kind = getU32(is);
    if (kind != expected_kind)
        throw BatchError("result record: wrong kind " +
                         std::to_string(kind));
}

void
expectEnd(std::istream &is)
{
    if (is.peek() != std::istream::traits_type::eof())
        throw BatchError("result record: trailing bytes");
}

void
putRegionStats(std::ostream &os, const cpu::RegionStats &r)
{
    putU64(os, r.instructions);
    putF64(os, r.cycles);
    putU64(os, r.mem_refs);
    putU32(os, std::uint32_t(r.classes.size()));
    for (const auto c : r.classes)
        putU64(os, c);
    putU64(os, r.branches);
    putU64(os, r.branch_mispredicts);
    putU64(os, r.icache_misses);
    putU64(os, r.prefetches_issued);
    putU64(os, r.prefetches_nullified);
}

cpu::RegionStats
getRegionStats(std::istream &is)
{
    cpu::RegionStats r;
    r.instructions = getU64(is);
    r.cycles = getF64(is);
    r.mem_refs = getU64(is);
    const std::uint32_t n_classes = getU32(is);
    if (n_classes != r.classes.size())
        throw BatchError("result record: access-class count mismatch "
                         "(written by an incompatible build)");
    for (auto &c : r.classes)
        c = getU64(is);
    r.branches = getU64(is);
    r.branch_mispredicts = getU64(is);
    r.icache_misses = getU64(is);
    r.prefetches_issued = getU64(is);
    r.prefetches_nullified = getU64(is);
    return r;
}

void
putCost(std::ostream &os, const profiling::HostCostAccount &cost)
{
    const auto snap = cost.snapshot();
    putF64(os, snap.params.host_ghz);
    putF64(os, snap.params.vff_cpi);
    putF64(os, snap.params.atomic_cpi);
    putF64(os, snap.params.fw_cpi);
    putF64(os, snap.params.detailed_cpi);
    putF64(os, snap.params.trap_cycles);
    putF64(os, snap.params.state_transfer_cycles);
    putF64(os, snap.params.scale);
    putF64(os, snap.vff);
    putF64(os, snap.functional);
    putF64(os, snap.detailed);
    putF64(os, snap.traps);
    putF64(os, snap.transfers);
    putF64(os, snap.total_cycles);
    putU64(os, snap.trap_count);
    for (std::size_t p = 0; p < profiling::hot_phase_count; ++p) {
        putF64(os, snap.measured.ns[p]);
        putU64(os, snap.measured.calls[p]);
        putU64(os, snap.measured.items[p]);
    }
}

profiling::HostCostAccount
getCost(std::istream &is)
{
    profiling::HostCostSnapshot snap;
    snap.params.host_ghz = getF64(is);
    snap.params.vff_cpi = getF64(is);
    snap.params.atomic_cpi = getF64(is);
    snap.params.fw_cpi = getF64(is);
    snap.params.detailed_cpi = getF64(is);
    snap.params.trap_cycles = getF64(is);
    snap.params.state_transfer_cycles = getF64(is);
    snap.params.scale = getF64(is);
    // fromSnapshot's constructor fatal()s on nonsense params — a
    // library exit a corrupt file must not be able to trigger.
    if (!(snap.params.host_ghz > 0.0) || !(snap.params.scale >= 1.0))
        throw BatchError("result record: invalid host-cost parameters");
    snap.vff = getF64(is);
    snap.functional = getF64(is);
    snap.detailed = getF64(is);
    snap.traps = getF64(is);
    snap.transfers = getF64(is);
    snap.total_cycles = getF64(is);
    snap.trap_count = getU64(is);
    for (std::size_t p = 0; p < profiling::hot_phase_count; ++p) {
        snap.measured.ns[p] = getF64(is);
        snap.measured.calls[p] = getU64(is);
        snap.measured.items[p] = getU64(is);
    }
    return profiling::HostCostAccount::fromSnapshot(snap);
}

} // namespace

void
writeMethodResult(std::ostream &os, const sampling::MethodResult &result)
{
    putHeader(os, ResultFormat::kind_method_result);
    putStr(os, result.method);
    putStr(os, result.benchmark);
    putU32(os, std::uint32_t(result.regions.size()));
    for (const auto &r : result.regions)
        putRegionStats(os, r);
    putRegionStats(os, result.total);
    putCost(os, result.cost);
    putF64(os, result.wall_seconds);
    putF64(os, result.mips);
    putU64(os, result.reuse_samples);
    putU64(os, result.traps);
    putU64(os, result.false_positives);
    for (const auto k : result.keys_by_explorer)
        putU64(os, k);
    putU64(os, result.keys_total);
    putU64(os, result.keys_explored);
    putU64(os, result.keys_unresolved);
    putF64(os, result.avg_explorers);
    putU64(os, result.windows_total);
    putU64(os, result.windows_replayed);
    putF64(os, result.confidence);
    putF64(os, result.ci_error);
    os.flush();
    if (!os)
        throw BatchError("result write failed");
}

sampling::MethodResult
readMethodResult(std::istream &is, bool expect_end)
{
    getHeader(is, ResultFormat::kind_method_result);
    sampling::MethodResult result;
    result.method = getStr(is);
    result.benchmark = getStr(is);
    const std::uint32_t n_regions = getU32(is);
    if (n_regions > max_count)
        throw BatchError("result record: implausible region count");
    result.regions.reserve(n_regions);
    for (std::uint32_t i = 0; i < n_regions; ++i)
        result.regions.push_back(getRegionStats(is));
    result.total = getRegionStats(is);
    result.cost = getCost(is);
    result.wall_seconds = getF64(is);
    result.mips = getF64(is);
    result.reuse_samples = getU64(is);
    result.traps = getU64(is);
    result.false_positives = getU64(is);
    for (auto &k : result.keys_by_explorer)
        k = getU64(is);
    result.keys_total = getU64(is);
    result.keys_explored = getU64(is);
    result.keys_unresolved = getU64(is);
    result.avg_explorers = getF64(is);
    result.windows_total = getU64(is);
    result.windows_replayed = getU64(is);
    result.confidence = getF64(is);
    result.ci_error = getF64(is);
    if (expect_end)
        expectEnd(is);
    return result;
}

void
writeSizeCurve(std::ostream &os, const SizeCurve &curve)
{
    if (curve.mpki.size() != curve.sizes.size() ||
        curve.cpi.size() != curve.sizes.size())
        throw BatchError("size curve: mismatched vector lengths");
    putHeader(os, ResultFormat::kind_size_curve);
    putU32(os, std::uint32_t(curve.sizes.size()));
    for (std::size_t i = 0; i < curve.sizes.size(); ++i) {
        putU64(os, curve.sizes[i]);
        putF64(os, curve.mpki[i]);
        putF64(os, curve.cpi[i]);
    }
    os.flush();
    if (!os)
        throw BatchError("result write failed");
}

SizeCurve
readSizeCurve(std::istream &is)
{
    getHeader(is, ResultFormat::kind_size_curve);
    const std::uint32_t n = getU32(is);
    if (n > max_count)
        throw BatchError("size curve: implausible point count");
    SizeCurve curve;
    curve.sizes.reserve(n);
    curve.mpki.reserve(n);
    curve.cpi.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        curve.sizes.push_back(getU64(is));
        curve.mpki.push_back(getF64(is));
        curve.cpi.push_back(getF64(is));
    }
    expectEnd(is);
    return curve;
}

} // namespace delorean::batch
