#include "batch/cache_key.hh"

#include <bit>
#include <cstdio>
#include <fstream>

#include "base/xxh64.hh"
#include "batch/error.hh"
#include "workload/endian.hh"

namespace delorean::batch
{

namespace
{

// Two independent FNV-1a streams; distinct offset bases keep the
// halves uncorrelated even though they consume identical bytes.
constexpr std::uint64_t fnv_prime = 1099511628211ull;
constexpr std::uint64_t fnv_offset_hi = 14695981039346656037ull;
constexpr std::uint64_t fnv_offset_lo = 0x9e3779b97f4a7c15ull;

void
feed(CacheKey &key, const std::uint8_t *p, std::size_t n)
{
    std::uint64_t hi = key.hi, lo = key.lo;
    for (std::size_t i = 0; i < n; ++i) {
        hi = (hi ^ p[i]) * fnv_prime;
        lo = (lo ^ p[i]) * fnv_prime;
        lo ^= lo >> 29; // extra mixing decorrelates the two halves
    }
    key.hi = hi;
    key.lo = lo;
}

} // namespace

std::string
CacheKey::hex() const
{
    char buf[33];
    std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                  (unsigned long long)hi, (unsigned long long)lo);
    return buf;
}

CacheKey
CacheKey::fromHex(const std::string &hex)
{
    // The input can be an untrusted request body up to the protocol's
    // frame cap; echo only a prefix so a garbage megablob is not
    // allocated a second time and shipped back in the error message.
    const auto shown = [&] {
        return hex.size() <= 40 ? hex : hex.substr(0, 40) + "...";
    };
    if (hex.size() != 32)
        throw BatchError("cache key '" + shown() +
                         "' is not 32 hex digits");
    std::uint64_t words[2] = {};
    for (std::size_t i = 0; i < 32; ++i) {
        const char c = hex[i];
        std::uint64_t nibble = 0;
        if (c >= '0' && c <= '9')
            nibble = std::uint64_t(c - '0');
        else if (c >= 'a' && c <= 'f')
            nibble = std::uint64_t(c - 'a' + 10);
        else if (c >= 'A' && c <= 'F')
            nibble = std::uint64_t(c - 'A' + 10);
        else
            throw BatchError("cache key '" + shown() +
                             "' is not 32 hex digits");
        words[i / 16] = (words[i / 16] << 4) | nibble;
    }
    return CacheKey{words[0], words[1]};
}

KeyBuilder::KeyBuilder()
{
    key_.hi = fnv_offset_hi;
    key_.lo = fnv_offset_lo;
    u32(batch_code_version);
}

void
KeyBuilder::bytes(const void *data, std::size_t n)
{
    feed(key_, static_cast<const std::uint8_t *>(data), n);
}

KeyBuilder &
KeyBuilder::u8(std::uint8_t v)
{
    bytes(&v, 1);
    return *this;
}

KeyBuilder &
KeyBuilder::u32(std::uint32_t v)
{
    std::uint8_t b[4];
    workload::le::putU32(b, v);
    bytes(b, 4);
    return *this;
}

KeyBuilder &
KeyBuilder::u64(std::uint64_t v)
{
    std::uint8_t b[8];
    workload::le::putU64(b, v);
    bytes(b, 8);
    return *this;
}

KeyBuilder &
KeyBuilder::f64(double v)
{
    return u64(std::bit_cast<std::uint64_t>(v));
}

KeyBuilder &
KeyBuilder::boolean(bool v)
{
    return u8(v ? 1 : 0);
}

KeyBuilder &
KeyBuilder::str(const std::string &s)
{
    u64(s.size());
    bytes(s.data(), s.size());
    return *this;
}

KeyBuilder &
KeyBuilder::u64vec(const std::vector<std::uint64_t> &v)
{
    u64(v.size());
    for (const auto x : v)
        u64(x);
    return *this;
}

std::string
normalizeSpec(const std::string &spec)
{
    if (spec.find(':') == std::string::npos)
        return "spec:" + spec;
    return spec;
}

bool
specIsFileBacked(const std::string &spec)
{
    const auto colon = spec.find(':');
    if (colon == std::string::npos)
        return false;
    const std::string scheme = spec.substr(0, colon);
    return scheme == "file" || scheme == "champsim";
}

KeyBuilder &
KeyBuilder::workload(const std::string &spec)
{
    const std::string norm = normalizeSpec(spec);
    if (!specIsFileBacked(norm)) {
        str("workload-spec");
        str(norm);
        return *this;
    }

    // File-backed workloads are identified by scheme + content, never
    // by path: the same recording hits from any location, and a path
    // re-recorded with different content becomes a different cell.
    const auto colon = norm.find(':');
    const std::string scheme = norm.substr(0, colon);
    const std::string path = norm.substr(colon + 1);
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw BatchError("cache key: cannot open workload file '" +
                         path + "'");

    str("workload-file");
    str(scheme);

    // The content digest is XXH64 under two seeds (base/xxh64.hh), the
    // key halves' offset bases: the file is the bulk of every byte a
    // key ever hashes, and XXH64 digests it at memory speed where
    // byte-serial FNV-1a would be latency-bound.
    Xxh64Pair digest({fnv_offset_hi, fnv_offset_lo});
    std::uint64_t size = 0;
    std::vector<char> buf(1u << 16);
    while (in) {
        in.read(buf.data(), std::streamsize(buf.size()));
        const std::streamsize got = in.gcount();
        if (got <= 0)
            break;
        digest.update(buf.data(), std::size_t(got));
        size += std::uint64_t(got);
    }
    if (in.bad())
        throw BatchError("cache key: I/O error reading '" + path + "'");
    const auto [hi, lo] = digest.digest();
    u64(size);
    u64(hi);
    u64(lo);
    return *this;
}

KeyBuilder &
KeyBuilder::schedule(const sampling::RegionSchedule &s)
{
    str("schedule");
    u32(s.num_regions);
    u64(s.spacing);
    u64(s.region_len);
    u64(s.detailed_warming);
    return *this;
}

KeyBuilder &
KeyBuilder::hierarchy(const cache::HierarchyConfig &h)
{
    // Level names are display-only; everything else shapes results.
    str("hierarchy");
    for (const auto *level : {&h.l1i, &h.l1d, &h.llc}) {
        u64(level->size);
        u32(level->assoc);
        u32(std::uint32_t(level->repl));
        u32(level->mshrs);
    }
    u32(h.lat.l1_hit);
    u32(h.lat.llc_hit);
    u32(h.lat.mem);
    return *this;
}

KeyBuilder &
KeyBuilder::simConfig(const cpu::DetailedSimConfig &s)
{
    str("sim");
    u32(s.core.rob);
    u32(s.core.iq);
    u32(s.core.lq);
    u32(s.core.sq);
    u32(s.core.width);
    f64(s.core.eff_ilp);
    f64(s.core.redirect_penalty);
    u32(s.bpred.local_entries);
    u32(s.bpred.global_entries);
    u32(s.bpred.choice_entries);
    u32(s.bpred.btb_entries);
    u32(s.bpred.local_hist_bits);
    u32(s.bpred.global_hist_bits);
    boolean(s.prefetch);
    u32(s.prefetcher.streams);
    u32(s.prefetcher.degree);
    u32(s.prefetcher.threshold);
    return *this;
}

KeyBuilder &
KeyBuilder::config(const core::DeloreanConfig &c)
{
    str("config");
    hierarchy(c.hier);
    simConfig(c.sim);
    schedule(c.schedule);
    str("cost");
    f64(c.cost.host_ghz);
    f64(c.cost.vff_cpi);
    f64(c.cost.atomic_cpi);
    f64(c.cost.fw_cpi);
    f64(c.cost.detailed_cpi);
    f64(c.cost.trap_cycles);
    f64(c.cost.state_transfer_cycles);
    f64(c.cost.scale);
    str("delorean");
    u64vec(c.paper_horizons);
    u64(c.paper_vicinity_period);
    // Early stopping shapes which windows contribute to the result, so
    // every knob is keyed. livepoint_file is excluded: resuming from
    // valid live-points is bit-identical to a fresh warm-up
    // (src/checkpoint/), so it must not fragment the cache.
    str("earlystop");
    f64(c.confidence);
    f64(c.target_error);
    u64(c.window_seed);
    u32(c.min_windows);
    return *this;
}

CacheKey
cellKey(const std::string &workload, const std::string &method,
        const core::DeloreanConfig &config)
{
    return KeyBuilder()
        .workload(workload)
        .str(method)
        .config(config)
        .key();
}

CacheKey
workloadIdentity(const std::string &spec)
{
    return KeyBuilder().workload(spec).key();
}

} // namespace delorean::batch
