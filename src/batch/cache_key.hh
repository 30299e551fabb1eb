/**
 * @file
 * Content-addressed cache keys for batch cells.
 *
 * A batch cell — one (workload, method, configuration) triple — is a
 * pure function of its inputs: every TraceSource is deterministic and
 * every method is bit-identical across repeated and parallel runs. That
 * makes each cell's MethodResult memoizable under a key derived from
 * *content*, never from names or paths:
 *
 *   key = H( code version
 *          , workload identity
 *          , method name
 *          , every semantically relevant DeloreanConfig field )
 *
 * Workload identity is the normalized spec string for synthetic
 * workloads ("spec:bzip2" — an immutable function of the name), and the
 * scheme plus *file size and content digest* for file-backed workloads
 * (file:/champsim:) — re-recording a path with different content
 * changes the key, so stale entries can never be served (they linger
 * until `batch_run gc`). Threads are no config field at all: results
 * are bit-identical for any executor (the core/parallel.hh contract).
 * DeloreanConfig::livepoint_file is deliberately excluded —
 * resuming from valid live-points is bit-identical to a fresh warm-up
 * (src/checkpoint/), so it must not fragment the cache. Display-only fields (cache level names) are
 * excluded too. The early-stop knobs (confidence, target_error,
 * window_seed, min_windows) ARE keyed: they change which windows
 * contribute to the result. Adding them moved every key once (the
 * test_batch.cc golden pin was re-derived deliberately with the
 * recipe change that introduced them — see docs/batch.md).
 *
 * The hash is two independent 64-bit FNV-1a streams over the same
 * little-endian byte sequence (doubles contribute their exact bit
 * patterns), giving a 128-bit key rendered as 32 hex digits — small
 * enough for a filename, wide enough that collisions are not a
 * realistic concern at any batch size we run.
 *
 * A file-backed workload's content enters that sequence as
 * u64(size), then the file's XXH64 digest (base/xxh64.hh) under each
 * of the two FNV offset bases as seed. XXH64 runs at memory speed,
 * where byte-serial FNV-1a over the whole file did not. Adopting it
 * moved every file:/champsim: key once (the file-key golden pin in
 * tests/test_batch.cc records the move); spec keys did not move.
 *
 * batch_code_version is hashed into every key; bump it whenever the
 * result serialization (result_io.hh) or any method's semantics change
 * so stale cache entries miss instead of poisoning new runs. A golden
 * pin in tests/test_batch.cc fails when the recipe drifts, making
 * silent invalidation (or worse, a false hit) a deliberate act.
 */

#ifndef DELOREAN_BATCH_CACHE_KEY_HH
#define DELOREAN_BATCH_CACHE_KEY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cache/cache_config.hh"
#include "core/delorean.hh"
#include "cpu/detailed_sim.hh"
#include "sampling/region.hh"

namespace delorean::batch
{

/**
 * Bump when result serialization or method semantics change: every
 * cache key folds this in, so old entries turn into misses.
 */
constexpr std::uint32_t batch_code_version = 1;

/** A 128-bit content hash, the identity of a cached result. */
struct CacheKey
{
    std::uint64_t hi = 0;
    std::uint64_t lo = 0;

    /** 32 lowercase hex digits; the cache file stem. */
    std::string hex() const;

    /**
     * Parse what hex() produced (case-insensitive). Throws BatchError
     * on anything that is not exactly 32 hex digits — the service uses
     * this on untrusted RESULT request bodies.
     */
    static CacheKey fromHex(const std::string &hex);

    bool operator==(const CacheKey &other) const = default;
};

/**
 * Incremental key construction. Every value is framed (strings are
 * length-prefixed, vectors count-prefixed) so distinct field sequences
 * can never collide by concatenation.
 */
class KeyBuilder
{
  public:
    /** Seeds the stream with batch_code_version. */
    KeyBuilder();

    KeyBuilder &u8(std::uint8_t v);
    KeyBuilder &u32(std::uint32_t v);
    KeyBuilder &u64(std::uint64_t v);
    /** Exact bit pattern — the same double always hashes the same. */
    KeyBuilder &f64(double v);
    KeyBuilder &boolean(bool v);
    KeyBuilder &str(const std::string &s);
    KeyBuilder &u64vec(const std::vector<std::uint64_t> &v);

    /**
     * Workload identity (see file docs): normalized spec for synthetic
     * workloads, scheme + size + content digest for file-backed ones.
     * Throws BatchError if a referenced file cannot be read.
     */
    KeyBuilder &workload(const std::string &spec);

    KeyBuilder &schedule(const sampling::RegionSchedule &s);
    KeyBuilder &hierarchy(const cache::HierarchyConfig &h);
    KeyBuilder &simConfig(const cpu::DetailedSimConfig &s);

    /** All semantically relevant DeloreanConfig fields (file docs). */
    KeyBuilder &config(const core::DeloreanConfig &c);

    CacheKey key() const { return key_; }

  private:
    void bytes(const void *data, std::size_t n);

    CacheKey key_;
};

/** The key of one batch cell (workload spec × method × config). */
CacheKey cellKey(const std::string &workload, const std::string &method,
                 const core::DeloreanConfig &config);

/**
 * The identity of the workload alone (for file-backed specs: scheme +
 * current file size + content digest). The runner re-computes this at
 * execution time and refuses to cache a result whose input changed
 * after the plan was keyed. Throws BatchError on unreadable files.
 */
CacheKey workloadIdentity(const std::string &spec);

/**
 * @return @p spec with the implicit "spec:" scheme made explicit, so
 * "bzip2" and "spec:bzip2" name the same cell.
 */
std::string normalizeSpec(const std::string &spec);

/** @return true for schemes whose backing file can change (file:/champsim:). */
bool specIsFileBacked(const std::string &spec);

} // namespace delorean::batch

#endif // DELOREAN_BATCH_CACHE_KEY_HH
