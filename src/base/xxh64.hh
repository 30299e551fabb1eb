/**
 * @file
 * XXH64, the 64-bit xxHash of Yann Collet, as a streaming digest.
 *
 * The batch cache keys file-backed workloads by their full content
 * (batch/cache_key.hh), so every plan expansion, re-record guard and
 * stream CLOSE reads the whole recording through a digest. A
 * byte-serial hash runs at the latency of one multiply chain; XXH64
 * consumes 32-byte stripes in four independent 64-bit lanes, so it
 * keeps pace with a buffered file read.
 *
 * This is the reference algorithm (xxhash.h: XXH64, XXH64_update,
 * XXH64_digest) written out in-tree, reading input little-endian on
 * every host. Xxh64Pair digests one byte stream under two seeds in a
 * single pass: the seeds share each stripe's load and its first
 * multiply (input * PRIME64_2 does not depend on the seed), so two
 * digests cost well under twice one. For any seeds and any split of
 * the input into update() calls, each digest equals the library's
 * XXH64 of the concatenated bytes (reference vectors in
 * tests/test_base.cc).
 */

#ifndef DELOREAN_BASE_XXH64_HH
#define DELOREAN_BASE_XXH64_HH

#include <array>
#include <cstddef>
#include <cstdint>

namespace delorean
{

/** Incremental XXH64 of one byte stream under two seeds at once. */
class Xxh64Pair
{
  public:
    using Digests = std::array<std::uint64_t, 2>;

    explicit Xxh64Pair(const Digests &seeds);

    /** Append @p n bytes at @p data to the hashed stream. */
    void update(const void *data, std::size_t n);

    /** XXH64 under each seed of every byte fed so far. */
    Digests digest() const;

  private:
    Digests seeds_;
    std::array<std::array<std::uint64_t, 4>, 2> acc_ = {}; //!< lanes
    std::uint64_t total_ = 0;   //!< bytes fed
    std::uint8_t buf_[32] = {}; //!< a partial stripe
    std::size_t buffered_ = 0;  //!< bytes held in buf_
};

/** One-shot XXH64 of @p n bytes at @p data. */
std::uint64_t xxh64(const void *data, std::size_t n,
                    std::uint64_t seed = 0);

} // namespace delorean

#endif // DELOREAN_BASE_XXH64_HH
