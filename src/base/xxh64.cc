#include "base/xxh64.hh"

#include <algorithm>
#include <bit>
#include <cstring>

namespace delorean
{

namespace
{

constexpr std::uint64_t p1 = 0x9e3779b185ebca87ull;
constexpr std::uint64_t p2 = 0xc2b2ae3d27d4eb4full;
constexpr std::uint64_t p3 = 0x165667b19e3779f9ull;
constexpr std::uint64_t p4 = 0x85ebca77c2b2ae63ull;
constexpr std::uint64_t p5 = 0x27d4eb2f165667c5ull;

// Little-endian loads: one memcpy (a plain load) on little-endian
// hosts, byte assembly elsewhere.
template <typename T>
inline T
readLe(const std::uint8_t *p)
{
    T v = 0;
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(&v, p, sizeof(T));
    } else {
        for (std::size_t i = 0; i < sizeof(T); ++i)
            v |= T(p[i]) << (8 * i);
    }
    return v;
}

/** XXH64_round with its input already multiplied by p2. */
inline std::uint64_t
roundScaled(std::uint64_t acc, std::uint64_t scaled_input)
{
    return std::rotl(acc + scaled_input, 31) * p1;
}

inline std::uint64_t
round64(std::uint64_t acc, std::uint64_t input)
{
    return roundScaled(acc, input * p2);
}

inline std::uint64_t
mergeRound(std::uint64_t acc, std::uint64_t lane)
{
    acc ^= round64(0, lane);
    return acc * p1 + p4;
}

/** Consume whole 32-byte stripes of @p p; @return the bytes consumed. */
std::size_t
stripes(std::array<std::array<std::uint64_t, 4>, 2> &acc,
        const std::uint8_t *p, std::size_t n)
{
    auto a = acc; // locals, so the lanes stay in registers
    const std::size_t whole = n - n % 32;
    for (std::size_t i = 0; i < whole; i += 32) {
        const std::uint64_t in0 = readLe<std::uint64_t>(p + i) * p2;
        const std::uint64_t in1 = readLe<std::uint64_t>(p + i + 8) * p2;
        const std::uint64_t in2 = readLe<std::uint64_t>(p + i + 16) * p2;
        const std::uint64_t in3 = readLe<std::uint64_t>(p + i + 24) * p2;
        for (auto &lanes : a) {
            lanes[0] = roundScaled(lanes[0], in0);
            lanes[1] = roundScaled(lanes[1], in1);
            lanes[2] = roundScaled(lanes[2], in2);
            lanes[3] = roundScaled(lanes[3], in3);
        }
    }
    acc = a;
    return whole;
}

} // namespace

Xxh64Pair::Xxh64Pair(const Digests &seeds) : seeds_(seeds)
{
    for (std::size_t s = 0; s < seeds.size(); ++s)
        acc_[s] = {seeds[s] + p1 + p2, seeds[s] + p2, seeds[s],
                   seeds[s] - p1};
}

void
Xxh64Pair::update(const void *data, std::size_t n)
{
    if (n == 0)
        return; // data may be null
    const auto *p = static_cast<const std::uint8_t *>(data);
    total_ += n;

    if (buffered_ > 0) {
        const std::size_t take = std::min(n, sizeof(buf_) - buffered_);
        std::memcpy(buf_ + buffered_, p, take);
        buffered_ += take;
        p += take;
        n -= take;
        if (buffered_ < sizeof(buf_))
            return;
        stripes(acc_, buf_, sizeof(buf_));
        buffered_ = 0;
    }

    const std::size_t done = stripes(acc_, p, n);
    std::memcpy(buf_, p + done, n - done);
    buffered_ = n - done;
}

Xxh64Pair::Digests
Xxh64Pair::digest() const
{
    Digests out{};
    for (std::size_t s = 0; s < out.size(); ++s) {
        const auto &acc = acc_[s];
        std::uint64_t h;
        if (total_ >= 32) {
            h = std::rotl(acc[0], 1) + std::rotl(acc[1], 7) +
                std::rotl(acc[2], 12) + std::rotl(acc[3], 18);
            for (const std::uint64_t lane : acc)
                h = mergeRound(h, lane);
        } else {
            h = seeds_[s] + p5;
        }
        h += total_;

        // The tail: what is left of the final partial stripe.
        const std::uint8_t *p = buf_;
        std::size_t n = buffered_;
        for (; n >= 8; p += 8, n -= 8) {
            h ^= round64(0, readLe<std::uint64_t>(p));
            h = std::rotl(h, 27) * p1 + p4;
        }
        if (n >= 4) {
            h ^= readLe<std::uint32_t>(p) * p1;
            h = std::rotl(h, 23) * p2 + p3;
            p += 4;
            n -= 4;
        }
        for (; n > 0; ++p, --n) {
            h ^= *p * p5;
            h = std::rotl(h, 11) * p1;
        }

        // Avalanche.
        h ^= h >> 33;
        h *= p2;
        h ^= h >> 29;
        h *= p3;
        h ^= h >> 32;
        out[s] = h;
    }
    return out;
}

std::uint64_t
xxh64(const void *data, std::size_t n, std::uint64_t seed)
{
    Xxh64Pair state({seed, seed});
    state.update(data, n);
    return state.digest()[0];
}

} // namespace delorean
