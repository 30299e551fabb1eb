/**
 * @file
 * Exact division/modulo by a runtime-invariant 64-bit divisor.
 *
 * The synthetic trace generator draws bounded random numbers for almost
 * every generated instruction (kernel pick, branch pick, random-kernel
 * line pick), and `x % bound` with a runtime divisor compiles to a
 * hardware divide — 20-40 cycles on current x86-64, by far the most
 * expensive single instruction in the Explorer replay decode loop
 * (stackbench's core.explorer_replay_ms). Every one of those divisors
 * is loop-invariant (a working-set size, a table size), so the
 * division can be turned into two or three multiplications with a
 * precomputed reciprocal.
 *
 * This is the direct-computation method of Lemire, Kaser and Kurz
 * ("Faster Remainder by Direct Computation", 2019) at 64/128-bit
 * width: with c = ceil(2^128 / d) computed once,
 *
 *     n / d == (c * n) >> 128            (the high 64 bits of the
 *                                         128x64 product's top half)
 *     n % d == ((c * n mod 2^128) * d) >> 128
 *
 * exactly, for every n < 2^64 and every d in [1, 2^64). Exactness is
 * the whole point: FastDiv::div and FastDiv::mod are drop-in
 * replacements for `/` and `%`, so RNG draw streams and generated
 * addresses are bit-identical to the plain-division code they replace
 * (tests/test_base.cc sweeps randomized and adversarial (n, d) pairs
 * against the hardware operators).
 */

#ifndef DELOREAN_BASE_FASTDIV_HH
#define DELOREAN_BASE_FASTDIV_HH

#include <cstdint>

#include "base/logging.hh"

namespace delorean
{

/** Precomputed reciprocal for exact division/modulo by a fixed d. */
class FastDiv
{
  public:
    /** An un-armed divider; div/mod must not be called. */
    FastDiv() = default;

    explicit FastDiv(std::uint64_t d) : d_(d)
    {
        fatal_if(d == 0, "FastDiv: divisor must be non-zero");
        // c = ceil(2^128 / d) = floor((2^128 - 1) / d) + 1 for any d
        // that is not a power of two; for powers of two the +1 makes
        // c = 2^128 / d exactly, which the identities below also
        // accept. The one-time 128-bit division is fine here. For
        // d = 1 the constant wraps to 0 (2^128 needs 129 bits); mod
        // and negMod stay correct, div() special-cases it.
        const unsigned __int128 numer = ~(unsigned __int128)0;
        const unsigned __int128 c = numer / d + 1;
        c_hi_ = std::uint64_t(c >> 64);
        c_lo_ = std::uint64_t(c);
        neg_mod_ = mod(std::uint64_t(0) - d);
    }

    std::uint64_t divisor() const { return d_; }

    /**
     * (2^64 - d) % d — the rejection threshold of
     * Rng::nextBounded(d), cached so a bounded draw by an invariant
     * divisor costs no division at all.
     */
    std::uint64_t negMod() const { return neg_mod_; }

    /** Exact n / d_. */
    std::uint64_t
    div(std::uint64_t n) const
    {
        // d = 1 is the one divisor whose reciprocal does not fit:
        // c = 2^128 needs 129 bits and wraps to 0 in the constructor.
        // The wrapped constant still computes mod/negMod correctly
        // (everything is a multiple of 1, remainder 0), but div would
        // return 0 — special-case it. The branch predicts perfectly:
        // d_ is invariant per instance.
        if (d_ == 1)
            return n;
        // (c * n) >> 128 where c = c_hi * 2^64 + c_lo.
        const unsigned __int128 lo = (unsigned __int128)c_lo_ * n;
        const unsigned __int128 hi = (unsigned __int128)c_hi_ * n;
        return std::uint64_t((hi + (lo >> 64)) >> 64);
    }

    /** Exact n % d_. */
    std::uint64_t
    mod(std::uint64_t n) const
    {
        // low 128 bits of c * n ...
        const unsigned __int128 lo = (unsigned __int128)c_lo_ * n;
        const unsigned __int128 frac =
            ((unsigned __int128)c_hi_ * n + (lo >> 64)) << 64 |
            (std::uint64_t)lo;
        // ... times d, top 64 bits: frac is the fractional part of
        // n/d in 0.128 fixed point, so frac * d >> 128 is the
        // remainder.
        const unsigned __int128 m_lo =
            (unsigned __int128)(std::uint64_t)frac * d_;
        const unsigned __int128 m_hi =
            (unsigned __int128)(std::uint64_t)(frac >> 64) * d_;
        return std::uint64_t((m_hi + (m_lo >> 64)) >> 64);
    }

  private:
    std::uint64_t d_ = 0;
    std::uint64_t c_hi_ = 0;
    std::uint64_t c_lo_ = 0;
    std::uint64_t neg_mod_ = 0;
};

} // namespace delorean

#endif // DELOREAN_BASE_FASTDIV_HH
