/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic behaviour in the library (synthetic workloads, randomized
 * statistical warming, vicinity sampling) flows through Rng so that every
 * experiment is reproducible from a seed. The engine is xoshiro256**,
 * which is fast, has a 2^256-1 period, and — unlike std::mt19937 — has a
 * trivially copyable state, which we rely on for trace snapshots
 * (our stand-in for KVM checkpoints).
 *
 * Seeding contract
 * ----------------
 * Every Rng in the system is seeded from *configuration only* — a
 * benchmark name hash, an explicit config seed, a region's position —
 * never from time, thread ids, or global mutable state. Components that
 * need independent streams derive them by mixing their own salt into
 * the seed (splitmix64 decorrelates adjacent seeds), and components
 * that re-execute a window (the Explorers) snapshot and restore Rng
 * state through trace clones rather than re-seeding. Consequences that
 * the test suite asserts (tests/test_threaded.cc):
 *
 *  - two runs of any method with the same inputs produce byte-identical
 *    MethodResults;
 *  - host parallelism (core/parallel.hh) cannot perturb results,
 *    because no Rng is ever shared across concurrently executing work
 *    items.
 *
 * Any new randomized component must follow the same rule: accept a seed
 * derived from configuration, own its Rng, and never read one shared
 * mutably across threads.
 */

#ifndef DELOREAN_BASE_RANDOM_HH
#define DELOREAN_BASE_RANDOM_HH

#include <array>
#include <cstdint>

#include "base/fastdiv.hh"
#include "base/logging.hh"

namespace delorean
{

/**
 * xoshiro256** engine with convenience distributions.
 *
 * Copyable and comparable; copying an Rng snapshots the stream, which the
 * workload generators use to implement checkpoint/restore.
 */
class Rng
{
  public:
    /** Seed via splitmix64 so that small consecutive seeds give
     *  independent streams. */
    explicit Rng(std::uint64_t seed = 0x5eed);

    // The draw primitives below are defined in the header on purpose:
    // the synthetic trace generator makes one to three draws per
    // generated instruction, which makes cross-TU call overhead a
    // measurable slice of the Explorer replay phase (stackbench's
    // core.explorer_replay_ms).

    /** @return next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;

        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);

        return result;
    }

    /** @return uniform value in [0, bound) (bound > 0). */
    std::uint64_t
    nextBounded(std::uint64_t bound)
    {
        panic_if(bound == 0, "Rng::nextBounded called with bound 0");
        // Lemire's nearly-divisionless method would be overkill here;
        // simple rejection keeps the stream layout obvious and still
        // unbiased.
        const std::uint64_t threshold = -bound % bound;
        for (;;) {
            const std::uint64_t r = next();
            if (r >= threshold)
                return r % bound;
        }
    }

    /**
     * @return uniform value in [0, fd.divisor()), drawing exactly the
     * same stream (and returning exactly the same values) as
     * nextBounded(fd.divisor()). The synthetic trace generator draws
     * by the same loop-invariant bound millions of times per window;
     * this overload replaces both runtime divisions of the plain
     * overload with FastDiv multiplications.
     */
    std::uint64_t
    nextBounded(const FastDiv &fd)
    {
        const std::uint64_t threshold = fd.negMod();
        for (;;) {
            const std::uint64_t r = next();
            if (r >= threshold)
                return fd.mod(r);
        }
    }

    /** @return uniform value in [lo, hi] inclusive. */
    std::uint64_t nextRange(std::uint64_t lo, std::uint64_t hi);

    /** @return uniform double in [0, 1). */
    double
    nextDouble()
    {
        // 53 high bits -> double in [0, 1).
        return (next() >> 11) * 0x1.0p-53;
    }

    /** @return true with probability @p p. */
    bool
    chance(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return nextDouble() < p;
    }

    /**
     * @return a sample from a geometric distribution with success
     * probability 1/period, i.e. the gap to the next sampled event when
     * sampling one in @p period events on average. Used by the randomized
     * and vicinity samplers; period must be >= 1.
     */
    std::uint64_t nextGeometric(std::uint64_t period);

    /** @return approximately normal sample (mean 0, stddev 1),
     *  via the sum-of-uniforms (Irwin-Hall) approximation. */
    double nextGaussian();

    bool operator==(const Rng &other) const = default;

  private:
    static constexpr std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::array<std::uint64_t, 4> state_;
};

} // namespace delorean

#endif // DELOREAN_BASE_RANDOM_HH
