/**
 * @file
 * Live-point checkpoint store: persisted per-window Explorer warm
 * state (the DLRNLVP1 on-disk format).
 *
 * A *live-point* is one region's complete warm state — the Scout's key
 * set plus the Explorer chain's measured reuse distances and vicinity
 * distribution (core::RegionWarm) — persisted so later runs skip the
 * Scout/Explorer passes entirely and boot each Analyst straight from
 * disk. This is our stand-in for the SMARTS live-points lineage
 * (TurboSMARTSim-style checkpoint libraries) the paper's warm-up
 * otherwise re-derives on every run, and it composes with the
 * confidence-driven driver (core::DeloreanConfig::confidence): resume
 * from live-points, replay windows in shuffled order, stop when the
 * estimate is statistically done.
 *
 * Format (all integers little-endian, like DLRNTRC1/DLRNRES1):
 *
 *   Header:
 *     char[8]  magic     "DLRNLVP1"
 *     u32      version   1
 *     u32      reserved  must be 0
 *     u64 x2   content key (hi, lo) — see livePointKey()
 *     str      workload display name       (u32 length + bytes)
 *     u32      num_regions, u64 spacing, u64 region_len,
 *     u64      detailed_warming            (the recorded schedule)
 *     u32      window count  (1..num_regions — windows 0..count-1, a
 *                             contiguous prefix of the schedule; a
 *                             complete file has count == num_regions,
 *                             a suspended streaming session persists
 *                             the windows fed so far)
 *
 *   Per window (ascending region order, contiguous from region 0):
 *     u32      region index
 *     u64      warming_start              (trace offset of the window)
 *     KeySet:
 *       u64    region_refs
 *       u32    key count, then per key:
 *              u64 line, u64 first_offset, u64 pc,
 *              u8  flags (bit0 write, bit1 lukewarm_hit, rest 0)
 *     ExplorerResult:
 *       u32    engaged (<= 4)
 *       u32    back-distance count, then per entry:
 *              u64 line (strictly increasing), u64 distance
 *       u32    unresolved count, then u64 per line (recorded order)
 *       u64[4] found_by, dp_traps, dp_false_positives,
 *              vicinity_traps, vicinity_false_positives, window_insts
 *       u64    vicinity_samples
 *       2x histogram (vicinity events, then censored):
 *              u32 sub_buckets (power of two), f64 total_weight,
 *              u32 cell count, then per cell:
 *              u64 bucket index (strictly increasing), f64 weight (> 0)
 *
 * The back-distance map and histogram cells are serialized in sorted
 * order and the histograms' accumulated total weights verbatim, so a
 * round trip reproduces warm state that compares operator==-equal and
 * resumes *bit-identically* to a fresh warm-up (measured timings are
 * not persisted; they are excluded from every equality relation).
 *
 * Invalidation: the embedded key is livePointKey(spec, config), which
 * folds in the workload identity — for file-backed specs the file's
 * size and content digest (batch/cache_key.hh) — and every
 * result-shaping config field except the early-stop knobs. Re-record a
 * trace, or change the schedule/hierarchy/cost model, and the key no
 * longer matches: loadForRun() refuses with CheckpointError and the
 * caller falls back to a fresh warm-up. Early-stop fields
 * (confidence/target_error/window_seed/min_windows) are normalized out
 * of the key on purpose — live-points are warm state, valid for any
 * stopping rule.
 *
 * Readers validate everything — magic, version, reserved bytes,
 * counts, flags, ordering, weight sanity, trailing bytes — and throw
 * CheckpointError on any violation; a corrupt live-point file must
 * surface as a recoverable "re-warm from scratch", never a crash.
 */

#ifndef DELOREAN_CHECKPOINT_LIVEPOINT_HH
#define DELOREAN_CHECKPOINT_LIVEPOINT_HH

#include <array>
#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <vector>

#include "batch/cache_key.hh"
#include "core/delorean.hh"
#include "sampling/region.hh"

namespace delorean::core
{
class DeloreanSession;
} // namespace delorean::core

namespace delorean::checkpoint
{

/** Any live-point I/O or validation failure. */
class CheckpointError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Format constants shared by writer and reader. */
struct LivePointFormat
{
    static constexpr std::array<char, 8> magic = {'D', 'L', 'R', 'N',
                                                  'L', 'V', 'P', '1'};
    static constexpr std::uint32_t version = 1;
};

/** One region's persisted warm state. */
struct LivePointWindow
{
    std::uint32_t region = 0;
    InstCount warming_start = 0; //!< trace offset the window starts at
    core::RegionWarm warm;

    bool operator==(const LivePointWindow &other) const = default;
};

/** An entire live-point file, in memory. */
struct LivePointFile
{
    batch::CacheKey key;    //!< livePointKey() of the producing run
    std::string workload;   //!< trace source display name
    sampling::RegionSchedule schedule;

    /**
     * Warm windows for regions 0..size()-1, ascending — a contiguous
     * prefix of the schedule. Complete files cover every region; a
     * suspended DeloreanSession persists just the fed prefix.
     */
    std::vector<LivePointWindow> windows;
};

/**
 * The content key a live-point file for (spec, config) must carry:
 * workload identity + every result-shaping config field, with the
 * early-stop knobs and livepoint_file normalized to their defaults
 * (warm state is independent of the stopping rule). Throws BatchError
 * if a file-backed spec cannot be read.
 */
batch::CacheKey livePointKey(const std::string &spec,
                             const core::DeloreanConfig &config);

/** Serialize @p file. Throws CheckpointError on write failure. */
void writeLivePoints(std::ostream &os, const LivePointFile &file);

/**
 * Parse one live-point file. Throws CheckpointError on any malformed
 * input. The returned windows compare operator==-equal to the ones
 * written.
 */
LivePointFile readLivePoints(std::istream &is);

/**
 * Feed an exact-mode session over every window of @p spec under
 * @p config and package each region's warm state (sessionLivePoints),
 * keyed with livePointKey().
 */
LivePointFile recordLivePoints(const std::string &spec,
                               const core::DeloreanConfig &config);

/** Write @p file to @p path (temp file + atomic rename). */
void writeLivePointFile(const std::string &path,
                        const LivePointFile &file);

/** Open and parse @p path. Throws CheckpointError. */
LivePointFile readLivePointFile(const std::string &path);

/**
 * Load @p path and validate it against (spec, config): the embedded
 * key must equal livePointKey(spec, config) — a re-recorded trace or
 * changed configuration therefore invalidates the file — the recorded
 * schedule must match, and the file must cover *every* region of the
 * schedule (a suspended prefix resumes through loadPrefixForRun
 * instead). @return per-region warm state in region order, ready for
 * core::DeloreanMethod::run's warm parameter. Throws CheckpointError
 * on any mismatch or corruption.
 */
std::vector<core::RegionWarm>
loadForRun(const std::string &spec, const core::DeloreanConfig &config,
           const std::string &path);

/**
 * Same validation as loadForRun, but accepts any contiguous window
 * prefix: @return warm state for regions 0..k-1 where 1 <= k <=
 * num_regions — feed it to DeloreanSession::feedWarmWindows and
 * continue feeding fresh windows from there. Resuming is
 * bit-identical to having never suspended.
 */
std::vector<core::RegionWarm>
loadPrefixForRun(const std::string &spec,
                 const core::DeloreanConfig &config,
                 const std::string &path);

/**
 * Suspend @p session: package its fed windows' warm state as a
 * live-point file keyed for @p spec, ready for writeLivePointFile.
 * Throws CheckpointError unless at least one window was fed and the
 * fed windows are a region-order prefix of the schedule (a shuffled
 * confidence-mode session is not).
 */
LivePointFile sessionLivePoints(const core::DeloreanSession &session,
                                const std::string &spec);

} // namespace delorean::checkpoint

#endif // DELOREAN_CHECKPOINT_LIVEPOINT_HH
