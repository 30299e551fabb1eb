/**
 * @file
 * The sampled-simulation region schedule and trace checkpointing.
 *
 * The paper evaluates 10 detailed regions of 10 k instructions spread
 * uniformly 1 B instructions apart, with 30 k instructions of detailed
 * warming before each. We keep the same structure at a reduced spacing
 * (default 5 M) and expose the implied scale factor S so all interval
 * parameters and host costs scale together (DESIGN.md §5).
 */

#ifndef DELOREAN_SAMPLING_REGION_HH
#define DELOREAN_SAMPLING_REGION_HH

#include <map>
#include <memory>
#include <vector>

#include "workload/trace_source.hh"

namespace delorean::sampling
{

/** Placement of the detailed regions within the trace. */
struct RegionSchedule
{
    /** The paper's region spacing (1 B instructions). */
    static constexpr InstCount paper_spacing = 1'000'000'000;

    unsigned num_regions = 10;
    InstCount spacing = 5'000'000;
    InstCount region_len = 10'000;         //!< detailed region
    InstCount detailed_warming = 30'000;   //!< lukewarm window

    /** First instruction after region @p i (multiple of spacing). */
    InstCount regionEnd(unsigned i) const { return spacing * (i + 1); }

    /** First instruction of detailed region @p i. */
    InstCount
    detailedStart(unsigned i) const
    {
        return regionEnd(i) - region_len;
    }

    /** First instruction of the detailed-warming window of region @p i. */
    InstCount
    warmingStart(unsigned i) const
    {
        return detailedStart(i) - detailed_warming;
    }

    /** Total trace length covered by the schedule. */
    InstCount totalInstructions() const { return spacing * num_regions; }

    /** Interval scale factor S = paper spacing / spacing. */
    double
    scaleFactor() const
    {
        return double(paper_spacing) / double(spacing);
    }

    /** Scale a paper-scale interval parameter down by S (min 1). */
    InstCount scaleInterval(InstCount paper_value) const;

    void validate() const;
};

/**
 * Checkpoint store over a master trace — our stand-in for the library of
 * KVM snapshots the paper's passes boot from. prepare() makes one forward
 * pass and snapshots the generator at each requested position; at() hands
 * out clones positioned anywhere, advancing from the nearest checkpoint.
 */
class TraceCheckpointer
{
  public:
    explicit TraceCheckpointer(const workload::TraceSource &master);

    /** Snapshot the requested positions in one forward pass. */
    void prepare(std::vector<InstCount> positions);

    /** @return a fresh trace positioned exactly at @p pos. */
    std::unique_ptr<workload::TraceSource> at(InstCount pos) const;

    std::size_t checkpoints() const { return snaps_.size(); }

  private:
    std::unique_ptr<workload::TraceSource> origin_;
    std::map<InstCount, std::unique_ptr<workload::TraceSource>> snaps_;
};

/**
 * Every position the DeLorean passes over regions [first, last) read
 * from: warmingStart(r) for the Scout and Analyst, detailedStart(r)
 * minus each Explorer horizon.
 */
std::vector<InstCount>
checkpointPositions(const RegionSchedule &schedule,
                    const std::vector<InstCount> &horizons,
                    unsigned first, unsigned last);

} // namespace delorean::sampling

#endif // DELOREAN_SAMPLING_REGION_HH
