#include "sampling/region.hh"

#include <algorithm>
#include <cmath>

#include "base/logging.hh"

namespace delorean::sampling
{

InstCount
RegionSchedule::scaleInterval(InstCount paper_value) const
{
    const double scaled = double(paper_value) / scaleFactor();
    return std::max<InstCount>(1, InstCount(std::llround(scaled)));
}

void
RegionSchedule::validate() const
{
    fatal_if(num_regions == 0, "schedule: need at least one region");
    fatal_if(region_len == 0, "schedule: empty detailed region");
    fatal_if(spacing <= region_len + detailed_warming,
             "schedule: spacing %llu too small for region %llu + "
             "warming %llu",
             (unsigned long long)spacing,
             (unsigned long long)region_len,
             (unsigned long long)detailed_warming);
    fatal_if(spacing > paper_spacing,
             "schedule: spacing beyond paper scale");
}

TraceCheckpointer::TraceCheckpointer(const workload::TraceSource &master)
    : origin_(master.clone())
{
    panic_if(origin_->position() != 0,
             "TraceCheckpointer requires a trace at position 0");
}

void
TraceCheckpointer::prepare(std::vector<InstCount> positions)
{
    std::sort(positions.begin(), positions.end());
    positions.erase(std::unique(positions.begin(), positions.end()),
                    positions.end());

    auto cursor = origin_->clone();
    for (const InstCount pos : positions) {
        panic_if(pos < cursor->position(),
                 "checkpoint positions must be non-decreasing");
        cursor->skip(pos - cursor->position());
        snaps_.emplace(pos, cursor->clone());
    }
}

std::unique_ptr<workload::TraceSource>
TraceCheckpointer::at(InstCount pos) const
{
    // Nearest checkpoint at or before pos, falling back to the origin.
    const workload::TraceSource *base = origin_.get();
    const auto it = snaps_.upper_bound(pos);
    if (it != snaps_.begin()) {
        const auto &[snap_pos, snap] = *std::prev(it);
        if (snap_pos <= pos)
            base = snap.get();
    }
    auto trace = base->clone();
    trace->skip(pos - trace->position());
    return trace;
}

std::vector<InstCount>
checkpointPositions(const RegionSchedule &schedule,
                    const std::vector<InstCount> &horizons,
                    unsigned first, unsigned last)
{
    std::vector<InstCount> positions;
    for (unsigned r = first; r < last; ++r) {
        const InstCount ds = schedule.detailedStart(r);
        positions.push_back(schedule.warmingStart(r));
        for (const InstCount h : horizons)
            positions.push_back(ds >= h ? ds - h : 0);
    }
    return positions;
}

} // namespace delorean::sampling
