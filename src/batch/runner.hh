/**
 * @file
 * BatchRunner: sharded, cache-aware execution of a BatchPlan.
 *
 * Cells are independent by construction (each clones its own trace and
 * owns its simulator state), so the runner exploits two levels of
 * parallelism:
 *
 *  - threads: one thread budget per process for work units and their
 *    windows (core/parallel.hh). threads - 1 pool workers and the
 *    calling thread claim units; a worker left without a unit helps
 *    the running units' windows, so a plan with fewer units than
 *    threads still uses them all. Results are placed by cell index,
 *    so output order is deterministic for any thread count, and
 *    threads = 1 runs everything inline with no pool;
 *  - shards: `--shard i/N` partitions the plan across processes or
 *    hosts — shard i executes the cells whose index satisfies
 *    index % N == i. All shards expand the identical plan (the
 *    expansion order is part of the BatchPlan API), and the shared
 *    result cache merges their outputs: after every shard has run, any
 *    process can read the full plan from cache alone.
 *
 * With use_cache, each cell first consults the persistent ResultCache
 * under its content key; hits skip execution entirely and are counted
 * separately (the `status`/stderr counters the CI smoke test pins).
 * Execution failures (e.g. a recording shorter than the schedule)
 * surface as BatchError tagged with the workload spec.
 */

#ifndef DELOREAN_BATCH_RUNNER_HH
#define DELOREAN_BATCH_RUNNER_HH

#include <mutex>
#include <string>
#include <unordered_map>

#include "batch/plan.hh"
#include "batch/result_cache.hh"

namespace delorean::batch
{

/** Execution knobs for one BatchRunner::run invocation. */
struct BatchOptions
{
    unsigned threads = 1;     //!< units + windows at once (0 = hardware)
    unsigned shard_index = 0; //!< this process's shard
    unsigned shard_count = 1; //!< total shards
    bool use_cache = true;
    std::string cache_dir;    //!< empty = ResultCache::defaultDir()
    bool verbose = false;     //!< per-cell progress on stderr
};

/** One finished cell. */
struct CellOutcome
{
    std::size_t cell = 0; //!< index into plan.cells()
    sampling::MethodResult result;
    bool from_cache = false;
};

/** Everything one run produced. */
struct BatchReport
{
    /** This shard's cells, in plan order. */
    std::vector<CellOutcome> outcomes;

    std::uint64_t executed = 0;   //!< cells actually simulated
    std::uint64_t cache_hits = 0; //!< cells served from the cache
    std::uint64_t skipped = 0;    //!< cells belonging to other shards
};

/**
 * Partition @p cells into co-schedulable work units: cells eligible
 * for grouped execution (exact-mode DeLorean sharing a trace, region
 * schedule, Explorer geometry and thread fan-out) land in one unit
 * and decode each Explorer window once; everything else runs solo.
 * Unit members are indices into @p cells; units preserve first-member
 * order and members keep their relative order, so scattering results
 * back by index reproduces the input order for any grouping.
 *
 * This is the public work-unit API: BatchRunner::run schedules these
 * units on its thread pool, and the fleet coordinator leases them to
 * worker daemons (src/service/coordinator.hh) — both paths execute
 * the identical groupings, which is one half of the "fleet output is
 * bit-identical to a local run" guarantee.
 */
std::vector<std::vector<std::size_t>>
planWorkUnits(const std::vector<const BatchCell *> &cells);

/**
 * The re-record guard of every executor (BatchRunner::run, the batch
 * daemon's drain loops, fleet workers). A file-backed workload
 * re-recorded after its plan was keyed would file the new content's
 * result under the old content's key, poisoning a future run whose
 * file matches the old bytes again; check() refuses such a cell before
 * its result is stored. Each file is digested once per guard — a
 * multi-config plan over one big trace reads it once — so a guard's
 * lifetime (one run, job or unit) is its check window. The residual
 * TOCTOU window is inherent: the check is best-effort. Thread-safe.
 */
class RerecordGuard
{
  public:
    /** Throws BatchError if @p cell's workload file changed since its
     *  plan keyed it; a no-op for workloads not backed by a file. */
    void check(const BatchCell &cell);

  private:
    std::mutex mutex_;
    std::unordered_map<std::string, CacheKey> identities_; //!< by spec
};

class BatchRunner
{
  public:
    /**
     * Execute @p plan's shard under @p opt. Updates the cache's
     * RunStats counters when the cache is in use. Throws BatchError on
     * invalid shard spec or failed cell execution.
     */
    static BatchReport run(const BatchPlan &plan,
                           const BatchOptions &opt = {});

    /**
     * Execute one cell directly — no cache, no sharding. This is the
     * reference the cached/sharded paths must match bit-for-bit
     * (MethodResult::operator==), pinned by tests/test_batch.cc.
     * A DeLorean cell fans its windows out over @p executor when given
     * (bit-identical for any executor).
     */
    static sampling::MethodResult runCell(const BatchCell &cell,
                                          core::Executor *executor = nullptr);

    /**
     * Execute one work unit's cells together, results in @p cells
     * order. A unit from planWorkUnits co-schedules through
     * DeloreanMethod::runGroup (any subset of a unit — e.g. after
     * cache hits pruned some members — is still a valid group); cells
     * that turn out not to be groupable fall back to solo runCell
     * calls. Either way every result is bit-identical to a solo
     * runCell of the same cell, and windows fan out over @p executor
     * when given. Throws BatchError on failure.
     */
    static std::vector<sampling::MethodResult>
    runUnit(const std::vector<const BatchCell *> &cells,
            core::Executor *executor = nullptr);
};

} // namespace delorean::batch

#endif // DELOREAN_BATCH_RUNNER_HH
