/**
 * @file
 * ChampSim-compatible trace reader.
 *
 * Decodes the ChampSim `input_instr` record layout (the 64-byte
 * fixed-width records produced by ChampSim's Pin-based tracer for x86)
 * into our architectural Instruction stream:
 *
 *   u64      ip                        program counter
 *   u8       is_branch
 *   u8       branch_taken
 *   u8[2]    destination_registers
 *   u8[4]    source_registers
 *   u64[2]   destination_memory        store effective addresses (0 = none)
 *   u64[4]   source_memory             load effective addresses (0 = none)
 *
 * One input_instr can carry several memory operations; it expands into
 * a short sequence of our single-operation Instructions — loads (in
 * source slot order), then stores, then the branch or one Other record
 * when the instruction had no memory/branch effect. position() counts
 * the *expanded* stream, which is the instruction count every schedule
 * in this library is defined over.
 *
 * Branch targets are not stored in the format; like ChampSim itself we
 * recover the taken-branch target from the next record's ip
 * (not-taken branches get target 0). Register slots are currently used
 * only to classify the instruction — this model consumes no dataflow
 * beyond the dep_load hint, which ChampSim traces cannot express.
 *
 * The format has no magic/header, so validation is limited to what is
 * detectable: a missing, empty, or non-multiple-of-64-bytes file throws
 * TraceError. Traces must be uncompressed (ChampSim ships .xz/.gz
 * files; decompress before use — this library links no codec).
 *
 * Replay wraps around at end of file, exactly like ChampSim's own
 * tracereader, so any schedule length works; clone() snapshots the
 * record index plus the pending expansion queue, and shares the
 * original's open file (workload/shared_file.hh).
 */

#ifndef DELOREAN_WORKLOAD_CHAMPSIM_TRACE_HH
#define DELOREAN_WORKLOAD_CHAMPSIM_TRACE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "workload/trace_io.hh"
#include "workload/trace_source.hh"

namespace delorean::workload
{

/** TraceSource over an uncompressed ChampSim instruction trace. */
class ChampSimTrace : public TraceSource
{
  public:
    /** ChampSim input_instr: 8 + 1 + 1 + 2 + 4 + 16 + 32 bytes. */
    static constexpr std::size_t record_size = 64;

    explicit ChampSimTrace(const std::string &path);

    Instruction next() override;
    InstCount position() const override { return pos_; }
    std::unique_ptr<TraceSource> clone() const override;
    void reset() override;
    const std::string &name() const override { return name_; }

    /** Number of input_instr records in the file. */
    std::uint64_t records() const { return num_records_; }

  private:
    ChampSimTrace(const ChampSimTrace &other);

    /** @return a pointer to raw record @p index, refilling the chunk
     *  buffer as needed (invalidates previously returned pointers). */
    const std::uint8_t *rawRecord(std::uint64_t index);

    /** Expand the record at rec_ into pending_ and advance rec_. */
    void expandOne();

    std::string path_;
    std::string name_;
    std::shared_ptr<const SharedFile> file_;
    std::uint64_t num_records_ = 0;

    std::uint64_t rec_ = 0; //!< next record index to expand

    /** Raw chunk cache: records [buf_first_, buf_first_+buf_records_). */
    std::vector<std::uint8_t> buf_;
    std::uint64_t buf_first_ = 0;
    std::uint64_t buf_records_ = 0;

    /** Expanded instructions not yet handed out. */
    std::vector<Instruction> pending_;
    std::size_t pending_idx_ = 0;

    InstCount pos_ = 0;
};

} // namespace delorean::workload

#endif // DELOREAN_WORKLOAD_CHAMPSIM_TRACE_HH
