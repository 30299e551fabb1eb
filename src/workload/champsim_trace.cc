#include "workload/champsim_trace.hh"

#include <cstring>
#include <filesystem>

#include "workload/endian.hh"
#include "workload/shared_file.hh"

namespace delorean::workload
{

namespace
{

using le::getU64;

// input_instr field offsets.
constexpr std::size_t off_ip = 0;
constexpr std::size_t off_is_branch = 8;
constexpr std::size_t off_branch_taken = 9;
constexpr std::size_t off_dest_mem = 16; // 2 x u64
constexpr std::size_t off_src_mem = 32;  // 4 x u64
constexpr int num_dest_mem = 2;
constexpr int num_src_mem = 4;

} // namespace

ChampSimTrace::ChampSimTrace(const std::string &path)
    : path_(path),
      file_(SharedFile::open(path, "ChampSim trace '" + path + "'"))
{
    const std::uint64_t file_size = file_->size();
    if (file_size == 0)
        throw TraceError("ChampSim trace '" + path + "' is empty");
    if (file_size % record_size != 0)
        throw TraceError(
            "ChampSim trace '" + path + "': size " +
            std::to_string(file_size) + " is not a multiple of " +
            std::to_string(record_size) +
            " bytes — not an uncompressed input_instr stream "
            "(note: .xz/.gz traces must be decompressed first)");
    num_records_ = file_size / record_size;

    name_ = std::filesystem::path(path).stem().string();
}

ChampSimTrace::ChampSimTrace(const ChampSimTrace &other)
    : path_(other.path_),
      name_(other.name_),
      file_(other.file_),
      num_records_(other.num_records_),
      rec_(other.rec_),
      pending_(other.pending_),
      pending_idx_(other.pending_idx_),
      pos_(other.pos_)
{
}

std::unique_ptr<TraceSource>
ChampSimTrace::clone() const
{
    return std::unique_ptr<TraceSource>(new ChampSimTrace(*this));
}

void
ChampSimTrace::reset()
{
    rec_ = 0;
    pending_.clear();
    pending_idx_ = 0;
    pos_ = 0;
}

const std::uint8_t *
ChampSimTrace::rawRecord(std::uint64_t index)
{
    if (index < buf_first_ || index >= buf_first_ + buf_records_) {
        constexpr std::uint64_t chunk_records = 1024;
        const std::uint64_t n =
            std::min(chunk_records, num_records_ - index);
        buf_.resize(std::size_t(n) * record_size);
        if (file_->readAt(index * record_size, buf_.data(),
                          buf_.size()) != buf_.size())
            throw TraceError("ChampSim trace '" + path_ +
                             "': read error (file shrank under us?)");
        buf_first_ = index;
        buf_records_ = n;
    }
    return buf_.data() + std::size_t(index - buf_first_) * record_size;
}

void
ChampSimTrace::expandOne()
{
    // Copy the record out: fetching the successor's ip below may refill
    // the chunk buffer and invalidate the pointer.
    std::uint8_t rec[record_size];
    std::memcpy(rec, rawRecord(rec_), record_size);
    const std::uint64_t successor = (rec_ + 1) % num_records_;
    const Addr next_ip = getU64(rawRecord(successor) + off_ip);
    rec_ = successor;

    pending_.clear();
    pending_idx_ = 0;

    const Addr ip = getU64(rec + off_ip);
    for (int i = 0; i < num_src_mem; ++i) {
        const Addr a = getU64(rec + off_src_mem + 8 * std::size_t(i));
        if (a == 0)
            continue;
        Instruction inst;
        inst.type = InstType::Load;
        inst.pc = ip;
        inst.addr = a;
        pending_.push_back(inst);
    }
    for (int i = 0; i < num_dest_mem; ++i) {
        const Addr a = getU64(rec + off_dest_mem + 8 * std::size_t(i));
        if (a == 0)
            continue;
        Instruction inst;
        inst.type = InstType::Store;
        inst.pc = ip;
        inst.addr = a;
        pending_.push_back(inst);
    }
    if (rec[off_is_branch]) {
        Instruction inst;
        inst.type = InstType::Branch;
        inst.pc = ip;
        inst.taken = rec[off_branch_taken] != 0;
        inst.target = inst.taken ? next_ip : 0;
        pending_.push_back(inst);
    }
    if (pending_.empty()) {
        Instruction inst;
        inst.type = InstType::Other;
        inst.pc = ip;
        pending_.push_back(inst);
    }
}

Instruction
ChampSimTrace::next()
{
    while (pending_idx_ >= pending_.size())
        expandOne();
    ++pos_;
    return pending_[pending_idx_++];
}

} // namespace delorean::workload
