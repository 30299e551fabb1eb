#include "workload/trace_io.hh"

#include <algorithm>
#include <cstring>
#include <filesystem>

#include "workload/endian.hh"
#include "workload/shared_file.hh"

namespace delorean::workload
{

namespace
{

using le::getU32;
using le::getU64;
using le::putU32;
using le::putU64;

void
encodeRecord(std::uint8_t *p, const Instruction &inst)
{
    putU64(p + 0, inst.pc);
    putU64(p + 8, inst.addr);
    putU64(p + 16, inst.target);
    p[24] = std::uint8_t(inst.type);
    p[25] = std::uint8_t((inst.taken ? TraceFormat::flag_taken : 0) |
                         (inst.dep_load ? TraceFormat::flag_dep_load : 0));
    p[26] = inst.latency;
    std::memset(p + 27, 0, 5);
}

Instruction
decodeRecord(const std::uint8_t *p, const std::string &path,
             InstCount index)
{
    const std::uint8_t type = p[24];
    const std::uint8_t flags = p[25];
    bool garbage = type > std::uint8_t(InstType::Other) ||
                   (flags & ~(TraceFormat::flag_taken |
                              TraceFormat::flag_dep_load)) != 0;
    for (int i = 27; i < 32; ++i)
        garbage = garbage || p[i] != 0;
    if (garbage) {
        throw TraceError("trace '" + path + "': garbage record at index " +
                         std::to_string(index) +
                         " (bad type/flags/reserved bytes)");
    }

    Instruction inst;
    inst.pc = getU64(p + 0);
    inst.addr = getU64(p + 8);
    inst.target = getU64(p + 16);
    inst.type = InstType(type);
    inst.taken = (flags & TraceFormat::flag_taken) != 0;
    inst.dep_load = (flags & TraceFormat::flag_dep_load) != 0;
    inst.latency = p[26];
    return inst;
}

/** Serialized header (fixed part + name). */
std::vector<std::uint8_t>
encodeHeader(const std::string &name, InstCount count)
{
    std::vector<std::uint8_t> h(TraceFormat::header_size + name.size());
    std::memcpy(h.data(), TraceFormat::magic.data(), 8);
    putU32(h.data() + 8, TraceFormat::version);
    putU32(h.data() + 12, TraceFormat::record_size);
    putU64(h.data() + 16, count);
    putU32(h.data() + 24, 0); // reserved
    putU32(h.data() + 28, std::uint32_t(name.size()));
    std::memcpy(h.data() + TraceFormat::header_size, name.data(),
                name.size());
    return h;
}

} // namespace

// -------------------------------------------------------------- writer

TraceWriter::TraceWriter(const std::string &path, const std::string &name)
    : out_(path, std::ios::binary | std::ios::trunc), path_(path)
{
    if (!out_)
        throw TraceError("cannot create trace file '" + path + "'");
    if (name.size() > TraceFormat::max_name_len)
        throw TraceError("trace name too long (" +
                         std::to_string(name.size()) + " bytes)");
    // Count is not known yet; finish() patches it in place.
    const auto header = encodeHeader(name, 0);
    out_.write(reinterpret_cast<const char *>(header.data()),
               std::streamsize(header.size()));
    if (!out_)
        throw TraceError("write error on trace file '" + path + "'");
}

TraceWriter::TraceWriter(const std::string &path, const std::string &name,
                         InstCount declared)
    : out_(path, std::ios::binary | std::ios::trunc),
      path_(path),
      declared_(declared),
      declared_mode_(true)
{
    if (!out_)
        throw TraceError("cannot create trace file '" + path + "'");
    if (name.size() > TraceFormat::max_name_len)
        throw TraceError("trace name too long (" +
                         std::to_string(name.size()) + " bytes)");
    const auto header = encodeHeader(name, declared);
    out_.write(reinterpret_cast<const char *>(header.data()),
               std::streamsize(header.size()));
    if (!out_)
        throw TraceError("write error on trace file '" + path + "'");
}

TraceWriter::~TraceWriter()
{
    try {
        finish();
    } catch (const TraceError &) {
        // Destructors must not throw; call finish() directly to
        // observe close/flush failures.
    }
}

void
TraceWriter::append(const Instruction &inst)
{
    if (finished_)
        throw TraceError("append to finished trace '" + path_ + "'");
    if (declared_mode_ && written_ == declared_)
        throw TraceError("trace '" + path_ + "': append past the " +
                         std::to_string(declared_) +
                         " declared records");
    std::uint8_t rec[TraceFormat::record_size];
    encodeRecord(rec, inst);
    out_.write(reinterpret_cast<const char *>(rec), sizeof(rec));
    if (!out_)
        throw TraceError("write error on trace file '" + path_ + "'");
    ++written_;
}

void
TraceWriter::finish()
{
    if (finished_)
        return;
    if (declared_mode_ && written_ != declared_)
        throw TraceError("trace '" + path_ + "': finished after " +
                         std::to_string(written_) + " of " +
                         std::to_string(declared_) +
                         " declared records");
    if (!declared_mode_) {
        std::uint8_t count[8];
        putU64(count, written_);
        out_.seekp(16); // inst_count field
        out_.write(reinterpret_cast<const char *>(count),
                   sizeof(count));
    }
    out_.close();
    if (out_.fail())
        throw TraceError("close error on trace file '" + path_ + "'");
    // Only marked done on success: a failed finish() stays observable
    // on retry instead of silently reporting completion.
    finished_ = true;
}

// -------------------------------------------------------------- reader

TraceReader::TraceReader(const std::string &path,
                         InstCount limit_records)
    : path_(path),
      file_(SharedFile::open(path, "trace file '" + path + "'"))
{
    std::uint8_t fixed[TraceFormat::header_size];
    if (file_->readAt(0, fixed, sizeof(fixed)) != sizeof(fixed))
        throw TraceError("trace '" + path + "': truncated header");

    if (std::memcmp(fixed, TraceFormat::magic.data(), 8) != 0)
        throw TraceError("trace '" + path +
                         "': bad magic (not a DeLorean trace)");
    const std::uint32_t version = getU32(fixed + 8);
    if (version != TraceFormat::version)
        throw TraceError("trace '" + path + "': unsupported version " +
                         std::to_string(version) + " (expected " +
                         std::to_string(TraceFormat::version) + ")");
    const std::uint32_t record_size = getU32(fixed + 12);
    if (record_size != TraceFormat::record_size)
        throw TraceError("trace '" + path + "': record size " +
                         std::to_string(record_size) + " != " +
                         std::to_string(TraceFormat::record_size));
    count_ = getU64(fixed + 16);
    if (getU32(fixed + 24) != 0)
        throw TraceError("trace '" + path +
                         "': reserved header field is nonzero");
    const std::uint32_t name_len = getU32(fixed + 28);
    if (name_len > TraceFormat::max_name_len)
        throw TraceError("trace '" + path + "': name length " +
                         std::to_string(name_len) + " exceeds limit");

    name_.resize(name_len);
    if (file_->readAt(TraceFormat::header_size, name_.data(), name_len) !=
        name_len)
        throw TraceError("trace '" + path + "': truncated header name");
    data_offset_ = TraceFormat::header_size + name_len;

    const std::uint64_t file_size = file_->size();
    if (limit_records > 0) {
        // Prefix mode: the file may still be growing, so only the
        // first limit_records records need to exist — but the header
        // must already declare at least that many, so a prefix read
        // can never outrun the final recording.
        if (limit_records > count_)
            throw TraceError(
                "trace '" + path + "': limit of " +
                std::to_string(limit_records) + " records exceeds the " +
                std::to_string(count_) + " the header declares");
        const std::uint64_t needed =
            data_offset_ +
            limit_records * std::uint64_t(TraceFormat::record_size);
        if (file_size < needed)
            throw TraceError(
                "trace '" + path + "': truncated payload (" +
                std::to_string(file_size) + " bytes, a " +
                std::to_string(limit_records) +
                "-record prefix needs " + std::to_string(needed) + ")");
        count_ = limit_records;
        return;
    }
    const std::uint64_t expected =
        data_offset_ + count_ * std::uint64_t(TraceFormat::record_size);
    if (file_size < expected)
        throw TraceError(
            "trace '" + path + "': truncated payload (" +
            std::to_string(file_size) + " bytes, header promises " +
            std::to_string(expected) + ")");
    if (file_size > expected)
        throw TraceError("trace '" + path + "': " +
                         std::to_string(file_size - expected) +
                         " trailing bytes after the last record");
}

TraceReader::TraceReader(const TraceReader &other)
    : path_(other.path_),
      name_(other.name_),
      file_(other.file_),
      count_(other.count_),
      pos_(other.pos_),
      data_offset_(other.data_offset_)
{
}

void
TraceReader::seek(InstCount pos)
{
    if (pos > count_)
        throw TraceError("trace '" + path_ + "': seek to " +
                         std::to_string(pos) + " beyond the " +
                         std::to_string(count_) + " recorded records");
    pos_ = pos;
}

void
TraceReader::refill()
{
    constexpr InstCount chunk_records = 4096;
    const InstCount n = std::min(chunk_records, count_ - pos_);
    buf_.resize(std::size_t(n) * TraceFormat::record_size);
    if (file_->readAt(data_offset_ + pos_ * TraceFormat::record_size,
                      buf_.data(), buf_.size()) != buf_.size())
        throw TraceError("trace '" + path_ +
                         "': read error (file shrank under us?)");
    buf_first_ = pos_;
    buf_records_ = n;
}

Instruction
TraceReader::next()
{
    if (pos_ >= count_)
        throw TraceError("trace '" + path_ + "': exhausted after " +
                         std::to_string(count_) + " instructions");
    if (pos_ < buf_first_ || pos_ >= buf_first_ + buf_records_)
        refill();
    const std::uint8_t *rec =
        buf_.data() +
        std::size_t(pos_ - buf_first_) * TraceFormat::record_size;
    ++decoded_;
    return decodeRecord(rec, path_, pos_++);
}

InstCount
TraceReader::memLines(Addr *lines, InstCount n)
{
    if (n > count_ - pos_)
        throw TraceError("trace '" + path_ + "': exhausted after " +
                         std::to_string(count_) + " instructions");

    InstCount m = 0;
    InstCount left = n;
    while (left > 0) {
        if (pos_ < buf_first_ || pos_ >= buf_first_ + buf_records_)
            refill();
        const InstCount avail =
            std::min(left, buf_first_ + buf_records_ - pos_);
        const std::uint8_t *rec =
            buf_.data() +
            std::size_t(pos_ - buf_first_) * TraceFormat::record_size;

        // Branch-light sweep over the raw chunk: the validation below
        // is byte-for-byte what decodeRecord() checks, but folded into
        // one OR-accumulated predicate, and only type + address are
        // ever materialized.
        for (InstCount i = 0; i < avail;
             ++i, rec += TraceFormat::record_size) {
            const std::uint8_t type = rec[24];
            const std::uint8_t flags = rec[25];
            const std::uint8_t tail =
                rec[27] | rec[28] | rec[29] | rec[30] | rec[31];
            const bool garbage =
                type > std::uint8_t(InstType::Other) ||
                (flags & ~(TraceFormat::flag_taken |
                           TraceFormat::flag_dep_load)) != 0 ||
                tail != 0;
            if (garbage) [[unlikely]] {
                throw TraceError(
                    "trace '" + path_ + "': garbage record at index " +
                    std::to_string(pos_ + i) +
                    " (bad type/flags/reserved bytes)");
            }
            if (type <= std::uint8_t(InstType::Store))
                lines[m++] = lineOf(getU64(rec + 8));
        }
        decoded_ += avail;
        pos_ += avail;
        left -= avail;
    }
    return m;
}

// ----------------------------------------------------------- FileTrace

FileTrace::FileTrace(const std::string &path, bool loop,
                     InstCount limit_records)
    : reader_(path, limit_records), loop_(loop)
{
    if (loop_ && reader_.instCount() == 0)
        throw TraceError("trace '" + path +
                         "': cannot loop an empty trace");
}

Instruction
FileTrace::next()
{
    if (loop_ && reader_.position() == reader_.instCount())
        reader_.seek(0);
    const Instruction inst = reader_.next();
    ++pos_;
    return inst;
}

void
FileTrace::skip(InstCount n)
{
    // Fixed-width records: skipping is pure arithmetic on the position.
    // No record is read or decoded (asserted by the tests).
    const InstCount count = reader_.instCount();
    const InstCount reader_pos = reader_.position();
    if (loop_) {
        reader_.seek((reader_pos + n) % count);
    } else {
        if (n > count - reader_pos)
            throw TraceError(
                "trace '" + reader_.path() + "': skip(" +
                std::to_string(n) + ") at position " +
                std::to_string(reader_pos) + " overruns the " +
                std::to_string(count) + " recorded instructions");
        reader_.seek(reader_pos + n);
    }
    pos_ += n;
}

InstCount
FileTrace::memLines(Addr *lines, InstCount n)
{
    InstCount m = 0;
    InstCount left = n;
    while (left > 0) {
        if (loop_ && reader_.position() == reader_.instCount())
            reader_.seek(0);
        const InstCount avail =
            loop_ ? std::min(left,
                             reader_.instCount() - reader_.position())
                  : left;
        m += reader_.memLines(lines + m, avail);
        pos_ += avail;
        left -= avail;
    }
    return m;
}

FileTrace::FileTrace(const FileTrace &other)
    : reader_(other.reader_), loop_(other.loop_), pos_(other.pos_)
{
}

std::unique_ptr<TraceSource>
FileTrace::clone() const
{
    // The whole checkpoint is an offset: the reader copy shares the
    // open file and inherits the validated metadata.
    return std::unique_ptr<TraceSource>(new FileTrace(*this));
}

void
FileTrace::reset()
{
    reader_.seek(0);
    pos_ = 0;
}

// ---------------------------------------------------------- recordTrace

InstCount
recordTrace(TraceSource &source, InstCount count, const std::string &path)
{
    try {
        TraceWriter writer(path, source.name());
        for (InstCount i = 0; i < count; ++i)
            writer.append(source.next());
        writer.finish();
        return writer.written();
    } catch (...) {
        // Don't leave a valid-looking truncated recording behind when
        // the source or the writer fails partway.
        std::error_code ec;
        std::filesystem::remove(path, ec);
        throw;
    }
}

} // namespace delorean::workload
