/**
 * @file
 * Little-endian stream codec over the workload/endian.hh packers,
 * shared by the binary record formats that read and write through
 * iostreams (batch/result_io.cc, checkpoint/livepoint.cc).
 *
 * Each format keeps its own exception type and messages through a
 * Format traits type:
 *
 *   struct Format
 *   {
 *       using Error = MyError; // constructible from std::string
 *       static constexpr const char *writing = "my write";
 *       static constexpr const char *reading = "my record";
 *   };
 *
 * which yields "my write failed", "my write: string too long",
 * "my record truncated" and "my record: implausible string length".
 * Everything is inline: readMethodResult runs on every cache probe.
 */

#ifndef DELOREAN_WORKLOAD_ENDIAN_STREAM_HH
#define DELOREAN_WORKLOAD_ENDIAN_STREAM_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <istream>
#include <ostream>
#include <string>

#include "workload/endian.hh"

namespace delorean::workload::le
{

/** Strings longer than this are refused on write and read as garbage:
 *  no legitimate record approaches it, and a reader must not attempt a
 *  huge allocation from a corrupt length. */
constexpr std::uint32_t max_string = 1u << 16;

template <typename Format>
inline void
putBytes(std::ostream &os, const void *data, std::size_t n)
{
    os.write(static_cast<const char *>(data), std::streamsize(n));
    if (!os)
        throw typename Format::Error(std::string(Format::writing) +
                                     " failed");
}

template <typename Format>
inline void
putU8(std::ostream &os, std::uint8_t v)
{
    putBytes<Format>(os, &v, 1);
}

template <typename Format>
inline void
putU32(std::ostream &os, std::uint32_t v)
{
    std::uint8_t b[4];
    putU32(b, v);
    putBytes<Format>(os, b, 4);
}

template <typename Format>
inline void
putU64(std::ostream &os, std::uint64_t v)
{
    std::uint8_t b[8];
    putU64(b, v);
    putBytes<Format>(os, b, 8);
}

template <typename Format>
inline void
putF64(std::ostream &os, double v)
{
    putU64<Format>(os, std::bit_cast<std::uint64_t>(v));
}

template <typename Format>
inline void
putStr(std::ostream &os, const std::string &s)
{
    if (s.size() > max_string)
        throw typename Format::Error(std::string(Format::writing) +
                                     ": string too long");
    putU32<Format>(os, std::uint32_t(s.size()));
    putBytes<Format>(os, s.data(), s.size());
}

template <typename Format>
inline void
getBytes(std::istream &is, void *data, std::size_t n)
{
    is.read(static_cast<char *>(data), std::streamsize(n));
    if (std::size_t(is.gcount()) != n)
        throw typename Format::Error(std::string(Format::reading) +
                                     " truncated");
}

template <typename Format>
inline std::uint8_t
getU8(std::istream &is)
{
    std::uint8_t v;
    getBytes<Format>(is, &v, 1);
    return v;
}

template <typename Format>
inline std::uint32_t
getU32(std::istream &is)
{
    std::uint8_t b[4];
    getBytes<Format>(is, b, 4);
    return getU32(b);
}

template <typename Format>
inline std::uint64_t
getU64(std::istream &is)
{
    std::uint8_t b[8];
    getBytes<Format>(is, b, 8);
    return getU64(b);
}

template <typename Format>
inline double
getF64(std::istream &is)
{
    return std::bit_cast<double>(getU64<Format>(is));
}

template <typename Format>
inline std::string
getStr(std::istream &is)
{
    const std::uint32_t len = getU32<Format>(is);
    if (len > max_string)
        throw typename Format::Error(std::string(Format::reading) +
                                     ": implausible string length");
    std::string s(len, '\0');
    getBytes<Format>(is, s.data(), len);
    return s;
}

} // namespace delorean::workload::le

#endif // DELOREAN_WORKLOAD_ENDIAN_STREAM_HH
