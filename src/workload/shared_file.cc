#include "workload/shared_file.hh"

#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "workload/trace_io.hh"

namespace delorean::workload
{

std::shared_ptr<const SharedFile>
SharedFile::open(const std::string &path, const std::string &what)
{
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        throw TraceError("cannot open " + what + ": " +
                         std::strerror(errno));
    return std::shared_ptr<const SharedFile>(new SharedFile(fd, what));
}

SharedFile::~SharedFile()
{
    ::close(fd_);
}

std::uint64_t
SharedFile::size() const
{
    struct stat st;
    if (::fstat(fd_, &st) != 0)
        throw TraceError(what_ + ": cannot stat: " + std::strerror(errno));
    return std::uint64_t(st.st_size);
}

std::size_t
SharedFile::readAt(std::uint64_t offset, void *buf, std::size_t n) const
{
    auto *out = static_cast<char *>(buf);
    std::size_t done = 0;
    while (done < n) {
        const ssize_t got =
            ::pread(fd_, out + done, n - done, off_t(offset + done));
        if (got < 0) {
            if (errno == EINTR)
                continue;
            throw TraceError(what_ + ": read error: " +
                             std::strerror(errno));
        }
        if (got == 0)
            break; // end of file
        done += std::size_t(got);
    }
    return done;
}

} // namespace delorean::workload
