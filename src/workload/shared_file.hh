/**
 * @file
 * SharedFile: one read-only descriptor shared by a trace reader and
 * every clone of it (TraceReader, ChampSimTrace).
 *
 * Reads are pread()s at absolute offsets, so concurrent readers on
 * different threads share no file position, and a clone costs no
 * open(). A clone also keeps reading the file its original opened: a
 * recording replaced at the same path while a cell runs cannot be read
 * half from the old file and half from the new one.
 */

#ifndef DELOREAN_WORKLOAD_SHARED_FILE_HH
#define DELOREAN_WORKLOAD_SHARED_FILE_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

namespace delorean::workload
{

class SharedFile
{
  public:
    /** Open @p path read-only; throws TraceError naming @p what. */
    static std::shared_ptr<const SharedFile> open(const std::string &path,
                                                  const std::string &what);

    ~SharedFile();

    SharedFile(const SharedFile &) = delete;
    SharedFile &operator=(const SharedFile &) = delete;

    /** Bytes in the open file now (it may still be growing). Throws
     *  TraceError. */
    std::uint64_t size() const;

    /**
     * Read up to @p n bytes at byte @p offset into @p buf. @return the
     * bytes read, fewer than @p n only at end of file. Throws
     * TraceError on an I/O error. Safe to call concurrently.
     */
    std::size_t readAt(std::uint64_t offset, void *buf,
                       std::size_t n) const;

  private:
    SharedFile(int fd, std::string what) : fd_(fd), what_(std::move(what))
    {}

    int fd_;
    std::string what_; //!< "trace 'path'" for diagnostics
};

} // namespace delorean::workload

#endif // DELOREAN_WORKLOAD_SHARED_FILE_HH
