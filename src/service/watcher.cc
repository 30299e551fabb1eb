#include "service/watcher.hh"

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "base/logging.hh"
#include "batch/error.hh"
#include "service/protocol.hh"

namespace delorean::service
{

namespace fs = std::filesystem;

namespace
{

constexpr const char *plan_suffix = ".plan";
constexpr const char *done_subdir = "done";
constexpr const char *failed_subdir = "failed";

bool
isPlanName(const std::string &name)
{
    const std::string suffix = plan_suffix;
    return name.size() > suffix.size() &&
           name.compare(name.size() - suffix.size(), suffix.size(),
                        suffix) == 0;
}

/** FNV-1a 64 over the manifest bytes — the change detector, not a key. */
std::uint64_t
contentDigest(const std::string &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

void
makeDir(const std::string &path)
{
    std::error_code ec;
    fs::create_directories(path, ec);
    if (ec)
        throw ServiceError("cannot create spool directory '" + path +
                           "': " + ec.message());
}

} // namespace

ManifestWatcher::ManifestWatcher(const std::string &spool_dir)
    : dir_(spool_dir)
{
    if (dir_.empty())
        throw ServiceError("empty spool directory");
    makeDir(dir_);
    makeDir(dir_ + "/" + done_subdir);
    makeDir(dir_ + "/" + failed_subdir);
}

std::vector<SpoolPickup>
ManifestWatcher::scan()
{
    // Phase 1 (locked): stat pass — stability bookkeeping only, no
    // file contents. Collect the stable, idle candidates.
    std::vector<std::string> candidates;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        std::map<std::string, std::pair<std::int64_t, std::uint64_t>>
            seen;
        // A failed directory read must NOT look like an empty spool:
        // wiping entries_ on a transient EACCES/NFS hiccup would drop
        // in_flight and processed_digest guards (resubmitting stuck
        // manifests every poll, archiving edited ones). Warn and keep
        // the previous state until the next successful pass.
        std::error_code ec;
        fs::directory_iterator dit(dir_, ec);
        if (ec) {
            warn("spool: cannot scan %s: %s", dir_.c_str(),
                 ec.message().c_str());
            return {};
        }
        try {
            for (const auto &de : dit) {
                std::error_code fec;
                if (!de.is_regular_file(fec))
                    continue;
                const std::string name =
                    de.path().filename().string();
                if (!isPlanName(name))
                    continue;
                const auto mtime = de.last_write_time(fec);
                if (fec)
                    continue; // vanished mid-scan
                const auto size = de.file_size(fec);
                if (fec)
                    continue;
                seen.emplace(
                    name,
                    std::make_pair(
                        std::int64_t(std::chrono::duration_cast<
                                         std::chrono::nanoseconds>(
                                         mtime.time_since_epoch())
                                         .count()),
                        std::uint64_t(size)));
            }
        } catch (const fs::filesystem_error &e) {
            warn("spool: scan of %s failed: %s", dir_.c_str(),
                 e.what());
            return {};
        }
        for (auto it = entries_.begin(); it != entries_.end();)
            it = seen.count(it->first) ? std::next(it)
                                       : entries_.erase(it);

        for (const auto &[name, stat] : seen) {
            Entry &entry = entries_[name];
            const auto [mtime_ns, size] = stat;
            if (entry.mtime_ns != mtime_ns || entry.size != size) {
                // New or still being written: wait for a quiet scan.
                entry.mtime_ns = mtime_ns;
                entry.size = size;
                continue;
            }
            // Unchanged across two scans: stable enough to read.
            if (!entry.in_flight)
                candidates.push_back(name);
        }
    }

    // Phase 2 (unlocked): read and digest the candidates. File I/O
    // and — below — manifest parsing (which digests any referenced
    // trace files, potentially large) must not hold the mutex:
    // workers calling moveDone/moveFailed would stall behind it.
    struct Snapshot
    {
        std::string name;
        std::string path;
        std::string text;
        std::uint64_t digest = 0;
    };
    std::vector<Snapshot> snapshots;
    for (const auto &name : candidates) {
        Snapshot snap;
        snap.name = name;
        snap.path = dir_ + "/" + name;
        std::ifstream is(snap.path, std::ios::binary);
        if (!is)
            continue; // transient (permissions, vanishing); retry later
        std::ostringstream buffer;
        buffer << is.rdbuf();
        snap.text = buffer.str();
        snap.digest = contentDigest(snap.text);
        snapshots.push_back(std::move(snap));
    }

    // Phase 3 (locked): claim — mark in_flight and record the digest
    // so no concurrent scan double-submits, skipping anything already
    // processed at this content.
    std::vector<Snapshot> claimed;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (auto &snap : snapshots) {
            const auto it = entries_.find(snap.name);
            if (it == entries_.end() || it->second.in_flight)
                continue;
            if (it->second.processed_digest &&
                *it->second.processed_digest == snap.digest)
                continue; // already handled; probably a failed move
            it->second.processed_digest = snap.digest;
            it->second.in_flight = true;
            ++processed_;
            claimed.push_back(std::move(snap));
        }
    }

    // Phase 4 (unlocked): parse the claimed snapshots — the *exact
    // bytes* digested above, so the digest gate and the plan can
    // never diverge.
    std::vector<SpoolPickup> ready;
    for (const auto &snap : claimed) {
        try {
            ready.push_back({snap.path, snap.name,
                             batch::BatchPlan::fromManifestText(
                                 snap.text, snap.path)});
        } catch (const std::exception &e) {
            moveFailed(snap.path, e.what());
        }
    }
    return ready;
}

void
ManifestWatcher::moveLocked(const std::string &path,
                            const std::string &subdir,
                            const std::string *error)
{
    const std::string name = fs::path(path).filename().string();

    // Archive only the content that actually ran: if the file was
    // edited while its job was in flight, renaming it would file the
    // *new*, never-executed bytes under done/ — silently swallowing a
    // resubmission. Leave it in place instead; its digest differs
    // from processed_digest, so the next scan picks it up fresh.
    // (An edit after this check and before the rename below can still
    // lose — polling can narrow that window, not close it.)
    const auto it = entries_.find(name);
    if (it != entries_.end() && it->second.processed_digest) {
        std::ifstream is(path, std::ios::binary);
        if (is) {
            std::ostringstream buffer;
            buffer << is.rdbuf();
            if (contentDigest(buffer.str()) !=
                *it->second.processed_digest) {
                warn("spool: %s changed while its job ran; leaving "
                     "it for re-pickup", path.c_str());
                it->second.in_flight = false;
                return;
            }
        }
    }

    const std::string base = dir_ + "/" + subdir + "/" + name;
    std::string target = base;
    for (unsigned n = 1;; ++n) {
        std::error_code ec;
        if (!fs::exists(target, ec))
            break;
        target = base + "." + std::to_string(n);
    }

    // The .err sidecar goes first, so the manifest never shows up in
    // failed/ ahead of its reason. It is the only place the failure
    // reason survives — if it cannot be written (permissions, full
    // disk), say so in the log rather than archiving a silent failure.
    const std::string err_path = target + ".err";
    if (error) {
        std::ofstream os(err_path, std::ios::trunc);
        os << *error << "\n";
        os.flush();
        if (!os)
            warn("spool: cannot write failure reason to %s (job "
                 "archived without it): %s", err_path.c_str(),
                 error->c_str());
    }
    std::error_code ec;
    fs::rename(path, target, ec);
    if (ec) {
        // The manifest is stuck in the spool. Keep its entry (with
        // processed_digest set) so it is not resubmitted every poll,
        // but clear in_flight so a future *edit* can resubmit it.
        warn("spool: cannot move %s to %s/: %s", path.c_str(),
             subdir.c_str(), ec.message().c_str());
        if (error)
            fs::remove(err_path, ec);
        const auto it = entries_.find(name);
        if (it != entries_.end())
            it->second.in_flight = false;
        return;
    }
    // Moved away: forget the path entirely. A later drop at the same
    // name — even with identical content — is a fresh submission.
    entries_.erase(name);
}

void
ManifestWatcher::moveDone(const std::string &path)
{
    std::lock_guard<std::mutex> lock(mutex_);
    moveLocked(path, done_subdir, nullptr);
}

void
ManifestWatcher::moveFailed(const std::string &path,
                            const std::string &error)
{
    std::lock_guard<std::mutex> lock(mutex_);
    moveLocked(path, failed_subdir, &error);
}

} // namespace delorean::service
