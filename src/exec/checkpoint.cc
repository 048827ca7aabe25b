#include "exec/checkpoint.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "obs/flight.hh"
#include "obs/registry.hh"
#include "sim/result_io.hh"
#include "util/bytes.hh"
#include "util/format.hh"
#include "util/hash.hh"

namespace suit::exec {

namespace {

constexpr char kMagic[8] = {'S', 'U', 'I', 'T', 'J', 'R', 'N', 'L'};
constexpr std::uint32_t kVersion = 1;
constexpr std::size_t kHeaderSize = 8 + 4 + 4 + 8 + 8;

using suit::util::fnv1a64;
using suit::util::getU32;
using suit::util::getU64;
using suit::util::putString;
using suit::util::putU32;
using suit::util::putU64;
using suit::util::putU8;

/** Record payload for one cell outcome. */
std::string
encodePayload(const CellRecord &record)
{
    std::string payload;
    putU64(record.index, payload);
    if (record.isBlob) {
        putU8(2, payload);
        putString(record.blob, payload);
    } else if (record.failed) {
        putU8(1, payload);
        putString(record.error, payload);
    } else {
        putU8(0, payload);
        suit::sim::serializeResult(record.result, payload);
    }
    return payload;
}

/** Frame @p payload as [length][checksum][payload] onto @p out. */
void
encodeRecord(const std::string &payload, std::string &out)
{
    putU32(static_cast<std::uint32_t>(payload.size()), out);
    putU32(static_cast<std::uint32_t>(
               fnv1a64(payload.data(), payload.size()) & 0xFFFFFFFFu),
           out);
    out.append(payload);
}

/**
 * Decode one framed record payload.  Returns false on any structural
 * problem (the caller treats it as a torn tail).
 */
bool
decodePayload(const char *data, std::size_t size, CellRecord &out)
{
    suit::util::ByteReader r(data, size, 0);
    out.index = r.u64();
    const std::uint8_t status = r.u8();
    if (!r.ok() || status > 2)
        return false;
    out.failed = status == 1;
    out.isBlob = status == 2;
    std::size_t offset = r.pos();
    if (out.failed || out.isBlob) {
        (out.isBlob ? out.blob : out.error) = r.str();
        if (!r.ok())
            return false;
        offset = r.pos();
    } else if (!suit::sim::deserializeResult(data, size, offset,
                                             out.result)) {
        return false;
    }
    return offset == size;
}

/**
 * write() all of @p bytes to @p fd, retrying short writes and EINTR.
 * Returns 0 or the errno of the failed write.
 */
int
writeAll(int fd, const std::string &bytes)
{
    const char *data = bytes.data();
    std::size_t left = bytes.size();
    while (left > 0) {
        const ssize_t n = ::write(fd, data, left);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return errno;
        }
        data += n;
        left -= static_cast<std::size_t>(n);
    }
    return 0;
}

/**
 * Make a rename() into @p path durable by fsyncing its directory.
 * Returns 0 or the errno of the failure.  EINVAL means the directory
 * cannot be synced on this filesystem, which leaves nothing to do.
 */
int
syncParentDir(const std::string &path)
{
    const std::size_t slash = path.find_last_of('/');
    const std::string dir = slash == std::string::npos ? "."
                            : slash == 0 ? "/"
                                         : path.substr(0, slash);
    const int fd =
        ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (fd < 0)
        return errno;
    const int err = ::fsync(fd) == 0 || errno == EINVAL ? 0 : errno;
    ::close(fd);
    return err;
}

/** The journal's registry metrics, resolved once per process. */
struct JournalMetrics
{
    obs::MetricId writes;
    obs::MetricId bytesWritten;
    obs::MetricId appendMs;
};

/** The journal metrics, or null while the registry is disabled. */
const JournalMetrics *
journalMetrics()
{
    obs::Registry &reg = obs::metrics();
    if (!reg.enabled())
        return nullptr;
    static const JournalMetrics m{
        reg.counter("exec.journal.writes"),
        reg.counter("exec.journal.bytes_written"),
        reg.histogram("exec.journal.append_ms",
                      {0.01, 0.1, 1.0, 10.0, 100.0, 1000.0})};
    return &m;
}

/** Count one durable write of @p bytes. */
void
countWrite(const JournalMetrics *m, std::size_t bytes)
{
    if (m == nullptr)
        return;
    obs::metrics().add(m->writes);
    obs::metrics().add(m->bytesWritten, bytes);
}

} // namespace

CheckpointJournal::~CheckpointJournal()
{
    if (fd_ >= 0)
        ::close(fd_);
}

void
CheckpointJournal::start(const std::string &path,
                         const GridFingerprint &fp,
                         std::vector<CellRecord> seed)
{
    std::lock_guard lock(mu_);
    if (fd_ >= 0)
        ::close(fd_);
    fd_ = -1;
    path_.clear();

    std::string image;
    image.append(kMagic, sizeof(kMagic));
    putU32(kVersion, image);
    putU32(0, image); // reserved
    putU64(fp.hash, image);
    putU64(fp.cells, image);
    for (const CellRecord &record : seed)
        encodeRecord(encodePayload(record), image);

    // The header (and any resume seed) hits the disk before the run
    // starts: a crash during the first append must recover the
    // restored cells.  The file appears under its name only complete,
    // and the descriptor that wrote it stays open for the appends.
    const JournalMetrics *m = journalMetrics();
    obs::Span write_span("journal.append", "journal",
                         m ? m->appendMs : obs::MetricId{});
    const std::string tmp = path + ".tmp";
    int fd;
    int err;
    {
        obs::Span stage("journal.open", "journal");
        fd = ::open(tmp.c_str(),
                    O_WRONLY | O_APPEND | O_CREAT | O_TRUNC | O_CLOEXEC,
                    0666);
        err = fd < 0 ? errno : 0;
    }
    if (fd < 0)
        throw JournalError(suit::util::sformat(
            "cannot write checkpoint '%s': %s", tmp.c_str(),
            std::strerror(err)));
    {
        obs::Span stage("journal.write", "journal");
        err = writeAll(fd, image);
    }
    {
        obs::Span stage("journal.fsync", "journal");
        if (err == 0 && ::fsync(fd) != 0)
            err = errno;
    }
    {
        obs::Span stage("journal.rename", "journal");
        if (err == 0 && std::rename(tmp.c_str(), path.c_str()) != 0)
            err = errno;
        if (err == 0)
            err = syncParentDir(path);
    }
    if (err != 0) {
        ::close(fd);
        throw JournalError(suit::util::sformat(
            "cannot write checkpoint '%s': %s", path.c_str(),
            std::strerror(err)));
    }
    countWrite(m, image.size());
    path_ = path;
    fd_ = fd;
    durableSize_ = image.size();
}

void
CheckpointJournal::append(const CellRecord &record)
{
    std::string frame;
    encodeRecord(encodePayload(record), frame);
    std::lock_guard lock(mu_);
    if (path_.empty())
        return;
    if (fd_ < 0)
        throw JournalError(suit::util::sformat(
            "checkpoint '%s' is unusable after a failed write",
            path_.c_str()));
    const JournalMetrics *m = journalMetrics();
    obs::Span append_span("journal.append", "journal",
                          m ? m->appendMs : obs::MetricId{});
    int err;
    {
        obs::Span stage("journal.write", "journal");
        err = writeAll(fd_, frame);
    }
    {
        obs::Span stage("journal.fsync", "journal");
        if (err == 0 && ::fdatasync(fd_) != 0)
            err = errno;
    }
    if (err != 0) {
        // Cut a partly written frame back to the last record end on
        // disk: the next append must not land after a torn record.
        // If even that fails, stop writing to the file altogether.
        if (::ftruncate(fd_, static_cast<off_t>(durableSize_)) != 0) {
            ::close(fd_);
            fd_ = -1;
        }
        throw JournalError(suit::util::sformat(
            "cannot write checkpoint '%s': %s", path_.c_str(),
            std::strerror(err)));
    }
    countWrite(m, frame.size());
    durableSize_ += frame.size();
}

JournalContents
CheckpointJournal::load(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        throw JournalError(suit::util::sformat(
            "cannot open checkpoint '%s': %s", path.c_str(),
            std::strerror(errno)));
    std::string bytes;
    char buf[1 << 16];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        bytes.append(buf, n);
    const bool read_error = std::ferror(f) != 0;
    std::fclose(f);
    if (read_error)
        throw JournalError(suit::util::sformat(
            "cannot read checkpoint '%s'", path.c_str()));

    if (bytes.size() < kHeaderSize ||
        std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0)
        throw JournalError(suit::util::sformat(
            "'%s' is not a SUIT checkpoint journal", path.c_str()));
    const std::uint32_t version = getU32(bytes.data() + 8);
    if (version != kVersion)
        throw JournalError(suit::util::sformat(
            "checkpoint '%s' has unsupported version %u (expected "
            "%u)",
            path.c_str(), version, kVersion));

    JournalContents contents;
    contents.fingerprint.hash = getU64(bytes.data() + 16);
    contents.fingerprint.cells = getU64(bytes.data() + 24);

    std::size_t offset = kHeaderSize;
    while (offset < bytes.size()) {
        const std::size_t remaining = bytes.size() - offset;
        if (remaining < 8)
            break; // torn frame header
        const std::uint32_t len = getU32(bytes.data() + offset);
        const std::uint32_t checksum =
            getU32(bytes.data() + offset + 4);
        if (remaining - 8 < len)
            break; // torn payload
        const char *payload = bytes.data() + offset + 8;
        if ((fnv1a64(payload, len) & 0xFFFFFFFFu) != checksum)
            break; // corrupt payload
        CellRecord record;
        if (!decodePayload(payload, len, record))
            break;
        contents.records.push_back(std::move(record));
        offset += 8 + len;
    }
    contents.droppedBytes = bytes.size() - offset;
    return contents;
}

} // namespace suit::exec
