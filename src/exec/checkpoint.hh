/**
 * @file
 * Crash-safe checkpoint journal for sweep grids.
 *
 * A CheckpointJournal persists one record per completed (or
 * terminally failed) grid cell so an interrupted sweep can resume
 * without re-running finished cells.  The on-disk layout is an
 * append-structured stream:
 *
 *   header:  magic "SUITJRNL", format version, grid fingerprint
 *            (axis hash + cell count)
 *   records: [payload length u32][payload checksum u32][payload]
 *   payload: [cell index u64][status u8]
 *            status 0 (ok):     serialized DomainResult
 *            status 1 (failed): error string (u32 length + bytes)
 *            status 2 (blob):   opaque bytes (u32 length + bytes);
 *                               the engine owning the journal defines
 *                               the encoding (the fleet engine stores
 *                               serialized shard accumulators)
 *
 * Durability: start() writes the header (plus any resume seed) to
 * `<path>.tmp`, fsyncs it, rename()s it over `<path>` and fsyncs the
 * directory, so a fresh or resumed journal appears atomically and
 * survives a power loss — it is never torn at that point.  From
 * then on records are appended to the same descriptor (O_APPEND) and
 * made durable with fdatasync; no record is ever rewritten.  A kill
 * mid-append can therefore leave one torn frame at the tail, which
 * load() drops; a failed write is cut back to the last durable record
 * boundary, so a later append never lands after a torn record.  Each
 * append() is one write + fdatasync, so a record is durable when the
 * call returns; an engine that wants fewer syncs journals coarser
 * units (the fleet engine's --shard sets how many domains one record
 * covers).  The loader is defensive: records are length- and
 * checksum-framed, and load() keeps the longest valid prefix of a
 * truncated or corrupted file (reporting the dropped byte count)
 * instead of refusing it, so a journal damaged by a crash or outside
 * our control resumes as far as possible.
 *
 * The grid fingerprint ties a journal to the exact grid that
 * produced it: SweepEngine hashes every cell's CPU, core count,
 * strategy (kind + parameters), offset, run mode, workload and seed.
 * Resuming against a journal whose fingerprint differs is refused —
 * silently mixing results of two different grids would be far worse
 * than re-running one.
 */

#ifndef SUIT_EXEC_CHECKPOINT_HH
#define SUIT_EXEC_CHECKPOINT_HH

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/domain_sim.hh"

namespace suit::exec {

/** Identity of a sweep grid: cell count + hash over every axis. */
struct GridFingerprint
{
    /** Number of grid cells. */
    std::uint64_t cells = 0;
    /** Order-sensitive hash over every cell's configuration. */
    std::uint64_t hash = 0;

    bool operator==(const GridFingerprint &) const = default;
};

/** One journal entry: the outcome of a single grid cell. */
struct CellRecord
{
    /** Grid cell index (position in the job list). */
    std::uint64_t index = 0;
    /** True if the cell threw and was recorded as failed. */
    bool failed = false;
    /** Failure description (failed records only). */
    std::string error;
    /** Cell result (ok records only). */
    suit::sim::DomainResult result;
    /**
     * True for an opaque-payload record (status 2): `blob` carries
     * engine-defined bytes instead of a DomainResult.  Mutually
     * exclusive with `failed`.
     */
    bool isBlob = false;
    /** Opaque payload (blob records only). */
    std::string blob;

    /** A blob record carrying @p bytes for cell @p cell. */
    static CellRecord blobRecord(std::uint64_t cell,
                                 std::string bytes)
    {
        CellRecord record;
        record.index = cell;
        record.isBlob = true;
        record.blob = std::move(bytes);
        return record;
    }
};

/** Unusable journal file (bad magic/version, unreadable, mismatch). */
class JournalError : public std::runtime_error
{
  public:
    explicit JournalError(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

/** Everything recovered from a journal file. */
struct JournalContents
{
    /** Fingerprint of the grid the journal belongs to. */
    GridFingerprint fingerprint;
    /** Complete records, in file order. */
    std::vector<CellRecord> records;
    /**
     * Bytes of a torn or corrupt tail that were dropped during
     * recovery (0 for a clean journal).
     */
    std::size_t droppedBytes = 0;
};

/**
 * Append-only results journal: atomic start, fdatasync'd appends.
 *
 * A default-constructed journal is inert: append() is a no-op, so
 * engine code can call it unconditionally.  append() is thread-safe —
 * sweep workers complete cells concurrently.
 */
class CheckpointJournal
{
  public:
    CheckpointJournal() = default;

    /** Closes the journal file. */
    ~CheckpointJournal();

    CheckpointJournal(const CheckpointJournal &) = delete;
    CheckpointJournal &operator=(const CheckpointJournal &) = delete;

    /** True once start() bound the journal to a file. */
    bool active() const { return !path_.empty(); }

    /**
     * Bind to @p path and write a fresh header (plus @p seed records
     * recovered by a resume), atomically replacing any existing file.
     *
     * @throws JournalError if the file cannot be written.
     */
    void start(const std::string &path, const GridFingerprint &fp,
               std::vector<CellRecord> seed = {});

    /**
     * Append one record (thread-safe): write its frame and fdatasync
     * it, so the record is durable on return.
     *
     * @throws JournalError if the write fails; the file is first cut
     *         back to its last complete record.
     */
    void append(const CellRecord &record);

    /**
     * Parse the journal at @p path.
     *
     * @throws JournalError if the file is missing, unreadable, or
     *         not a journal (bad magic / unsupported version).
     *         Truncated or corrupt *records* do not throw: the valid
     *         prefix is returned and droppedBytes reports the loss.
     */
    static JournalContents load(const std::string &path);

  private:
    std::mutex mu_;
    std::string path_;
    int fd_ = -1; //!< O_APPEND descriptor on path_; -1 if unusable
    std::uint64_t durableSize_ = 0; //!< on-disk size, at a record end
};

} // namespace suit::exec

#endif // SUIT_EXEC_CHECKPOINT_HH
