/**
 * @file
 * Instruction-trace representation (paper Sec. 5.1).
 *
 * The paper records, via a QEMU plugin, *when* the faultable
 * instructions occur within a program's instruction stream; all other
 * instructions only matter in aggregate (their count and IPC).  A
 * Trace therefore stores the faultable events as (gap, kind) pairs —
 * the gap being the number of ordinary instructions since the
 * previous faultable one — plus the stream's total length and
 * measured IPC.  This is exactly the information the paper's
 * event-based evaluation consumes, and it compresses billions of
 * instructions into a few thousand events.
 *
 * In memory the events are columns (EventColumns), ~5 bytes each: a
 * u32 gap with an escape to a side table for gaps of 2^32 - 1 or
 * more, a one-byte kind, and a block index of absolute positions
 * every 64 events.  The trace cache charges memoryBytes(), so this
 * footprint decides how many traces a campaign keeps resident.
 */

#ifndef SUIT_TRACE_TRACE_HH
#define SUIT_TRACE_TRACE_HH

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <string>
#include <vector>

#include "isa/faultable.hh"
#include "util/stats.hh"

namespace suit::trace {

/** One faultable-instruction occurrence in a trace. */
struct FaultableEvent
{
    /** Ordinary instructions executed since the previous event. */
    std::uint64_t gap = 0;
    /** Which faultable instruction occurred. */
    suit::isa::FaultableKind kind = suit::isa::FaultableKind::IMUL;
};

/**
 * A trace's events stored as columns, ~5 bytes per event: a u32 gap
 * column and a 1-byte kind column.  A gap that does not fit below
 * kGapEscape stores kGapEscape and keeps its real value in a sorted
 * (index, gap) side table.  Every kBlockEvents-th event's absolute
 * instruction index is kept as well (0.125 B/event), so
 * Trace::eventIndex() needs no per-event prefix sum.
 *
 * Built by appending events in stream order.  Converts implicitly
 * from a std::vector or brace list of FaultableEvent, so a Trace can
 * be constructed from either.
 */
class EventColumns
{
  public:
    /** Gap-column value meaning "look the gap up in the side table". */
    static constexpr std::uint32_t kGapEscape = 0xFFFFFFFFU;
    /** Events per eventIndex() block. */
    static constexpr std::size_t kBlockEvents = 64;

    EventColumns() = default;
    /** @{ Implicit conversions from a list of events. */
    EventColumns(const std::vector<FaultableEvent> &events);
    EventColumns(std::initializer_list<FaultableEvent> events)
        : EventColumns(std::vector<FaultableEvent>(events))
    {
    }
    /** @} */

    /** Reserve room for @p n events. */
    void reserve(std::size_t n);

    /** Append the next event in stream order. */
    void push_back(std::uint64_t gap, suit::isa::FaultableKind kind);

    /** Number of events. */
    std::size_t size() const { return kinds_.size(); }

    /**
     * Instructions the events span: the sum of every gap plus one
     * per event, i.e. the stream position just past the last event.
     */
    std::uint64_t span() const { return span_; }

  private:
    friend class Trace;

    /** A gap of kGapEscape or more, at event @p index. */
    struct EscapedGap
    {
        std::size_t index;
        std::uint64_t gap;
    };

    std::vector<std::uint32_t> gaps_;
    std::vector<suit::isa::FaultableKind> kinds_;
    std::vector<EscapedGap> escapes_;        //!< sorted by index
    std::vector<std::uint64_t> blockStarts_; //!< eventIndex(b * 64)
    std::uint64_t span_ = 0;
};

/** A recorded (or synthesised) instruction stream. */
class Trace
{
  public:
    class EventView;

    Trace() = default;

    /**
     * @param name workload label.
     * @param total_instructions stream length including the events.
     * @param ipc average retired instructions per cycle, used to
     *        convert instruction counts to cycles (the paper uses the
     *        INSTRUCTIONS_RETIRED counter for the same purpose).
     * @param events faultable occurrences in stream order; the
     *        columns are shrunk to fit, so memoryBytes() carries no
     *        reserve slack.
     * @param event_weight trace-thinning factor: how many real
     *        faultable instructions each event stands for.
     */
    Trace(std::string name, std::uint64_t total_instructions, double ipc,
          EventColumns events, double event_weight = 1.0);

    /** Workload label. */
    const std::string &name() const { return name_; }
    /** Total instruction count of the stream. */
    std::uint64_t totalInstructions() const { return totalInstructions_; }
    /** Average IPC of the stream. */
    double ipc() const { return ipc_; }
    /** The faultable events in stream order, yielded by value. */
    EventView events() const;

    /** Gap before event @p i (one u32 load unless escaped). */
    std::uint64_t gap(std::size_t i) const
    {
        const std::uint32_t g = events_.gaps_[i];
        if (g != EventColumns::kGapEscape) [[likely]]
            return g;
        return escapedGap(i);
    }

    /**
     * The raw gap column: entry i is gap(i) unless it equals
     * EventColumns::kGapEscape.  Lets a hot loop hoist the load.
     */
    const std::uint32_t *gapColumn() const
    {
        return events_.gaps_.data();
    }

    /** Kind of event @p i. */
    suit::isa::FaultableKind kind(std::size_t i) const
    {
        return events_.kinds_[i];
    }

    /** The kind column: entry i is kind(i). */
    const suit::isa::FaultableKind *kindColumn() const
    {
        return events_.kinds_.data();
    }

    /** Real faultable instructions represented by one event. */
    double eventWeight() const { return eventWeight_; }

    /** Number of faultable events. */
    std::size_t eventCount() const { return events_.size(); }

    /**
     * Absolute instruction index of event @p i (0-based position in
     * the stream).  Walks at most kBlockEvents gaps from the nearest
     * block start.
     */
    std::uint64_t eventIndex(std::size_t i) const;

    /**
     * Ordinary instructions after the last faultable event (the tail
     * the simulator drains once every event is consumed).  Panics —
     * instead of wrapping around to ~2^64 — on an inconsistent trace
     * whose last event index reaches past totalInstructions(); the
     * constructor rejects such traces, so tripping this means the
     * trace was corrupted after construction.
     */
    std::uint64_t tailInstructions() const;

    /**
     * Approximate heap footprint of this trace (object header plus
     * the event columns, escape table and block index).  Drives the
     * trace cache's LRU byte accounting.
     */
    std::size_t memoryBytes() const
    {
        return sizeof(Trace) + name_.capacity() +
               events_.gaps_.capacity() * sizeof(std::uint32_t) +
               events_.kinds_.capacity() *
                   sizeof(suit::isa::FaultableKind) +
               events_.escapes_.capacity() *
                   sizeof(EventColumns::EscapedGap) +
               events_.blockStarts_.capacity() * sizeof(std::uint64_t);
    }

  private:
    friend class TraceTestPeer; //!< test-only corruption hook

    /** Gap of an escaped event, from the side table. */
    std::uint64_t escapedGap(std::size_t i) const;

    std::string name_;
    std::uint64_t totalInstructions_ = 0;
    double ipc_ = 1.0;
    double eventWeight_ = 1.0;
    EventColumns events_;
    std::uint64_t lastIndex_ = 0; //!< eventIndex of the last event
};

/** Read-only view of a trace's events; yields FaultableEvent values. */
class Trace::EventView
{
  public:
    /** Forward iterator yielding events by value. */
    class iterator
    {
      public:
        using iterator_category = std::forward_iterator_tag;
        using value_type = FaultableEvent;
        using difference_type = std::ptrdiff_t;
        using pointer = void;
        using reference = FaultableEvent;

        iterator() = default;
        iterator(const Trace *trace, std::size_t i)
            : trace_(trace), i_(i)
        {
        }
        FaultableEvent operator*() const
        {
            return {trace_->gap(i_), trace_->kind(i_)};
        }
        iterator &operator++()
        {
            ++i_;
            return *this;
        }
        iterator operator++(int)
        {
            iterator before = *this;
            ++i_;
            return before;
        }
        bool operator==(const iterator &o) const { return i_ == o.i_; }

      private:
        const Trace *trace_ = nullptr;
        std::size_t i_ = 0;
    };

    explicit EventView(const Trace &trace) : trace_(&trace) {}

    std::size_t size() const { return trace_->eventCount(); }
    bool empty() const { return size() == 0; }
    FaultableEvent operator[](std::size_t i) const
    {
        return {trace_->gap(i), trace_->kind(i)};
    }
    iterator begin() const { return {trace_, 0}; }
    iterator end() const { return {trace_, size()}; }

  private:
    const Trace *trace_;
};

inline Trace::EventView
Trace::events() const
{
    return EventView(*this);
}

/** Aggregate statistics over a trace (drives Figs. 5 and 7). */
struct TraceStats
{
    /** Gap sizes bucketed by decade. */
    suit::util::LogHistogram gapHistogram{12};
    /** Occurrences per faultable kind. */
    std::array<std::uint64_t, suit::isa::kNumFaultableKinds>
        kindCounts{};
    /** Mean gap between faultable events. */
    double meanGap = 0.0;
    /** Largest observed gap. */
    std::uint64_t maxGap = 0;

    /** Compute the statistics of a trace. */
    static TraceStats compute(const Trace &trace);
};

} // namespace suit::trace

#endif // SUIT_TRACE_TRACE_HH
