#include "trace/trace.hh"

#include <algorithm>
#include <limits>

#include "util/logging.hh"

namespace suit::trace {

EventColumns::EventColumns(const std::vector<FaultableEvent> &events)
{
    reserve(events.size());
    for (const FaultableEvent &e : events)
        push_back(e.gap, e.kind);
}

void
EventColumns::reserve(std::size_t n)
{
    gaps_.reserve(n);
    kinds_.reserve(n);
    blockStarts_.reserve(n / kBlockEvents + 1);
}

void
EventColumns::push_back(std::uint64_t gap, suit::isa::FaultableKind kind)
{
    SUIT_ASSERT(gap < std::numeric_limits<std::uint64_t>::max() - span_,
                "trace events overflow a 64-bit instruction count");
    if (gaps_.size() % kBlockEvents == 0)
        blockStarts_.push_back(span_ + gap);
    if (gap < kGapEscape) {
        gaps_.push_back(static_cast<std::uint32_t>(gap));
    } else {
        gaps_.push_back(kGapEscape);
        escapes_.push_back({gaps_.size() - 1, gap});
    }
    kinds_.push_back(kind);
    span_ += gap + 1;
}

Trace::Trace(std::string name, std::uint64_t total_instructions,
             double ipc, EventColumns events, double event_weight)
    : name_(std::move(name)), totalInstructions_(total_instructions),
      ipc_(ipc), eventWeight_(event_weight), events_(std::move(events))
{
    SUIT_ASSERT(ipc_ > 0.0, "trace '%s' needs a positive IPC",
                name_.c_str());
    SUIT_ASSERT(eventWeight_ >= 1.0,
                "trace '%s' needs a weight >= 1", name_.c_str());
    const std::uint64_t span = events_.span();
    SUIT_ASSERT(span <= totalInstructions_,
                "trace '%s': events (%llu instrs) exceed stream length "
                "(%llu)",
                name_.c_str(), static_cast<unsigned long long>(span),
                static_cast<unsigned long long>(totalInstructions_));
    lastIndex_ = span - 1; // unused when there are no events
    events_.gaps_.shrink_to_fit();
    events_.kinds_.shrink_to_fit();
    events_.escapes_.shrink_to_fit();
    events_.blockStarts_.shrink_to_fit();
}

std::uint64_t
Trace::tailInstructions() const
{
    if (eventCount() == 0)
        return totalInstructions_;
    const std::uint64_t last_index = lastIndex_;
    SUIT_ASSERT(last_index < totalInstructions_,
                "trace '%s' is inconsistent: last event at index %llu "
                "but the stream is only %llu instructions long",
                name_.c_str(),
                static_cast<unsigned long long>(last_index),
                static_cast<unsigned long long>(totalInstructions_));
    return totalInstructions_ - last_index - 1;
}

std::uint64_t
Trace::eventIndex(std::size_t i) const
{
    SUIT_ASSERT(i < eventCount(), "event index %zu out of range", i);
    const std::size_t block = i / EventColumns::kBlockEvents;
    std::uint64_t index = events_.blockStarts_[block];
    for (std::size_t j = block * EventColumns::kBlockEvents + 1; j <= i;
         ++j)
        index += gap(j) + 1;
    return index;
}

std::uint64_t
Trace::escapedGap(std::size_t i) const
{
    const auto &escapes = events_.escapes_;
    const auto it = std::lower_bound(
        escapes.begin(), escapes.end(), i,
        [](const EventColumns::EscapedGap &e, std::size_t index) {
            return e.index < index;
        });
    SUIT_ASSERT(it != escapes.end() && it->index == i,
                "event %zu has an escaped gap but no side-table entry",
                i);
    return it->gap;
}

TraceStats
TraceStats::compute(const Trace &trace)
{
    TraceStats s;
    double gap_sum = 0.0;
    for (const FaultableEvent &e : trace.events()) {
        s.gapHistogram.add(e.gap);
        ++s.kindCounts[static_cast<std::size_t>(e.kind)];
        gap_sum += static_cast<double>(e.gap);
        s.maxGap = std::max(s.maxGap, e.gap);
    }
    if (!trace.events().empty())
        s.meanGap = gap_sum / static_cast<double>(trace.eventCount());
    return s;
}

} // namespace suit::trace
