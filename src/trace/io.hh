/**
 * @file
 * Trace serialization.
 *
 * Two interchange formats so users can plug their own recordings
 * (e.g. from a QEMU plugin like the paper's, Sec. 5.1) into the
 * simulator, and ship generated traces between machines:
 *
 *  - text (.sft): line-oriented, diff-able, self-describing;
 *  - binary (.sfb): compact varint encoding, ~5 bytes/event.
 *
 * Both readers append events straight into the trace's columns.  They
 * treat the input as untrusted: a header's event count only bounds
 * the up-front reservation (by the bytes left in a seekable .sfb
 * stream, by a fixed cap otherwise), and an IPC <= 0, an event
 * weight < 1 or an event past the stream's instruction count is
 * rejected with fatal() before a Trace is built.
 *
 * Text format:
 *     suit-trace v1
 *     name <workload>
 *     instructions <total>
 *     ipc <ipc>
 *     weight <event weight>
 *     events <count>
 *     <gap> <MNEMONIC>
 *     ...
 */

#ifndef SUIT_TRACE_IO_HH
#define SUIT_TRACE_IO_HH

#include <iosfwd>
#include <string>

#include "trace/trace.hh"

namespace suit::trace {

/** Write a trace in the text format. */
void writeText(const Trace &trace, std::ostream &os);

/** Parse a text-format trace; fatal() on malformed input. */
Trace readText(std::istream &is);

/** Write a trace in the binary format. */
void writeBinary(const Trace &trace, std::ostream &os);

/** Parse a binary-format trace; fatal() on malformed input. */
Trace readBinary(std::istream &is);

/**
 * Save to a file, choosing the format from the extension
 * (".sft" text, ".sfb" binary).
 */
void saveTrace(const Trace &trace, const std::string &path);

/** Load from a file, choosing the format from the extension. */
Trace loadTrace(const std::string &path);

} // namespace suit::trace

#endif // SUIT_TRACE_IO_HH
