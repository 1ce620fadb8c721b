// Streaming export of window snapshots (perf/window.hpp) as JSONL: one
// self-contained JSON object per line per window (plus incident lines from
// the watchdog), appended to a file or a FIFO. This is the stream
// tools/gran_top tails and validates.
//
// Non-finite values serialize as 0, because JSON forbids NaN and Inf.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "perf/window.hpp"

namespace gran::perf {

// One JSON object (single line, newline-terminated): window metadata,
// interval stats, counter values, monotonic rates, per-worker rows.
void write_window_jsonl(std::ostream& os, const window_snapshot& w);

// Appends a minimally escaped JSON string literal (quotes included).
void write_json_string(std::ostream& os, const std::string& s);

// Where a JSONL stream goes: a regular file or a FIFO, opened for append
// (opening a FIFO blocks until a reader appears). A failed write, such as
// EPIPE once a FIFO's reader has left, disables the sink with one warning.
// A write to a FIFO with no reader also raises SIGPIPE, whose default
// action kills the process, so the writing thread must block SIGPIPE, as
// telemetry_session's thread does.
class metrics_sink {
 public:
  metrics_sink() = default;
  ~metrics_sink();

  metrics_sink(const metrics_sink&) = delete;
  metrics_sink& operator=(const metrics_sink&) = delete;

  // Opens the destination; false (with a warning) when it cannot be opened.
  bool open(const std::string& destination);
  void close();

  // Writes a whole line/blob; silently drops once the sink is dead.
  void write(const std::string& data);

  bool ok() const { return fd_ >= 0; }
  std::uint64_t bytes_written() const { return bytes_; }

 private:
  std::string destination_;
  int fd_ = -1;
  std::uint64_t bytes_ = 0;
};

}  // namespace gran::perf
