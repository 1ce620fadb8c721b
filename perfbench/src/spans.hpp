// Span recorder for the traced run. Spans are recorded only from the
// benchmark's own code, around its calls into the runtime and inside the
// task bodies it hands to the runtime: name, start, end, parent, the
// worker that closed the span and one free argument (a DAG node index, a
// request sequence number). Each thread appends to its own chunked buffer;
// nothing is written out until the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct span {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t arg = 0;
  int worker = -1;  // runtime worker index, -1 outside the pool
};

// Per-name totals: count, summed duration and summed self time.
struct span_summary {
  std::string name;
  std::uint64_t count = 0;
  double total_ns = 0.0;
  double self_ns = 0.0;
};

namespace spans {

// Recording is off unless enabled; a disabled scope costs one relaxed load.
void enable(bool on) noexcept;
bool enabled() noexcept;

// A fresh span id, unique across threads.
std::uint64_t next_id() noexcept;

// Appends a finished span to the calling thread's buffer.
void record(const span& s);

// Every span recorded since the last clear(), all threads. Call only while
// no thread records.
std::vector<span> collect();
// Moves the recorded spans into the run's archive (capped at a few hundred
// thousand spans; the rest are counted as dropped).
void clear();
// Everything recorded in the run: the archive plus the live buffers.
std::vector<span> archived(std::uint64_t* dropped = nullptr);

// Per-name count, duration and self time over every span of the run,
// including those the archive dropped. Self time is taken against children
// cleared together with their parent.
std::vector<span_summary> summary();

// Writes `all` as tab-separated values with a header line.
bool write_tsv(const std::string& path, const std::vector<span>& all);

}  // namespace spans

// RAII span: starts at construction, records at destruction when enabled.
class span_scope {
 public:
  span_scope(const char* name, std::uint64_t parent = 0,
             std::uint64_t arg = 0) noexcept;
  ~span_scope();
  span_scope(const span_scope&) = delete;
  span_scope& operator=(const span_scope&) = delete;
  std::uint64_t id() const noexcept { return s_.id; }

 private:
  span s_;
  bool on_;
};

// Time of `parent` not covered by any of `children` (children may overlap
// each other and stick out of the parent; only the covered part of the
// parent's interval counts).
std::int64_t self_time_ns(const span& parent, std::vector<span> children);

std::vector<span_summary> summarize(const std::vector<span>& all);

}  // namespace perfbench
