#include "spans.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "threads/thread_manager.hpp"

namespace perfbench {

namespace {

constexpr std::size_t k_chunk = 4096;

struct thread_buffer {
  std::vector<std::unique_ptr<std::array<span, k_chunk>>> chunks;
  std::size_t used_in_last = k_chunk;
  std::uint64_t id_base = 0;
  std::uint64_t next_local = 0;
};

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_thread{1};
std::mutex g_mutex;  // guards g_buffers (the vector, not the buffers' contents)
std::vector<std::shared_ptr<thread_buffer>> g_buffers;
// Spans moved out of the buffers by clear(), kept for the output file.
constexpr std::size_t k_archive_max = 400'000;
std::vector<span> g_archive;
std::uint64_t g_dropped = 0;
// Per-name totals over every span ever cleared, archived or not.
std::map<std::string, span_summary> g_summary;

thread_buffer& local_buffer() {
  thread_local std::shared_ptr<thread_buffer> buf = [] {
    auto b = std::make_shared<thread_buffer>();
    b->id_base = g_next_thread.fetch_add(1, std::memory_order_relaxed) << 40;
    std::lock_guard<std::mutex> lock(g_mutex);
    g_buffers.push_back(b);
    return b;
  }();
  return *buf;
}

}  // namespace

namespace spans {

void enable(bool on) noexcept { g_enabled.store(on, std::memory_order_release); }
bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }

std::uint64_t next_id() noexcept {
  thread_buffer& b = local_buffer();
  return b.id_base | ++b.next_local;
}

void record(const span& s) {
  thread_buffer& b = local_buffer();
  if (b.used_in_last == k_chunk) {
    b.chunks.push_back(std::make_unique<std::array<span, k_chunk>>());
    b.used_in_last = 0;
  }
  (*b.chunks.back())[b.used_in_last++] = s;
}

// Called only while no thread records (between measured sections).
std::vector<span> collect() {
  std::vector<span> out;
  std::lock_guard<std::mutex> lock(g_mutex);
  for (const auto& b : g_buffers) {
    for (std::size_t c = 0; c < b->chunks.size(); ++c) {
      const std::size_t n = c + 1 == b->chunks.size() ? b->used_in_last : k_chunk;
      out.insert(out.end(), b->chunks[c]->begin(), b->chunks[c]->begin() + n);
    }
  }
  return out;
}

void clear() {
  std::vector<span> live = collect();
  const std::vector<span_summary> rows = summarize(live);
  std::lock_guard<std::mutex> lock(g_mutex);
  for (const span_summary& row : rows) {
    span_summary& acc = g_summary[row.name];
    acc.name = row.name;
    acc.count += row.count;
    acc.total_ns += row.total_ns;
    acc.self_ns += row.self_ns;
  }
  const std::size_t room =
      g_archive.size() < k_archive_max ? k_archive_max - g_archive.size() : 0;
  g_archive.insert(g_archive.end(), live.begin(),
                   live.begin() + static_cast<std::ptrdiff_t>(std::min(room, live.size())));
  g_dropped += live.size() - std::min(room, live.size());
  for (const auto& b : g_buffers) {
    b->chunks.clear();
    b->used_in_last = k_chunk;
  }
}

std::vector<span> archived(std::uint64_t* dropped) {
  clear();
  std::lock_guard<std::mutex> lock(g_mutex);
  if (dropped != nullptr) *dropped = g_dropped;
  return g_archive;
}

std::vector<span_summary> summary() {
  clear();
  std::lock_guard<std::mutex> lock(g_mutex);
  std::vector<span_summary> out;
  for (const auto& [name, row] : g_summary) out.push_back(row);
  return out;
}

bool write_tsv(const std::string& path, const std::vector<span>& all) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name\tid\tparent\tstart_ns\tend_ns\targ\tworker\n");
  for (const span& s : all)
    std::fprintf(f, "%s\t%llu\t%llu\t%lld\t%lld\t%llu\t%d\n", s.name,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.arg), s.worker);
  return std::fclose(f) == 0;
}

}  // namespace spans

span_scope::span_scope(const char* name, std::uint64_t parent,
                       std::uint64_t arg) noexcept
    : on_(spans::enabled()) {
  if (!on_) return;
  s_.name = name;
  s_.parent = parent;
  s_.arg = arg;
  s_.id = spans::next_id();
  s_.start_ns = now_ns();
}

span_scope::~span_scope() {
  if (!on_) return;
  s_.end_ns = now_ns();
  s_.worker = gran::thread_manager::current_worker();
  spans::record(s_);
}

std::int64_t self_time_ns(const span& parent, std::vector<span> children) {
  std::sort(children.begin(), children.end(),
            [](const span& a, const span& b) { return a.start_ns < b.start_ns; });
  std::int64_t covered = 0;
  std::int64_t cur_lo = 0, cur_hi = 0;
  bool open = false;
  for (const span& c : children) {
    const std::int64_t lo = std::max(c.start_ns, parent.start_ns);
    const std::int64_t hi = std::min(c.end_ns, parent.end_ns);
    if (hi <= lo) continue;
    if (open && lo <= cur_hi) {
      cur_hi = std::max(cur_hi, hi);
      continue;
    }
    if (open) covered += cur_hi - cur_lo;
    cur_lo = lo;
    cur_hi = hi;
    open = true;
  }
  if (open) covered += cur_hi - cur_lo;
  return (parent.end_ns - parent.start_ns) - covered;
}

std::vector<span_summary> summarize(const std::vector<span>& all) {
  std::unordered_map<std::uint64_t, std::vector<span>> children;
  for (const span& s : all)
    if (s.parent != 0) children[s.parent].push_back(s);
  std::map<std::string, span_summary> by_name;
  for (const span& s : all) {
    span_summary& row = by_name[s.name];
    row.name = s.name;
    ++row.count;
    row.total_ns += static_cast<double>(s.end_ns - s.start_ns);
    const auto it = children.find(s.id);
    row.self_ns += static_cast<double>(
        it == children.end() ? s.end_ns - s.start_ns : self_time_ns(s, it->second));
  }
  std::vector<span_summary> out;
  for (auto& [name, row] : by_name) out.push_back(row);
  return out;
}

}  // namespace perfbench
