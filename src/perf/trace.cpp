#include "perf/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <istream>
#include <ostream>
#include <unordered_map>


namespace gran::perf {

namespace {

constexpr std::size_t default_ring_capacity = 1u << 16;  // 2 MiB of events/worker

constexpr char binary_magic[8] = {'G', 'R', 'A', 'N', 'T', 'R', 'C', '1'};
constexpr std::uint32_t binary_version = 1;
constexpr std::uint32_t no_name = 0xffffffffu;
// Backstops against nonsense sizes in corrupt dumps, far above real traces.
constexpr std::uint64_t max_load_events = std::uint64_t{1} << 32;
constexpr std::uint32_t max_load_names = 1u << 24;
constexpr std::uint32_t max_load_lanes = 1u << 16;

std::size_t round_up_pow2(std::size_t n) {
  std::size_t c = 1;
  while (c < n) c <<= 1;
  return c;
}

template <typename T>
void put_raw(std::ostream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof v);
}

template <typename T>
bool get_raw(std::istream& is, T& v) {
  is.read(reinterpret_cast<char*>(&v), sizeof v);
  return static_cast<bool>(is);
}

// Minimal JSON string escaping for task descriptions.
void write_escaped(std::ostream& os, const char* s) {
  for (; *s; ++s) {
    const char c = *s;
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20)
          os << ' ';
        else
          os << c;
    }
  }
}

}  // namespace

std::atomic<bool> tracer::enabled_{false};

trace_ring::trace_ring(std::size_t capacity)
    : slots_(new trace_event[round_up_pow2(std::max<std::size_t>(capacity, 2))]),
      mask_(round_up_pow2(std::max<std::size_t>(capacity, 2)) - 1) {}

std::vector<trace_event> trace_ring::snapshot() const {
  const std::uint64_t end = written();
  const std::uint64_t begin = end > capacity() ? end - capacity() : 0;
  std::vector<trace_event> out;
  out.reserve(static_cast<std::size_t>(end - begin));
  for (std::uint64_t s = begin; s < end; ++s) out.push_back(slots_[s & mask_]);
  return out;
}

std::vector<trace_event> trace_ring::snapshot_live(std::uint64_t* dropped_out) const {
  // Acquire pairs with the producer's release publish: every slot below
  // `end` is fully written before we read it. Slots the producer reuses
  // *during* the copy (≥ one full lap ahead) are discarded afterwards — the
  // copy may have read them torn, but none of them survive the trim.
  const std::uint64_t end = written();
  const std::uint64_t begin = end > capacity() ? end - capacity() : 0;
  std::vector<trace_event> copied;
  copied.reserve(static_cast<std::size_t>(end - begin));
  for (std::uint64_t s = begin; s < end; ++s) copied.push_back(slots_[s & mask_]);

  const std::uint64_t end_after = written();
  const std::uint64_t safe_begin =
      end_after > capacity() ? std::max(begin, end_after - capacity()) : begin;
  if (dropped_out != nullptr)
    *dropped_out = (end > capacity() ? end - capacity() : 0) + (safe_begin - begin);
  if (safe_begin == begin) return copied;
  if (safe_begin >= end) return {};
  copied.erase(copied.begin(),
               copied.begin() + static_cast<std::ptrdiff_t>(safe_begin - begin));
  return copied;
}

tracer& tracer::instance() {
  static tracer t;
  return t;
}

void tracer::enable(std::size_t events_per_worker) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (events_per_worker != 0) ring_capacity_ = events_per_worker;
  }
  enabled_.store(true, std::memory_order_relaxed);
}

void tracer::disable() { enabled_.store(false, std::memory_order_relaxed); }

void tracer::set_export_path(std::string path) {
  std::lock_guard<std::mutex> lock(mutex_);
  export_path_ = std::move(path);
}

std::string tracer::export_path() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return export_path_;
}

trace_ring* tracer::ring(int worker) {
  if (worker < 0) return nullptr;
  std::lock_guard<std::mutex> lock(mutex_);
  const auto idx = static_cast<std::size_t>(worker);
  if (idx >= rings_.size()) rings_.resize(idx + 1);
  if (!rings_[idx])
    rings_[idx] = std::make_unique<trace_ring>(
        ring_capacity_ ? ring_capacity_ : default_ring_capacity);
  return rings_[idx].get();
}

void tracer::emit_external(trace_kind kind, std::uint64_t arg, std::uint32_t arg2,
                           const char* name) {
  if (!enabled()) return;
  // Lazy creation under the main mutex (same sizing rules as worker rings),
  // released before taking the emission lock — the two never nest.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!external_ring_)
      external_ring_ = std::make_unique<trace_ring>(
          ring_capacity_ ? ring_capacity_ : default_ring_capacity);
  }
  trace_event e;
  e.ticks = tsc_clock::now();
  e.arg = arg;
  e.name = name;
  e.kind = kind;
  e.worker = external_worker;
  e.arg2 = arg2;
  std::lock_guard<std::mutex> lock(external_mutex_);
  external_ring_->emit(e);
}

std::uint64_t tracer::total_events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t n = 0;
  for (const auto& r : rings_)
    if (r) n += r->written();
  if (external_ring_) n += external_ring_->written();
  return n;
}

std::uint64_t tracer::total_dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t n = 0;
  for (const auto& r : rings_)
    if (r) n += r->dropped();
  if (external_ring_) n += external_ring_->dropped();
  return n;
}

void tracer::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  rings_.clear();
  external_ring_.reset();
  drop_warned_.store(false, std::memory_order_relaxed);
}

// Warns about ring wraparound at most once per process (clear() re-arms),
// with a per-worker breakdown so the user can size GRAN_TRACE_BUF for the
// busiest lane instead of the total. Caller holds mutex_.
void tracer::warn_dropped_locked() const {
  std::uint64_t dropped = 0;
  for (const auto& r : rings_)
    if (r) dropped += r->dropped();
  const std::uint64_t ext = external_ring_ ? external_ring_->dropped() : 0;
  dropped += ext;
  if (dropped == 0) return;
  if (drop_warned_.exchange(true, std::memory_order_relaxed)) return;
  std::cerr << "[gran] trace export: " << dropped
            << " events were overwritten by ring wraparound; raise "
               "GRAN_TRACE_BUF for a complete trace (per worker:";
  for (std::size_t w = 0; w < rings_.size(); ++w)
    if (rings_[w] && rings_[w]->dropped() > 0)
      std::cerr << " w" << w << "=" << rings_[w]->dropped();
  if (ext > 0) std::cerr << " external=" << ext;
  std::cerr << ")\n";
}

void tracer::write_chrome_json(std::ostream& os) const {
  // Snapshot every worker lane (producers must be quiescent — see header).
  // The external lane holds only instant provenance records from non-worker
  // threads, not spans; it is carried by dump()/write_binary but skipped in
  // the Chrome view.
  std::vector<std::vector<trace_event>> lanes;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    lanes.reserve(rings_.size());
    for (const auto& r : rings_)
      lanes.push_back(r ? r->snapshot() : std::vector<trace_event>{});
    warn_dropped_locked();
  }

  std::uint64_t base = ~std::uint64_t{0};
  for (const auto& lane : lanes)
    for (const auto& e : lane) base = std::min(base, e.ticks);
  if (base == ~std::uint64_t{0}) base = 0;
  const double ns = tsc_clock::ns_per_tick();
  const auto ts_us = [&](std::uint64_t ticks) {
    return static_cast<double>(ticks - base) * ns / 1e3;
  };

  os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  bool first = true;
  const auto sep = [&] {
    if (!first) os << ",\n";
    first = false;
  };
  char buf[64];

  os.precision(3);
  os << std::fixed;
  first = false;
  os << "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
        "\"args\":{\"name\":\"gran\"}}";

  std::uint64_t flow_id = 0;
  for (std::size_t w = 0; w < lanes.size(); ++w) {
    sep();
    os << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << w
       << ",\"name\":\"thread_name\",\"args\":{\"name\":\"worker " << w << "\"}}";
    sep();
    os << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << w
       << ",\"name\":\"thread_sort_index\",\"args\":{\"sort_index\":" << w << "}}";

    // Pair *_begin/*_end (and park/unpark) into complete "X" slices. Phases
    // run to completion on their worker, so spans never nest within a lane;
    // ring wraparound can orphan one begin or end at the edges — orphaned
    // ends are skipped, a trailing begin is closed at the lane's last event.
    struct open_span {
      std::uint64_t ticks = 0;
      std::uint64_t id = 0;
      const char* name = nullptr;
      bool valid = false;
    };
    open_span task, parked;
    const std::uint64_t lane_last =
        lanes[w].empty() ? 0 : lanes[w].back().ticks;

    const auto emit_slice = [&](const open_span& o, std::uint64_t end_ticks,
                                const char* fallback, const char* cat,
                                const char* end_reason) {
      sep();
      os << "{\"ph\":\"X\",\"pid\":1,\"tid\":" << w << ",\"ts\":" << ts_us(o.ticks)
         << ",\"dur\":" << ts_us(end_ticks) - ts_us(o.ticks) << ",\"cat\":\"" << cat
         << "\",\"name\":\"";
      write_escaped(os, o.name ? o.name : fallback);
      os << "\"";
      if (o.id) {
        std::snprintf(buf, sizeof buf, ",\"args\":{\"task\":%llu,\"end\":\"%s\"}",
                      static_cast<unsigned long long>(o.id), end_reason);
        os << buf;
      }
      os << "}";
    };

    for (const auto& e : lanes[w]) {
      switch (e.kind) {
        case trace_kind::task_begin:
        case trace_kind::phase_begin:
          task = {e.ticks, e.arg, e.name, true};
          break;
        case trace_kind::task_end:
        case trace_kind::phase_end:
          if (task.valid) {
            const char* reason = e.kind == trace_kind::task_end ? "done"
                                 : e.arg2 == 1                  ? "yield"
                                                                : "suspend";
            emit_slice(task, e.ticks, "task", "task", reason);
            task.valid = false;
          }
          break;
        case trace_kind::park:
          parked = {e.ticks, 0, nullptr, true};
          break;
        case trace_kind::unpark:
          if (parked.valid) {
            emit_slice(parked, e.ticks, "parked", "idle", "unpark");
            parked.valid = false;
          }
          break;
        case trace_kind::steal: {
          // Instant marker on the thief plus a flow arrow from the victim
          // lane, so Perfetto draws where the work came from. arg2 packs the
          // victim with the topology distance (see steal_arg2).
          const std::uint64_t id = ++flow_id;
          const std::uint32_t victim = e.arg2 & 0xffffu;
          const std::uint32_t distance = e.arg2 >> 16;
          const char* const dist_name =
              distance == 0 ? "smt" : distance == 1 ? "local" : "remote";
          sep();
          os << "{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":" << w
             << ",\"ts\":" << ts_us(e.ticks) << ",\"cat\":\"steal\",\"name\":\"steal\","
             << "\"args\":{\"task\":" << e.arg << ",\"victim\":" << victim
             << ",\"distance\":\"" << dist_name << "\"}}";
          sep();
          os << "{\"ph\":\"s\",\"id\":" << id << ",\"pid\":1,\"tid\":" << victim
             << ",\"ts\":" << ts_us(e.ticks) << ",\"cat\":\"steal\",\"name\":\"steal\"}";
          sep();
          os << "{\"ph\":\"f\",\"bp\":\"e\",\"id\":" << id << ",\"pid\":1,\"tid\":" << w
             << ",\"ts\":" << ts_us(e.ticks) << ",\"cat\":\"steal\",\"name\":\"steal\"}";
          break;
        }
        case trace_kind::pending_miss:
          sep();
          os << "{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":" << w
             << ",\"ts\":" << ts_us(e.ticks)
             << ",\"cat\":\"sched\",\"name\":\"pending-miss\"}";
          break;
        case trace_kind::pin_rejected:
          sep();
          os << "{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":" << w
             << ",\"ts\":" << ts_us(e.ticks)
             << ",\"cat\":\"sched\",\"name\":\"pin-rejected\",\"args\":{\"cpu\":"
             << e.arg << "}}";
          break;
        case trace_kind::task_split:
          // Rare (demand-driven) and informative: render as an instant with
          // the parent id and split point.
          sep();
          os << "{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":" << w
             << ",\"ts\":" << ts_us(e.ticks)
             << ",\"cat\":\"sched\",\"name\":\"task-split\",\"args\":{\"parent\":"
             << e.arg << ",\"point\":" << e.arg2 << "}}";
          break;
        case trace_kind::steal_request: {
          // Channel-steal request traffic: an instant on the sender's lane
          // with the target and hop count, so a circulating token is visible
          // as a trail of instants across the victim lanes it traversed.
          const std::uint32_t target = e.arg2 & 0xffffu;
          const std::uint32_t distance = e.arg2 >> 16;
          const char* const dist_name =
              distance == 0 ? "smt" : distance == 1 ? "local" : "remote";
          sep();
          os << "{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":" << w
             << ",\"ts\":" << ts_us(e.ticks)
             << ",\"cat\":\"steal\",\"name\":\"steal-request\","
             << "\"args\":{\"target\":" << target << ",\"hops\":" << e.arg
             << ",\"distance\":\"" << dist_name << "\"}}";
          break;
        }
        case trace_kind::steal_handoff: {
          // Victim-side batch delivery (channel-steal). The thief-side
          // `steal` event draws the flow arrow; this records the batch size.
          const std::uint32_t thief = e.arg2 & 0xffffu;
          sep();
          os << "{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":" << w
             << ",\"ts\":" << ts_us(e.ticks)
             << ",\"cat\":\"steal\",\"name\":\"steal-handoff\","
             << "\"args\":{\"thief\":" << thief << ",\"batch\":" << e.arg << "}}";
          break;
        }
        case trace_kind::task_enqueue:
        case trace_kind::graph_node:
        case trace_kind::task_pmu:
        case trace_kind::worker_start:
        case trace_kind::worker_stop:
          // Provenance and func-span records for the offline analyzer;
          // rendering them as instants would drown the Perfetto view at one
          // per task (two per phase for task_pmu).
          break;
      }
    }
    if (task.valid) emit_slice(task, std::max(task.ticks, lane_last), "task", "task", "open");
    if (parked.valid)
      emit_slice(parked, std::max(parked.ticks, lane_last), "parked", "idle", "open");
  }
  os << "\n]}\n";
}

bool tracer::export_chrome_json(const std::string& path) const {
  std::ofstream f(path);
  if (!f) {
    std::cerr << "[gran] trace export: cannot open " << path << "\n";
    return false;
  }
  write_chrome_json(f);
  return static_cast<bool>(f);
}

trace_dump tracer::dump_locked(bool live) const {
  trace_dump out;
  out.ns_per_tick = tsc_clock::ns_per_tick();

  // Intern every distinct name pointer into an owned string table and
  // repoint the copied events at it, so the dump survives the originating
  // call sites (and round-trips through the binary format unchanged).
  auto names = std::make_shared<std::vector<std::string>>();
  std::unordered_map<const char*, std::size_t> index;
  const auto intern = [&](const char* s) -> const char* {
    if (s == nullptr) return nullptr;
    auto [it, fresh] = index.emplace(s, names->size());
    if (fresh) names->push_back(s);
    return nullptr;  // placeholder; repointed below once the table is stable
  };

  const auto add_lane = [&](std::uint16_t worker, const trace_ring& r) {
    trace_lane lane;
    lane.worker = worker;
    if (live) {
      lane.events = r.snapshot_live(&lane.dropped);
    } else {
      lane.dropped = r.dropped();
      lane.events = r.snapshot();
    }
    for (auto& e : lane.events) intern(e.name);
    out.lanes.push_back(std::move(lane));
  };

  for (std::size_t w = 0; w < rings_.size(); ++w)
    if (rings_[w]) add_lane(static_cast<std::uint16_t>(w), *rings_[w]);
  if (external_ring_) add_lane(external_worker, *external_ring_);

  // The table no longer grows: repoint events into it.
  for (auto& lane : out.lanes)
    for (auto& e : lane.events)
      if (e.name != nullptr) e.name = (*names)[index.at(e.name)].c_str();
  out.names = std::move(names);
  return out;
}

trace_dump tracer::dump() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dump_locked(/*live=*/false);
}

trace_dump tracer::dump_live() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dump_locked(/*live=*/true);
}

void tracer::write_binary(std::ostream& os) const {
  trace_dump d;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    d = dump_locked(/*live=*/false);
    warn_dropped_locked();
  }
  write_trace_binary(os, d);
}

void write_trace_binary(std::ostream& os, const trace_dump& d) {
  static const std::vector<std::string> no_names;
  const std::vector<std::string>& names = d.names ? *d.names : no_names;

  // Map interned name pointers back to table indices for serialization.
  std::unordered_map<const char*, std::uint32_t> index;
  for (std::uint32_t i = 0; i < names.size(); ++i)
    index.emplace(names[i].c_str(), i);

  os.write(binary_magic, sizeof binary_magic);
  put_raw(os, binary_version);
  put_raw(os, static_cast<std::uint32_t>(d.lanes.size()));
  put_raw(os, static_cast<std::uint32_t>(names.size()));
  put_raw(os, d.ns_per_tick);
  for (const auto& s : names) {
    put_raw(os, static_cast<std::uint32_t>(s.size()));
    os.write(s.data(), static_cast<std::streamsize>(s.size()));
  }
  for (const auto& lane : d.lanes) {
    put_raw(os, lane.worker);
    put_raw(os, lane.dropped);
    put_raw(os, static_cast<std::uint64_t>(lane.events.size()));
    for (const auto& e : lane.events) {
      put_raw(os, e.ticks);
      put_raw(os, e.arg);
      // Hand-built dumps may carry names outside the table; drop them rather
      // than crash (interned dumps always resolve).
      const auto it = e.name != nullptr ? index.find(e.name) : index.end();
      put_raw(os, it != index.end() ? it->second : no_name);
      put_raw(os, static_cast<std::uint16_t>(e.kind));
      put_raw(os, e.worker);
      put_raw(os, e.arg2);
    }
  }
}

bool tracer::export_binary(const std::string& path) const {
  std::ofstream f(path, std::ios::binary);
  if (!f) {
    std::cerr << "[gran] trace export: cannot open " << path << "\n";
    return false;
  }
  write_binary(f);
  return static_cast<bool>(f);
}

bool load_trace_binary(std::istream& is, trace_dump& out) {
  char magic[sizeof binary_magic];
  is.read(magic, sizeof magic);
  if (!is || std::memcmp(magic, binary_magic, sizeof magic) != 0) return false;
  std::uint32_t version = 0, num_lanes = 0, num_names = 0;
  trace_dump d;
  if (!get_raw(is, version) || version != binary_version) return false;
  if (!get_raw(is, num_lanes) || num_lanes > max_load_lanes) return false;
  if (!get_raw(is, num_names) || num_names > max_load_names) return false;
  if (!get_raw(is, d.ns_per_tick) || !(d.ns_per_tick > 0)) return false;

  auto names = std::make_shared<std::vector<std::string>>();
  names->reserve(num_names);
  for (std::uint32_t i = 0; i < num_names; ++i) {
    std::uint32_t len = 0;
    if (!get_raw(is, len) || len > (1u << 20)) return false;
    std::string s(len, '\0');
    is.read(s.data(), len);
    if (!is) return false;
    names->push_back(std::move(s));
  }

  d.lanes.reserve(num_lanes);
  for (std::uint32_t l = 0; l < num_lanes; ++l) {
    trace_lane lane;
    std::uint64_t count = 0;
    if (!get_raw(is, lane.worker) || !get_raw(is, lane.dropped)) return false;
    if (!get_raw(is, count) || count > max_load_events) return false;
    lane.events.reserve(static_cast<std::size_t>(count));
    for (std::uint64_t i = 0; i < count; ++i) {
      trace_event e;
      std::uint32_t name_idx = no_name;
      std::uint16_t kind = 0;
      if (!get_raw(is, e.ticks) || !get_raw(is, e.arg) || !get_raw(is, name_idx) ||
          !get_raw(is, kind) || !get_raw(is, e.worker) || !get_raw(is, e.arg2))
        return false;
      if (name_idx != no_name && name_idx >= names->size()) return false;
      e.kind = static_cast<trace_kind>(kind);
      e.name = name_idx == no_name ? nullptr : (*names)[name_idx].c_str();
      lane.events.push_back(e);
    }
    d.lanes.push_back(std::move(lane));
  }
  d.names = std::move(names);
  out = std::move(d);
  return true;
}

bool load_trace_binary(const std::string& path, trace_dump& out) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return false;
  return load_trace_binary(f, out);
}

}  // namespace gran::perf
