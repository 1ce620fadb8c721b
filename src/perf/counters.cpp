#include "perf/counters.hpp"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <unordered_map>

namespace gran::perf {

std::optional<counter_path> counter_path::parse(const std::string& text) {
  if (text.empty() || text[0] != '/') return std::nullopt;
  counter_path out;
  std::size_t pos = 1;
  // object runs to '{' or '/'.
  const std::size_t brace = text.find('{', pos);
  const std::size_t slash = text.find('/', pos);
  if (brace != std::string::npos && (slash == std::string::npos || brace < slash)) {
    out.object = text.substr(pos, brace - pos);
    const std::size_t close = text.find('}', brace);
    if (close == std::string::npos) return std::nullopt;
    out.instance = text.substr(brace + 1, close - brace - 1);
    pos = close + 1;
    if (pos >= text.size() || text[pos] != '/') return std::nullopt;
    ++pos;
  } else if (slash != std::string::npos) {
    out.object = text.substr(pos, slash - pos);
    pos = slash + 1;
  } else {
    return std::nullopt;  // need at least object/name
  }
  if (out.object.empty() || pos >= text.size()) return std::nullopt;
  out.name = text.substr(pos);
  if (out.name.empty() || out.name.back() == '/') return std::nullopt;
  return out;
}

std::string counter_path::str() const {
  std::string s = "/" + object;
  if (!instance.empty()) s += "{" + instance + "}";
  s += "/" + name;
  return s;
}

registry& registry::instance() {
  static registry r;
  return r;
}

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool has_prefix(const std::string& path, const std::string& prefix) {
  return path.rfind(prefix, 0) == 0;
}

// The five scalar views every histogram registers.
struct histogram_view {
  const char* name;
  counter_kind kind;
  double (*read)(const histogram_snapshot&);
};
constexpr histogram_view histogram_views[] = {
    {"p50", counter_kind::gauge, [](const histogram_snapshot& s) { return s.percentile(50); }},
    {"p95", counter_kind::gauge, [](const histogram_snapshot& s) { return s.percentile(95); }},
    {"p99", counter_kind::gauge, [](const histogram_snapshot& s) { return s.percentile(99); }},
    {"mean", counter_kind::gauge, [](const histogram_snapshot& s) { return s.mean(); }},
    {"count", counter_kind::monotonic,
     [](const histogram_snapshot& s) { return static_cast<double>(s.count); }},
};

}  // namespace

void registry::add(const std::string& path, counter_kind kind, std::string description,
                   sample_fn fn) {
  std::lock_guard<std::shared_mutex> lock(mutex_);
  counters_[path] = entry{kind, std::move(description), std::move(fn), nullptr, nullptr};
}

void registry::add_histogram(const std::string& path, const std::string& what,
                             const std::string& unit, snap_fn snap) {
  auto source = std::make_shared<const snap_fn>(std::move(snap));
  std::lock_guard<std::shared_mutex> lock(mutex_);
  histograms_[path] = source;
  for (const histogram_view& v : histogram_views) {
    const std::string name = v.name;
    counters_[path + "/" + name] =
        entry{v.kind, name == "count" ? "samples in " + what : name + " " + what + ", " + unit,
              nullptr, source, v.read};
  }
}

bool registry::remove(const std::string& path) {
  std::lock_guard<std::shared_mutex> lock(mutex_);
  return counters_.erase(path) != 0;
}

void registry::remove_prefix(const std::string& prefix) {
  std::lock_guard<std::shared_mutex> lock(mutex_);
  for (auto it = counters_.lower_bound(prefix);
       it != counters_.end() && has_prefix(it->first, prefix);)
    it = counters_.erase(it);
  for (auto it = histograms_.lower_bound(prefix);
       it != histograms_.end() && has_prefix(it->first, prefix);)
    it = histograms_.erase(it);
}

std::optional<counter_value> registry::query(const std::string& path) const {
  // Shared lock held across the sample call: remove/remove_prefix cannot
  // complete (and the counter's owner cannot finish dying) mid-sample.
  std::shared_lock<std::shared_mutex> lock(mutex_);
  const auto it = counters_.find(path);
  if (it == counters_.end()) return std::nullopt;
  const entry& e = it->second;
  counter_value v;
  v.value = e.histogram ? e.view((*e.histogram)()) : e.fn();
  v.timestamp_ns = now_ns();
  return v;
}

registry::batch registry::sample(const std::string& prefix) const {
  // One shared-lock acquisition for the whole batch, held across the sample
  // calls (see the mutex_ comment in the header): concurrent with other
  // queries, a barrier against unregistration.
  std::shared_lock<std::shared_mutex> lock(mutex_);
  batch out;
  out.timestamp_ns = now_ns();
  // One snapshot per histogram, shared by the histogram's entry and its
  // views (a view's histogram may lie outside `prefix`).
  std::unordered_map<const snap_fn*, histogram_snapshot> snaps;
  const auto snap_of = [&snaps](const snap_fn& h) -> const histogram_snapshot& {
    const auto [it, fresh] = snaps.try_emplace(&h);
    if (fresh) it->second = h();
    return it->second;
  };
  for (auto it = histograms_.lower_bound(prefix);
       it != histograms_.end() && has_prefix(it->first, prefix); ++it)
    out.histograms.emplace_back(it->first, snap_of(*it->second));
  for (auto it = counters_.lower_bound(prefix);
       it != counters_.end() && has_prefix(it->first, prefix); ++it) {
    const entry& e = it->second;
    out.counters.push_back(
        {it->first, e.kind, e.histogram ? e.view(snap_of(*e.histogram)) : e.fn()});
  }
  return out;
}

std::vector<std::pair<std::string, counter_value>> registry::query_all(
    const std::string& prefix) const {
  batch b = sample(prefix);
  std::vector<std::pair<std::string, counter_value>> out;
  out.reserve(b.counters.size());
  for (sampled_counter& c : b.counters)
    out.emplace_back(std::move(c.path), counter_value{c.value, b.timestamp_ns});
  return out;
}

double registry::value_or(const std::string& path, double def) const {
  const auto v = query(path);
  return v ? v->value : def;
}

std::vector<std::string> registry::list(const std::string& prefix) const {
  std::vector<std::string> out;
  std::shared_lock<std::shared_mutex> lock(mutex_);
  for (auto it = counters_.lower_bound(prefix);
       it != counters_.end() && has_prefix(it->first, prefix); ++it)
    out.push_back(it->first);
  return out;
}

std::optional<counter_kind> registry::kind_of(const std::string& path) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  const auto it = counters_.find(path);
  if (it == counters_.end()) return std::nullopt;
  return it->second.kind;
}

std::string registry::describe(const std::string& path) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  const auto it = counters_.find(path);
  return it == counters_.end() ? std::string{} : it->second.description;
}

void registry::clear() {
  std::lock_guard<std::shared_mutex> lock(mutex_);
  counters_.clear();
  histograms_.clear();
}

}  // namespace gran::perf
