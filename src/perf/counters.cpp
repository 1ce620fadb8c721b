#include "perf/counters.hpp"

#include <algorithm>
#include <chrono>
#include <mutex>

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

void registry::add(const std::string& path, counter_kind kind, std::string description,
                   sample_fn fn) {
  std::lock_guard<std::shared_mutex> lock(mutex_);
  counters_[path] = entry{kind, std::move(description), std::move(fn)};
}

bool registry::remove(const std::string& path) {
  std::lock_guard<std::shared_mutex> lock(mutex_);
  return counters_.erase(path) != 0;
}

void registry::remove_prefix(const std::string& prefix) {
  std::lock_guard<std::shared_mutex> lock(mutex_);
  auto it = counters_.lower_bound(prefix);
  while (it != counters_.end() && it->first.rfind(prefix, 0) == 0)
    it = counters_.erase(it);
}

std::optional<counter_value> registry::query(const std::string& path) const {
  // Shared lock held across the sample call: remove/remove_prefix cannot
  // complete (and the counter's owner cannot finish dying) mid-sample.
  std::shared_lock<std::shared_mutex> lock(mutex_);
  const auto it = counters_.find(path);
  if (it == counters_.end()) return std::nullopt;
  counter_value v;
  v.value = it->second.fn();
  v.timestamp_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       std::chrono::steady_clock::now().time_since_epoch())
                       .count();
  return v;
}

std::vector<std::pair<std::string, counter_value>> registry::query_all(
    const std::string& prefix) const {
  // One shared-lock acquisition for the whole batch, held across the sample
  // calls (see the mutex_ comment in the header): concurrent with other
  // queries, a barrier against unregistration. One shared timestamp.
  std::shared_lock<std::shared_mutex> lock(mutex_);
  const std::int64_t now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                               std::chrono::steady_clock::now().time_since_epoch())
                               .count();
  std::vector<std::pair<std::string, counter_value>> out;
  for (auto it = counters_.lower_bound(prefix);
       it != counters_.end() && it->first.rfind(prefix, 0) == 0; ++it)
    out.emplace_back(it->first, counter_value{it->second.fn(), now});
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
       it != counters_.end() && it->first.rfind(prefix, 0) == 0; ++it)
    out.push_back(it->first);
  return out;
}

std::vector<std::pair<std::string, counter_kind>> registry::kinds_of_prefix(
    const std::string& prefix) const {
  std::vector<std::pair<std::string, counter_kind>> out;
  std::shared_lock<std::shared_mutex> lock(mutex_);
  for (auto it = counters_.lower_bound(prefix);
       it != counters_.end() && it->first.rfind(prefix, 0) == 0; ++it)
    out.emplace_back(it->first, it->second.kind);
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
}

}  // namespace gran::perf
