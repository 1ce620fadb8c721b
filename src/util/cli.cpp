#include "util/cli.hpp"

#include <cstdio>
#include <cstdlib>

namespace gran {

namespace {

[[noreturn]] void bad_option(const std::string& name, const std::string& value,
                             const char* what) {
  std::fprintf(stderr, "error: option --%s: %s value '%s'\n", name.c_str(), what,
               value.c_str());
  std::exit(2);
}

bool looks_like_value(const char* s) { return s != nullptr && s[0] != '-'; }

}  // namespace

cli_args::cli_args(int argc, const char* const* argv) {
  program_ = argc > 0 ? argv[0] : "";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      std::string body = arg.substr(2);
      const auto eq = body.find('=');
      if (eq != std::string::npos) {
        options_[body.substr(0, eq)] = body.substr(eq + 1);
      } else if (i + 1 < argc && looks_like_value(argv[i + 1])) {
        options_[body] = argv[++i];
      } else {
        options_[body] = "";  // boolean flag
      }
    } else {
      positional_.push_back(std::move(arg));
    }
  }
}

bool cli_args::has(const std::string& name) const { return options_.count(name) != 0; }

std::optional<std::string> cli_args::raw(const std::string& name) const {
  const auto it = options_.find(name);
  if (it == options_.end()) return std::nullopt;
  return it->second;
}

std::string cli_args::get(const std::string& name, const std::string& def) const {
  return raw(name).value_or(def);
}

std::int64_t cli_args::get_int(const std::string& name, std::int64_t def) const {
  const auto v = raw(name);
  if (!v || v->empty()) return def;  // bare flag: no value given
  char* end = nullptr;
  const long long parsed = std::strtoll(v->c_str(), &end, 10);
  if (end == v->c_str() || *end != '\0') bad_option(name, *v, "not an integer");
  return parsed;
}

double cli_args::get_double(const std::string& name, double def) const {
  const auto v = raw(name);
  if (!v || v->empty()) return def;  // bare flag: no value given
  char* end = nullptr;
  const double parsed = std::strtod(v->c_str(), &end);
  if (end == v->c_str() || *end != '\0') bad_option(name, *v, "not a number");
  return parsed;
}

bool cli_args::get_bool(const std::string& name, bool def) const {
  const auto v = raw(name);
  if (!v) return def;
  if (v->empty() || *v == "1" || *v == "true" || *v == "yes" || *v == "on") return true;
  if (*v == "0" || *v == "false" || *v == "no" || *v == "off") return false;
  bad_option(name, *v, "not a boolean");
}

void cli_args::unknown_value(const std::string& name, const std::string& value) {
  bad_option(name, value, "unknown");
}

std::string cli_args::get_choice(const std::string& name, const std::string& def,
                                 const std::vector<std::string>& choices) const {
  std::string v = get(name, def);
  for (const auto& c : choices)
    if (v == c) return v;
  unknown_value(name, v);
}

std::vector<std::int64_t> cli_args::get_int_list(const std::string& name,
                                                 std::vector<std::int64_t> def) const {
  const auto v = raw(name);
  if (!v) return def;
  std::vector<std::int64_t> out;
  std::size_t pos = 0;
  while (pos <= v->size()) {
    const auto comma = v->find(',', pos);
    const std::string item =
        v->substr(pos, comma == std::string::npos ? std::string::npos : comma - pos);
    if (!item.empty()) {
      char* end = nullptr;
      const long long parsed = std::strtoll(item.c_str(), &end, 10);
      if (end == item.c_str() || *end != '\0') bad_option(name, item, "not an integer");
      out.push_back(parsed);
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

}  // namespace gran
