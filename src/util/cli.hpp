// Minimal command-line option parser shared by the bench and example
// binaries. Accepts --key=value, --key value, and boolean --flag forms;
// positional arguments are collected in order.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace gran {

class cli_args {
 public:
  cli_args(int argc, const char* const* argv);

  // True if --name was present (with or without a value).
  bool has(const std::string& name) const;

  // Typed getters with defaults. Malformed values terminate with a message
  // naming the offending option (benches are non-interactive).
  std::string get(const std::string& name, const std::string& def = "") const;
  std::int64_t get_int(const std::string& name, std::int64_t def) const;
  double get_double(const std::string& name, double def) const;
  bool get_bool(const std::string& name, bool def = false) const;

  // Comma-separated integer list, e.g. --cores=1,2,4,8.
  std::vector<std::int64_t> get_int_list(const std::string& name,
                                         std::vector<std::int64_t> def) const;

  // One of `choices`, e.g. --mode=native|sim. Any other value exits 2
  // naming the option and the value.
  std::string get_choice(const std::string& name, const std::string& def,
                         const std::vector<std::string>& choices) const;

  // The value mapped by `from_name`, a lookup that throws
  // std::invalid_argument on an unknown name (graph::pattern_from_name,
  // sim::make_machine_model, ...). An unknown value exits 2 naming the
  // option and the value.
  template <typename F>
  auto get_named(const std::string& name, const std::string& def, F from_name) const {
    const std::string v = get(name, def);
    try {
      return from_name(v);
    } catch (const std::invalid_argument&) {
      unknown_value(name, v);
    }
  }

  const std::vector<std::string>& positional() const { return positional_; }
  const std::string& program() const { return program_; }

 private:
  std::optional<std::string> raw(const std::string& name) const;
  [[noreturn]] static void unknown_value(const std::string& name, const std::string& value);

  std::string program_;
  std::map<std::string, std::string> options_;
  std::vector<std::string> positional_;
};

}  // namespace gran
