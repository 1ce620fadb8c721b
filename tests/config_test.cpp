// Tests for the knob table (src/util/config.*): every knob under one
// precedence — code > CLI flag > environment > table default — the echoed
// "# gran config:" line, and the loud failures. The environment is a fake
// list passed to the resolver, never setenv.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/split_controller.hpp"
#include "service/service.hpp"
#include "threads/config.hpp"
#include "util/config.hpp"

namespace gran {
namespace {

// A valid non-default value for every live knob, and a second one for the
// knobs with a CLI twin.
struct sample {
  config::knob k;
  const char* env_value;
  const char* cli_value;
};
const sample k_samples[] = {
    {config::workers, "3", nullptr},
    {config::policy, "static-fifo", "work-stealing-lifo"},
    {config::pin, "scatter", nullptr},
    {config::steal_order, "flat", nullptr},
    {config::steal_batch, "half", nullptr},
    {config::stack_size, "131072", nullptr},
    {config::print_counters, "/threads", nullptr},
    {config::log, "debug", nullptr},
    {config::fuzz_seed, "18446744073709551615", nullptr},
    {config::split, "0", nullptr},
    {config::split_min, "128", nullptr},
    {config::split_poll, "16", nullptr},
    {config::service_shards, "2", "3"},
    {config::service_shard_cap, "64", nullptr},
    {config::service_backlog, "2048", "8"},
    {config::service_policy, "reject", "shed-oldest"},
    {config::service_batch, "8", nullptr},
    {config::trace, "env.json", "cli.json"},
    {config::trace_bin, "env.bin", "cli.bin"},
    {config::trace_buf, "1024", "2048"},
    {config::pmu, "sw", "1"},
    {config::metrics, "env.jsonl", "cli.jsonl"},
    {config::metrics_us, "250", "50"},
    {config::flight, "envfl", "clifl"},
    {config::stall_ns, "7000", "8000"},
};

// Owns the strings a cli_args points into.
struct command_line {
  explicit command_line(std::vector<std::string> flags) : words(std::move(flags)) {
    words.insert(words.begin(), "prog");
    for (const std::string& w : words) argv.push_back(w.c_str());
  }
  cli_args args() const { return cli_args(static_cast<int>(argv.size()), argv.data()); }
  std::vector<std::string> words;
  std::vector<const char*> argv;
};

const config::knob_row& row(config::knob k) { return config::table()[k]; }

std::string env_entry(config::knob k, const std::string& value) {
  return std::string(row(k).env) + "=" + value;
}

std::string flag_entry(config::knob k, const std::string& value) {
  return std::string("--") + row(k).flag + "=" + value;
}

TEST(Config, EveryLiveKnobHasASample) {
  std::size_t live = 0;
  for (const config::knob_row& r : config::table()) live += r.type != config::kind::removed;
  EXPECT_EQ(live, 25u);
  EXPECT_EQ(std::size(k_samples), live);
  for (const sample& s : k_samples) {
    EXPECT_NE(std::string(s.env_value), row(s.k).def) << row(s.k).env;
    EXPECT_EQ(s.cli_value != nullptr, row(s.k).flag != nullptr) << row(s.k).env;
  }
}

TEST(Config, DefaultsResolveSilently) {
  const config::settings s = config::resolve({"PATH=/bin"}, command_line({}).args());
  for (std::size_t k = 0; k < config::knob_count; ++k) {
    EXPECT_EQ(s.origin(static_cast<config::knob>(k)), config::source::table);
    EXPECT_EQ(s.text(static_cast<config::knob>(k)), config::table()[k].def);
  }
  EXPECT_EQ(s.integer(config::service_backlog), 4096);
  EXPECT_TRUE(s.boolean(config::split));
  EXPECT_TRUE(s.warnings().empty());
  EXPECT_EQ(s.describe(), "# gran config: defaults");
}

TEST(Config, EnvBeatsDefault) {
  for (const sample& smp : k_samples) {
    const config::settings s =
        config::resolve({env_entry(smp.k, smp.env_value)}, command_line({}).args());
    EXPECT_EQ(s.text(smp.k), smp.env_value);
    EXPECT_EQ(s.origin(smp.k), config::source::env);
    EXPECT_EQ(s.describe(), "# gran config: " + env_entry(smp.k, smp.env_value) + " (env)");
  }
}

TEST(Config, CliBeatsEnv) {
  for (const sample& smp : k_samples) {
    if (smp.cli_value == nullptr) continue;
    const command_line cl({flag_entry(smp.k, smp.cli_value)});
    for (const auto& env : {std::vector<std::string>{},
                            std::vector<std::string>{env_entry(smp.k, smp.env_value)}}) {
      const config::settings s = config::resolve(env, cl.args());
      EXPECT_EQ(s.text(smp.k), smp.cli_value);
      EXPECT_EQ(s.origin(smp.k), config::source::cli);
      EXPECT_EQ(s.describe(), "# gran config: " + env_entry(smp.k, smp.cli_value) + " (--" +
                                  row(smp.k).flag + ")");
    }
  }
}

TEST(Config, CodeBeatsTable) {
  std::vector<std::string> env;
  for (const config::knob k : {config::workers, config::policy, config::pin,
                               config::steal_order, config::steal_batch, config::stack_size})
    for (const sample& smp : k_samples)
      if (smp.k == k) env.push_back(env_entry(k, smp.env_value));
  const config::settings knobs =
      config::resolve(env, command_line({"--policy=channel-steal"}).args());

  const scheduler_config unset = with_knobs(scheduler_config{}, knobs);
  EXPECT_EQ(unset.num_workers, 3);
  EXPECT_EQ(unset.policy, "channel-steal");
  EXPECT_EQ(unset.pin, "scatter");
  EXPECT_EQ(unset.steal_order, "flat");
  EXPECT_EQ(unset.steal_batch, "half");
  EXPECT_EQ(unset.stack_size, 131072u);

  scheduler_config code;
  code.num_workers = 2;
  code.policy = "static-fifo";
  code.pin = "none";
  code.steal_order = "hier";
  code.steal_batch = "one";
  code.stack_size = 32768;
  const scheduler_config kept = with_knobs(code, knobs);
  EXPECT_EQ(kept.num_workers, 2);
  EXPECT_EQ(kept.policy, "static-fifo");
  EXPECT_EQ(kept.pin, "none");
  EXPECT_EQ(kept.steal_order, "hier");
  EXPECT_EQ(kept.steal_batch, "one");
  EXPECT_EQ(kept.stack_size, 32768u);
}

TEST(Config, OwnersDefaultToTheProcessTable) {
  const config::settings& s = config::current();
  const service::service_config svc;
  EXPECT_EQ(svc.shards, s.integer(config::service_shards));
  EXPECT_EQ(static_cast<std::int64_t>(svc.shard_capacity), s.integer(config::service_shard_cap));
  EXPECT_EQ(svc.backlog_bound, s.integer(config::service_backlog));
  EXPECT_STREQ(service::to_string(svc.policy), s.text(config::service_policy).c_str());
  EXPECT_EQ(svc.drain_batch, s.integer(config::service_batch));
  const core::split_options split;
  EXPECT_EQ(split.enabled, s.boolean(config::split));
  EXPECT_EQ(static_cast<std::int64_t>(split.min_chunk), s.integer(config::split_min));
  EXPECT_EQ(static_cast<std::int64_t>(split.poll_iters), s.integer(config::split_poll));
}

TEST(Config, TypedValues) {
  const config::settings s = config::resolve(
      {"GRAN_WORKERS=3", "GRAN_SPLIT=off", "GRAN_FUZZ_SEED=18446744073709551615",
       "GRAN_POLICY="},
      command_line({"--backlog=8"}).args());
  EXPECT_EQ(s.integer(config::workers), 3);
  EXPECT_FALSE(s.boolean(config::split));
  EXPECT_EQ(static_cast<std::uint64_t>(s.integer(config::fuzz_seed)), UINT64_MAX);
  EXPECT_EQ(s.integer(config::service_backlog), 8);
  // An empty value leaves the knob unset.
  EXPECT_FALSE(s.set(config::policy));
  EXPECT_EQ(s.text(config::policy), "priority-local-fifo");
}

TEST(Config, EchoListsEachSetKnobWithItsSource) {
  const config::settings s = config::resolve(
      {"LANG=C", "GRAN_POLICY=static-fifo", "GRAN_SERVICE_BACKLOG=4096"},
      command_line({"--backlog=8", "--workers=2"}).args());
  EXPECT_EQ(s.describe(),
            "# gran config: GRAN_POLICY=static-fifo (env), GRAN_SERVICE_BACKLOG=8 (--backlog)");
}

// The message resolve() throws, which load() prints before exiting 2.
std::string rejection(const std::vector<std::string>& env, const command_line& cl) {
  try {
    config::resolve(env, cl.args());
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "(accepted)";
}

TEST(Config, MalformedValueExits2NamingKnobAndValue) {
  const struct {
    std::vector<std::string> env;
    std::vector<std::string> flags;
    const char* message;
  } cases[] = {
      {{"GRAN_WORKERS=four"}, {}, "GRAN_WORKERS=four (env): not an integer"},
      {{"GRAN_SPLIT=maybe"}, {}, "GRAN_SPLIT=maybe (env): not a boolean"},
      {{"GRAN_SPLIT_MIN=64k"}, {}, "GRAN_SPLIT_MIN=64k (env): not an integer"},
      {{"GRAN_SERVICE_POLICY=rejct"}, {}, "GRAN_SERVICE_POLICY=rejct (env): not one of"},
      {{"GRAN_SERVICE_BACKLOG=1e3"}, {}, "GRAN_SERVICE_BACKLOG=1e3 (env): not an integer"},
      {{"GRAN_WORKERS=-1"}, {}, "GRAN_WORKERS=-1 (env): below the minimum 0"},
      {{}, {"--backlog=lots"}, "GRAN_SERVICE_BACKLOG=lots (--backlog): not an integer"},
      {{}, {"--policy=reject"}, "GRAN_POLICY=reject (--policy): not one of"},
  };
  for (const auto& c : cases)
    EXPECT_EQ(rejection(c.env, command_line(c.flags)).rfind(c.message, 0), 0u)
        << rejection(c.env, command_line(c.flags));

  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(config::load({"GRAN_WORKERS=four"}, command_line({}).args()),
              ::testing::ExitedWithCode(2), "error: GRAN_WORKERS=four \\(env\\): not an integer");
}

TEST(Config, RemovedKnobExits2) {
  for (const char* name : {"GRAN_SAMPLE_US", "GRAN_SAMPLE_OUT", "GRAN_SAMPLE_SET"}) {
    const std::string why = rejection({std::string(name) + "=1"}, command_line({}));
    EXPECT_EQ(why.rfind(std::string(name) + " was removed with the CSV sampler", 0), 0u) << why;
  }
  const std::string why = rejection({}, command_line({"--sample-out=ts.csv"}));
  EXPECT_EQ(why.rfind("--sample-out was removed", 0), 0u) << why;
  const std::string prom = rejection({"GRAN_METRICS_PROM=m.prom"}, command_line({}));
  EXPECT_EQ(prom.rfind("GRAN_METRICS_PROM was removed with the Prometheus textfile", 0), 0u)
      << prom;
  EXPECT_NE(prom.find("--metrics-out"), std::string::npos) << prom;
  const std::string prom_flag = rejection({}, command_line({"--metrics-prom=m.prom"}));
  EXPECT_EQ(prom_flag.rfind("--metrics-prom was removed", 0), 0u) << prom_flag;

  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(config::load({"GRAN_SAMPLE_SET=1"}, command_line({}).args()),
              ::testing::ExitedWithCode(2), "GRAN_SAMPLE_SET was removed");
}

TEST(Config, UnknownNameWarnsOnce) {
  const std::vector<std::string> env = {"GRAN_POLCY=static-fifo"};
  const config::settings s = config::resolve(env, command_line({}).args());
  ASSERT_EQ(s.warnings().size(), 1u);
  EXPECT_NE(s.warnings()[0].find("GRAN_POLCY"), std::string::npos);
  EXPECT_EQ(s.text(config::policy), "priority-local-fifo");

  ::testing::internal::CaptureStderr();
  (void)config::load(env, command_line({}).args());
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(err, "gran: " + s.warnings()[0] + "\n");
}

}  // namespace
}  // namespace gran
