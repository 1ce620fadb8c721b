// Tests for the performance-counter framework (src/perf): path parsing,
// registry operations, counter reports. Interval semantics live with the
// window aggregator (telemetry_test).
#include <gtest/gtest.h>

#include "perf/counters.hpp"
#include "perf/report.hpp"

#include <sstream>

namespace gran::perf {
namespace {

class RegistryTest : public ::testing::Test {
 protected:
  void SetUp() override { registry::instance().remove_prefix("/test"); }
  void TearDown() override { registry::instance().remove_prefix("/test"); }
};

// --- counter_path ------------------------------------------------------------

TEST(CounterPath, ParsesSimple) {
  const auto p = counter_path::parse("/threads/count/cumulative");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->object, "threads");
  EXPECT_EQ(p->instance, "");
  EXPECT_EQ(p->name, "count/cumulative");
  EXPECT_EQ(p->str(), "/threads/count/cumulative");
}

TEST(CounterPath, ParsesInstance) {
  const auto p = counter_path::parse("/threads{worker#3}/time/average");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->object, "threads");
  EXPECT_EQ(p->instance, "worker#3");
  EXPECT_EQ(p->name, "time/average");
  EXPECT_EQ(p->str(), "/threads{worker#3}/time/average");
}

TEST(CounterPath, NestedSlashesStayInName) {
  // Everything after the object segment belongs to the counter name.
  const auto p = counter_path::parse("/a/b/c/d");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->object, "a");
  EXPECT_EQ(p->instance, "");
  EXPECT_EQ(p->name, "b/c/d");
  EXPECT_EQ(p->str(), "/a/b/c/d");
}

TEST(CounterPath, EmptyInstanceBraces) {
  // `{}` parses as an empty instance; str() canonicalizes it away.
  const auto p = counter_path::parse("/threads{}/name");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->object, "threads");
  EXPECT_EQ(p->instance, "");
  EXPECT_EQ(p->name, "name");
  EXPECT_EQ(p->str(), "/threads/name");
}

TEST(CounterPath, MissingClosingBrace) {
  EXPECT_FALSE(counter_path::parse("/threads{worker#1").has_value());
  EXPECT_FALSE(counter_path::parse("/threads{worker#1/name").has_value());
}

TEST(CounterPath, RejectsMalformed) {
  EXPECT_FALSE(counter_path::parse("").has_value());
  EXPECT_FALSE(counter_path::parse("threads/count").has_value());  // no leading /
  EXPECT_FALSE(counter_path::parse("/threads").has_value());       // no name
  EXPECT_FALSE(counter_path::parse("/threads{worker/name").has_value());  // open brace
  EXPECT_FALSE(counter_path::parse("/threads/").has_value());      // empty name
  EXPECT_FALSE(counter_path::parse("/{x}/name").has_value());      // empty object
}

// --- registry -----------------------------------------------------------------

TEST_F(RegistryTest, AddQueryRemove) {
  auto& reg = registry::instance();
  int value = 10;
  reg.add("/test/counter", counter_kind::monotonic, "a test counter",
          [&value] { return static_cast<double>(value); });
  const auto v = reg.query("/test/counter");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->value, 10.0);
  EXPECT_GT(v->timestamp_ns, 0);
  value = 20;
  EXPECT_EQ(reg.value_or("/test/counter", -1), 20.0);
  EXPECT_TRUE(reg.remove("/test/counter"));
  EXPECT_FALSE(reg.remove("/test/counter"));
  EXPECT_FALSE(reg.query("/test/counter").has_value());
  EXPECT_EQ(reg.value_or("/test/counter", -1), -1.0);
}

TEST_F(RegistryTest, ListByPrefix) {
  auto& reg = registry::instance();
  reg.add("/test/a", counter_kind::gauge, "", [] { return 1.0; });
  reg.add("/test/b", counter_kind::gauge, "", [] { return 2.0; });
  reg.add("/test2/c", counter_kind::gauge, "", [] { return 3.0; });
  const auto listed = reg.list("/test/");
  EXPECT_EQ(listed.size(), 2u);
  EXPECT_EQ(listed[0], "/test/a");
  reg.remove_prefix("/test2");
  EXPECT_TRUE(reg.list("/test2").empty());
}

TEST_F(RegistryTest, KindAndDescription) {
  auto& reg = registry::instance();
  reg.add("/test/rate", counter_kind::rate, "a rate", [] { return 0.5; });
  EXPECT_EQ(reg.kind_of("/test/rate"), counter_kind::rate);
  EXPECT_EQ(reg.describe("/test/rate"), "a rate");
  EXPECT_FALSE(reg.kind_of("/test/absent").has_value());
  EXPECT_TRUE(reg.describe("/test/absent").empty());
}

TEST_F(RegistryTest, ReplaceRegistration) {
  auto& reg = registry::instance();
  reg.add("/test/x", counter_kind::gauge, "v1", [] { return 1.0; });
  reg.add("/test/x", counter_kind::gauge, "v2", [] { return 2.0; });
  EXPECT_EQ(reg.value_or("/test/x", 0), 2.0);
  EXPECT_EQ(reg.describe("/test/x"), "v2");
}

TEST_F(RegistryTest, QueryAllByPrefix) {
  auto& reg = registry::instance();
  reg.add("/test/a", counter_kind::gauge, "", [] { return 1.0; });
  reg.add("/test/b", counter_kind::monotonic, "", [] { return 2.0; });
  reg.add("/test2/c", counter_kind::gauge, "", [] { return 3.0; });

  const auto all = reg.query_all("/test/");
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].first, "/test/a");
  EXPECT_EQ(all[0].second.value, 1.0);
  EXPECT_EQ(all[1].first, "/test/b");
  EXPECT_EQ(all[1].second.value, 2.0);
  // One batch = one shared timestamp across all sampled counters.
  EXPECT_EQ(all[0].second.timestamp_ns, all[1].second.timestamp_ns);
  EXPECT_GT(all[0].second.timestamp_ns, 0);

  EXPECT_TRUE(reg.query_all("/nonexistent").empty());
  reg.remove_prefix("/test2");
}

TEST_F(RegistryTest, QueryAllSamplesOutsideLock) {
  // A counter whose sample fn re-enters the registry must not deadlock.
  auto& reg = registry::instance();
  reg.add("/test/reentrant", counter_kind::gauge, "",
          [&reg] { return reg.value_or("/test/plain", -1.0); });
  reg.add("/test/plain", counter_kind::gauge, "", [] { return 7.0; });
  const auto all = reg.query_all("/test");
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].second.value, 7.0);   // /test/plain
  EXPECT_EQ(all[1].second.value, 7.0);   // /test/reentrant via nested query
}

// --- report -------------------------------------------------------------------

TEST_F(RegistryTest, DumpCsv) {
  auto& reg = registry::instance();
  reg.add("/test/x", counter_kind::monotonic, "", [] { return 5.0; });
  reg.add("/test/y", counter_kind::gauge, "", [] { return 2.5; });
  std::ostringstream os;
  dump_csv(os, "/test");
  EXPECT_EQ(os.str(), "counter,value\n/test/x,5\n/test/y,2.5\n");
}

TEST_F(RegistryTest, DumpTableContainsDescriptions) {
  auto& reg = registry::instance();
  reg.add("/test/z", counter_kind::gauge, "the z counter", [] { return 1.0; });
  std::ostringstream os;
  dump_table(os, "/test");
  EXPECT_NE(os.str().find("/test/z"), std::string::npos);
  EXPECT_NE(os.str().find("the z counter"), std::string::npos);
}

}  // namespace
}  // namespace gran::perf

