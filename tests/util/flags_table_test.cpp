#include <gtest/gtest.h>

#include "util/flags.hpp"
#include "util/table.hpp"

namespace hbp::util {
namespace {

Flags make_flags(std::vector<std::string> args) {
  static std::vector<std::string> storage;
  storage = std::move(args);
  storage.insert(storage.begin(), "prog");
  std::vector<char*> argv;
  for (auto& s : storage) argv.push_back(s.data());
  return Flags(static_cast<int>(argv.size()), argv.data());
}

TEST(Flags, EqualsForm) {
  auto flags = make_flags({"--rate=2.5", "--count=7", "--name=foo"});
  EXPECT_DOUBLE_EQ(flags.get_double("rate", 0.0), 2.5);
  EXPECT_EQ(flags.get_int("count", 0), 7);
  EXPECT_EQ(flags.get_string("name", ""), "foo");
}

TEST(Flags, SpaceSeparatedForm) {
  auto flags = make_flags({"--rate", "3.5", "--flag"});
  EXPECT_DOUBLE_EQ(flags.get_double("rate", 0.0), 3.5);
  EXPECT_TRUE(flags.get_bool("flag", false));
}

TEST(Flags, DefaultsWhenAbsent) {
  auto flags = make_flags({});
  EXPECT_DOUBLE_EQ(flags.get_double("rate", 1.25), 1.25);
  EXPECT_EQ(flags.get_int("count", -3), -3);
  EXPECT_FALSE(flags.get_bool("flag", false));
  EXPECT_EQ(flags.get_string("name", "dflt"), "dflt");
}

TEST(Flags, BoolForms) {
  auto flags = make_flags({"--a=true", "--b=1", "--c=yes", "--d=false"});
  EXPECT_TRUE(flags.get_bool("a", false));
  EXPECT_TRUE(flags.get_bool("b", false));
  EXPECT_TRUE(flags.get_bool("c", false));
  EXPECT_FALSE(flags.get_bool("d", true));
}

TEST(Flags, DoubleList) {
  auto flags = make_flags({"--sweep=1,2.5,10"});
  const auto v = flags.get_double_list("sweep", {});
  ASSERT_EQ(v.size(), 3u);
  EXPECT_DOUBLE_EQ(v[0], 1.0);
  EXPECT_DOUBLE_EQ(v[1], 2.5);
  EXPECT_DOUBLE_EQ(v[2], 10.0);
}

TEST(Flags, HasDetectsPresence) {
  auto flags = make_flags({"--x=1"});
  EXPECT_TRUE(flags.has("x"));
  EXPECT_FALSE(flags.has("y"));
}

TEST(Flags, FalseBoolFormsAndNegativeNumbers) {
  auto flags = make_flags({"--a=false", "--b=0", "--c=no", "--n=-5", "--x=-2.5e3"});
  EXPECT_FALSE(flags.get_bool("a", true));
  EXPECT_FALSE(flags.get_bool("b", true));
  EXPECT_FALSE(flags.get_bool("c", true));
  EXPECT_EQ(flags.get_int("n", 0), -5);
  EXPECT_DOUBLE_EQ(flags.get_double("x", 0.0), -2500.0);
}

// A value the getter cannot parse in full exits 2 naming the flag, the way
// an unknown flag does, instead of running on a silent 0.
TEST(FlagsDeathTest, RejectsMalformedInt) {
  EXPECT_EXIT(make_flags({"--leaves=abc"}).get_int("leaves", 300),
              ::testing::ExitedWithCode(2), "bad value for --leaves: 'abc'");
  EXPECT_EXIT(make_flags({"--leaves=12x"}).get_int("leaves", 300),
              ::testing::ExitedWithCode(2), "bad value for --leaves: '12x'");
  EXPECT_EXIT(make_flags({"--leaves=2.5"}).get_int("leaves", 300),
              ::testing::ExitedWithCode(2), "bad value for --leaves: '2.5'");
}

TEST(FlagsDeathTest, RejectsOutOfRangeNumbers) {
  EXPECT_EXIT(make_flags({"--seed=99999999999999999999"}).get_int("seed", 1),
              ::testing::ExitedWithCode(2),
              "bad value for --seed: '99999999999999999999'");
  EXPECT_EXIT(make_flags({"--rate=1e99999"}).get_double("rate", 1.0),
              ::testing::ExitedWithCode(2), "bad value for --rate: '1e99999'");
}

TEST(FlagsDeathTest, RejectsEmptyAndTrailingGarbage) {
  EXPECT_EXIT(make_flags({"--rate="}).get_double("rate", 1.0),
              ::testing::ExitedWithCode(2), "bad value for --rate: ''");
  EXPECT_EXIT(make_flags({"--rate=1.5s"}).get_double("rate", 1.0),
              ::testing::ExitedWithCode(2), "bad value for --rate: '1.5s'");
  EXPECT_EXIT(make_flags({"--n="}).get_int("n", 1),
              ::testing::ExitedWithCode(2), "bad value for --n: ''");
}

TEST(FlagsDeathTest, RejectsUnknownBoolSpelling) {
  EXPECT_EXIT(make_flags({"--progressive=maybe"}).get_bool("progressive", true),
              ::testing::ExitedWithCode(2),
              "bad value for --progressive: 'maybe'");
  EXPECT_EXIT(make_flags({"--progressive=on"}).get_bool("progressive", true),
              ::testing::ExitedWithCode(2),
              "bad value for --progressive: 'on'");
}

TEST(FlagsDeathTest, RejectsMalformedListItem) {
  EXPECT_EXIT(make_flags({"--sweep=1,x,3"}).get_double_list("sweep", {}),
              ::testing::ExitedWithCode(2), "bad value for --sweep: '1,x,3'");
  EXPECT_EXIT(make_flags({"--sweep=1,,3"}).get_double_list("sweep", {}),
              ::testing::ExitedWithCode(2), "bad value for --sweep: '1,,3'");
  EXPECT_EXIT(make_flags({"--sweep="}).get_double_list("sweep", {}),
              ::testing::ExitedWithCode(2), "bad value for --sweep: ''");
}

TEST(Table, NumFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(static_cast<long long>(42)), "42");
  EXPECT_EQ(Table::percent(0.123, 1), "12.3%");
}

TEST(Table, RowWidthEnforced) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  EXPECT_EQ(t.rows(), 1u);
  EXPECT_DEATH(t.add_row({"only-one"}), "row width");
}

TEST(Table, PrintsAligned) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer-name", "2"});
  // Render into a memory stream to keep test output clean.
  char buf[512];
  std::FILE* f = fmemopen(buf, sizeof buf, "w");
  ASSERT_NE(f, nullptr);
  t.print(f);
  std::fclose(f);
  const std::string out(buf);
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer-name"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
}

}  // namespace
}  // namespace hbp::util
