// Tests for octgb::util — strings, RNG, args, tables, checks.

#include <gtest/gtest.h>

#include "octgb/util/args.hpp"
#include "octgb/util/check.hpp"
#include "octgb/util/rng.hpp"
#include "octgb/util/strings.hpp"
#include "octgb/util/table.hpp"

namespace util = octgb::util;

// ---- check ---------------------------------------------------------------

TEST(Check, PassingConditionDoesNothing) { OCTGB_CHECK(1 + 1 == 2); }

TEST(Check, FailingConditionThrowsCheckError) {
  EXPECT_THROW(OCTGB_CHECK(false), util::CheckError);
}

TEST(Check, MessageIsIncluded) {
  try {
    OCTGB_CHECK_MSG(false, "context " << 42);
    FAIL() << "should have thrown";
  } catch (const util::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("context 42"), std::string::npos);
  }
}

// ---- strings ---------------------------------------------------------------

TEST(Strings, TrimRemovesBothEnds) {
  EXPECT_EQ(util::trim("  abc  "), "abc");
  EXPECT_EQ(util::trim("abc"), "abc");
  EXPECT_EQ(util::trim("   "), "");
  EXPECT_EQ(util::trim(""), "");
  EXPECT_EQ(util::trim("\t x \n"), "x");
}

TEST(Strings, SplitKeepsEmptyFields) {
  const auto parts = util::split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(util::starts_with("ATOM  123", "ATOM"));
  EXPECT_FALSE(util::starts_with("AT", "ATOM"));
  EXPECT_TRUE(util::starts_with("x", ""));
}

TEST(Strings, CaseConversion) {
  EXPECT_EQ(util::to_upper("aBc1"), "ABC1");
}

TEST(Strings, ParseDoubleField) {
  EXPECT_DOUBLE_EQ(util::parse_double_field("  3.25 ", 0.0), 3.25);
  EXPECT_DOUBLE_EQ(util::parse_double_field("   ", 7.5), 7.5);
  EXPECT_DOUBLE_EQ(util::parse_double_field("-1e3", 0.0), -1000.0);
  EXPECT_THROW(util::parse_double_field("12x", 0.0), util::CheckError);
}

TEST(Strings, ParseIntField) {
  EXPECT_EQ(util::parse_int_field(" 42 ", 0), 42);
  EXPECT_EQ(util::parse_int_field("", 9), 9);
  EXPECT_EQ(util::parse_int_field("-7", 0), -7);
  EXPECT_THROW(util::parse_int_field("4.2", 0), util::CheckError);
  // Outside int: rejected, not wrapped (4294967298 would read as 2).
  EXPECT_THROW(util::parse_int_field("4294967298", 0), util::CheckError);
  EXPECT_THROW(util::parse_int_field("-2147483649", 0), util::CheckError);
  EXPECT_EQ(util::parse_int_field("2147483647", 0), 2147483647);
  EXPECT_THROW(util::parse_llong_field("99999999999999999999", 0),
               util::CheckError);
}

TEST(Strings, Format) {
  EXPECT_EQ(util::format("%d-%s", 3, "x"), "3-x");
  EXPECT_EQ(util::format("%.2f", 1.005), "1.00");  // printf semantics
}

TEST(Strings, HumanBytes) {
  EXPECT_EQ(util::human_bytes(512), "512 B");
  EXPECT_EQ(util::human_bytes(1536), "1.50 KB");
  EXPECT_EQ(util::human_bytes(1.4 * 1024 * 1024 * 1024), "1.40 GB");
}

TEST(Strings, HumanSeconds) {
  EXPECT_EQ(util::human_seconds(198.0), "3.3 min");
  EXPECT_EQ(util::human_seconds(4.8), "4.80 s");
  EXPECT_EQ(util::human_seconds(0.0125), "12.5 ms");
  EXPECT_EQ(util::human_seconds(2.5e-5), "25.0 us");
}

// ---- rng -------------------------------------------------------------------

TEST(Rng, DeterministicPerSeed) {
  util::Xoshiro256 a(12345), b(12345), c(54321);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
  bool differs = false;
  util::Xoshiro256 a2(12345);
  for (int i = 0; i < 100; ++i) differs |= (a2() != c());
  EXPECT_TRUE(differs);
}

TEST(Rng, UniformInUnitInterval) {
  util::Xoshiro256 r(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanIsHalf) {
  util::Xoshiro256 r(11);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += r.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, BelowIsInRangeAndRoughlyUniform) {
  util::Xoshiro256 r(13);
  int counts[10] = {};
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const auto v = r.below(10);
    ASSERT_LT(v, 10u);
    ++counts[v];
  }
  for (int c : counts) EXPECT_NEAR(c, n / 10, n / 100);
}

TEST(Rng, NormalMomentsMatch) {
  util::Xoshiro256 r(17);
  double sum = 0, sum2 = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = r.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(Rng, SplitStreamsDiffer) {
  util::Xoshiro256 parent(23);
  auto child = parent.split();
  bool differs = false;
  for (int i = 0; i < 32; ++i) differs |= (parent() != child());
  EXPECT_TRUE(differs);
}

TEST(Rng, Fnv1a64IsStable) {
  // Stable across platforms and runs: molecule seeds depend on it.
  EXPECT_EQ(util::fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(util::fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_NE(util::fnv1a64("1PPE_l_b"), util::fnv1a64("1PPE_r_b"));
}

// ---- args ------------------------------------------------------------------

TEST(Args, ParsesAllForms) {
  std::string name = "default";
  double x = 1.0;
  int n = 2;
  long long seed = 3;
  bool flag = false;
  util::Args args;
  args.add("name", &name, "a name")
      .add("x", &x, "a double")
      .add("n", &n, "an int")
      .add("seed", &seed, "a long long")
      .flag("verbose", &flag, "a flag");
  const char* argv[] = {"prog", "--name", "mol", "--x=2.5", "--n", "7",
                        "--seed=-12", "--verbose"};
  args.parse(8, const_cast<char**>(argv));
  EXPECT_EQ(name, "mol");
  EXPECT_DOUBLE_EQ(x, 2.5);
  EXPECT_EQ(n, 7);
  EXPECT_EQ(seed, -12);
  EXPECT_TRUE(flag);
  // Every numeric form rejects trailing garbage and out-of-range values.
  for (const char* bad : {"--x=2.5x", "--n=7abc", "--n=4294967298",
                          "--seed=12abc", "--seed=abc"}) {
    SCOPED_TRACE(bad);
    const char* bad_argv[] = {"prog", bad};
    EXPECT_THROW(args.parse(2, const_cast<char**>(bad_argv)),
                 util::CheckError);
  }
  EXPECT_EQ(n, 7);
  EXPECT_EQ(seed, -12);
}

TEST(Args, UnknownOptionThrows) {
  util::Args args;
  const char* argv[] = {"prog", "--nope", "1"};
  EXPECT_THROW(args.parse(3, const_cast<char**>(argv)), util::CheckError);
}

TEST(Args, MissingValueThrows) {
  int n = 0;
  util::Args args;
  args.add("n", &n, "int");
  const char* argv[] = {"prog", "--n"};
  EXPECT_THROW(args.parse(2, const_cast<char**>(argv)), util::CheckError);
}

TEST(Args, HelpMentionsOptionsAndDefaults) {
  int n = 42;
  util::Args args;
  args.add("count", &n, "how many");
  const std::string h = args.help("prog");
  EXPECT_NE(h.find("--count"), std::string::npos);
  EXPECT_NE(h.find("42"), std::string::npos);
  EXPECT_NE(h.find("how many"), std::string::npos);
}

// ---- table -----------------------------------------------------------------

TEST(Table, AlignedRendering) {
  util::Table t("demo");
  t.header({"name", "value"});
  t.row({"x", "1"});
  t.row({"longer", "22"});
  const std::string s = t.str();
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("longer"), std::string::npos);
  // Header columns aligned to the widest cell.
  EXPECT_NE(s.find("name    value"), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  util::Table t;
  t.header({"a", "b"});
  EXPECT_THROW(t.row({"only-one"}), util::CheckError);
}

TEST(Table, CsvQuotesSpecials) {
  util::Table t;
  t.header({"a", "b"});
  t.row({"x,y", "he said \"hi\""});
  const std::string csv = t.csv();
  EXPECT_NE(csv.find("\"x,y\""), std::string::npos);
  EXPECT_NE(csv.find("\"he said \"\"hi\"\"\""), std::string::npos);
}

TEST(Table, CsvRoundTripSimple) {
  util::Table t;
  t.header({"m", "n"});
  t.row({"1", "2"});
  EXPECT_EQ(t.csv(), "m,n\n1,2\n");
}
