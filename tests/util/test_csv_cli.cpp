#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/cli.hpp"
#include "util/csv.hpp"

namespace edfkit {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(Csv, WritesHeaderAndRows) {
  const std::string path = ::testing::TempDir() + "edfkit_csv_test.csv";
  {
    CsvWriter w(path);
    w.header({"a", "b", "c"});
    w.row_of(1, 2.5, "x");
  }
  EXPECT_EQ(slurp(path), "a,b,c\n1,2.5,x\n");
  std::remove(path.c_str());
}

TEST(Csv, EscapesSeparatorsAndQuotes) {
  const std::string path = ::testing::TempDir() + "edfkit_csv_esc.csv";
  {
    CsvWriter w(path);
    w.row({"plain", "with,comma", "with\"quote", "with\nnewline"});
  }
  EXPECT_EQ(slurp(path),
            "plain,\"with,comma\",\"with\"\"quote\",\"with\nnewline\"\n");
  std::remove(path.c_str());
}

TEST(Csv, NullWriterDiscards) {
  CsvWriter w;
  EXPECT_FALSE(w.active());
  w.row_of(1, 2, 3);  // must not crash
}

TEST(Csv, ThrowsOnUnopenablePath) {
  EXPECT_THROW(CsvWriter("/nonexistent-dir-xyz/file.csv"),
               std::runtime_error);
}

TEST(Cli, ParsesAllFlagForms) {
  const char* argv[] = {"prog",     "--alpha", "3",    "--beta=hello",
                        "--gamma",  "pos1",    "--delta"};
  CliFlags f(7, const_cast<char**>(argv));
  EXPECT_EQ(f.program(), "prog");
  EXPECT_EQ(f.get_int("alpha", 0), 3);
  EXPECT_EQ(f.get("beta", ""), "hello");
  EXPECT_EQ(f.get("gamma", ""), "pos1");  // --name value form
  EXPECT_TRUE(f.has("delta"));
  EXPECT_TRUE(f.get_bool("delta", false));  // bare flag means true
}

TEST(Cli, Fallbacks) {
  const char* argv[] = {"prog"};
  CliFlags f(1, const_cast<char**>(argv));
  EXPECT_EQ(f.get_int("missing", 42), 42);
  EXPECT_DOUBLE_EQ(f.get_double("missing", 2.5), 2.5);
  EXPECT_EQ(f.get("missing", "dflt"), "dflt");
  EXPECT_FALSE(f.get_bool("missing", false));
}

TEST(Cli, PositionalsCollected) {
  const char* argv[] = {"prog", "one", "--k", "v", "two"};
  CliFlags f(5, const_cast<char**>(argv));
  ASSERT_EQ(f.rest().size(), 2u);
  EXPECT_EQ(f.rest()[0], "one");
  EXPECT_EQ(f.rest()[1], "two");
}

TEST(Cli, BoolValueForms) {
  const char* argv[] = {"prog", "--x=0", "--y=true", "--z=no"};
  CliFlags f(4, const_cast<char**>(argv));
  EXPECT_FALSE(f.get_bool("x", true));
  EXPECT_TRUE(f.get_bool("y", false));
  EXPECT_FALSE(f.get_bool("z", true));
}

TEST(Cli, RejectUnknownNamesEveryFlagOutsideTheKnownSet) {
  const char* argv[] = {"prog",           "pos",          "--port", "7461",
                        "--max-pendng=10", "--skip-exact", "--verbsoe"};
  CliFlags f(7, const_cast<char**>(argv));
  std::ostringstream err;
  EXPECT_TRUE(
      f.reject_unknown({"port", "max-pending", "skip-exact", "verbose"}, err));
  EXPECT_EQ(err.str(),
            "error: unknown flag --max-pendng\n"
            "error: unknown flag --verbsoe\n");
  // Positionals are not flags, and a fully known command line is clean.
  std::ostringstream clean;
  EXPECT_FALSE(f.reject_unknown(
      {"port", "max-pendng", "skip-exact", "verbsoe"}, clean));
  const char* none[] = {"prog"};
  EXPECT_FALSE(CliFlags(1, const_cast<char**>(none)).reject_unknown({}, clean));
  EXPECT_TRUE(clean.str().empty());
}

TEST(Cli, EnvFallback) {
  const char* argv[] = {"prog", "--sets", "9"};
  CliFlags f(3, const_cast<char**>(argv));
  ::setenv("EDFKIT_TEST_ENV_VAR", "123", 1);
  EXPECT_EQ(f.get_int_env("sets", "EDFKIT_TEST_ENV_VAR", 1), 9);  // flag wins
  EXPECT_EQ(f.get_int_env("other", "EDFKIT_TEST_ENV_VAR", 1), 123);
  EXPECT_EQ(f.get_int_env("other", "EDFKIT_UNSET_VAR_XYZ", 7), 7);
  ::unsetenv("EDFKIT_TEST_ENV_VAR");
}

}  // namespace
}  // namespace edfkit
