#include "util/args.h"

#include <gtest/gtest.h>

#include "util/check.h"

namespace kcore::util {
namespace {

Args make(std::initializer_list<const char*> tokens) {
  std::vector<std::string> v;
  for (const char* t : tokens) v.emplace_back(t);
  return Args(std::move(v));
}

TEST(Args, PositionalArguments) {
  const auto args = make({"decompose", "extra"});
  ASSERT_EQ(args.positional().size(), 2U);
  EXPECT_EQ(args.positional()[0], "decompose");
  EXPECT_EQ(args.positional()[1], "extra");
}

TEST(Args, EqualsSyntax) {
  const auto args = make({"--n=100", "--name=web"});
  EXPECT_EQ(args.get("n").value(), "100");
  EXPECT_EQ(args.get("name").value(), "web");
}

TEST(Args, SpaceSyntax) {
  const auto args = make({"--input", "graph.txt", "--hosts", "16"});
  EXPECT_EQ(args.get("input").value(), "graph.txt");
  EXPECT_EQ(args.get_int("hosts", 0), 16);
}

TEST(Args, BareFlags) {
  const auto args = make({"--summary", "--exact-diameter"});
  EXPECT_TRUE(args.has("summary"));
  EXPECT_TRUE(args.has("exact-diameter"));
  EXPECT_FALSE(args.get("summary").has_value());
  EXPECT_FALSE(args.has("missing"));
}

TEST(Args, FlagFollowedByOption) {
  // "--summary --algo bz": summary must remain a bare flag.
  const auto args = make({"--summary", "--algo", "bz"});
  EXPECT_TRUE(args.has("summary"));
  EXPECT_FALSE(args.get("summary").has_value());
  EXPECT_EQ(args.get("algo").value(), "bz");
}

TEST(Args, TypedGettersWithDefaults) {
  const auto args = make({"--n", "42", "--scale", "0.5"});
  EXPECT_EQ(args.get_int("n", 7), 42);
  EXPECT_EQ(args.get_int("missing", 7), 7);
  EXPECT_EQ(args.get_double("scale", 1.0), 0.5);
  EXPECT_EQ(args.get_string("missing", "x"), "x");
}

TEST(Args, TypedGettersRejectGarbage) {
  const auto args = make({"--n", "12x", "--d", "1.2.3"});
  EXPECT_THROW((void)args.get_int("n", 0), CheckError);
  EXPECT_THROW((void)args.get_double("d", 0.0), CheckError);
}

TEST(Args, GetCheckedRejectsOutOfRangeBeforeTheCast) {
  const auto args = make({"--neg", "-1", "--ok", "5", "--big", "11", "--huge",
                          "99999999999999999999"});
  EXPECT_EQ(args.get_checked("ok", 0, 10), 5);
  EXPECT_EQ(args.get_checked("missing", 3, 10), 3);
  EXPECT_EQ(args.get_checked("ok", 0, 5), 5);  // the bound is inclusive
  try {
    (void)args.get_checked("neg", 0, 10);
    ADD_FAILURE() << "--neg -1 accepted";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("--neg"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW((void)args.get_checked("big", 0, 10), CheckError);
  EXPECT_THROW((void)args.get_checked("huge", 0, 10), CheckError);
}

TEST(Args, MalformedOptionThrows) {
  EXPECT_THROW(make({"--=x"}), CheckError);
  EXPECT_THROW(make({"--"}), CheckError);
}

TEST(Args, UnusedTracksUnqueriedOptions) {
  const auto args = make({"--used", "1", "--typo", "2"});
  EXPECT_EQ(args.get_int("used", 0), 1);
  const auto unused = args.unused();
  ASSERT_EQ(unused.size(), 1U);
  EXPECT_EQ(unused[0], "typo");
}

TEST(Args, MixedEverything) {
  const auto args = make(
      {"generate", "trailing", "--family=ba", "--n", "500", "--verbose"});
  EXPECT_EQ(args.positional(),
            (std::vector<std::string>{"generate", "trailing"}));
  EXPECT_EQ(args.get_string("family", ""), "ba");
  EXPECT_EQ(args.get_int("n", 0), 500);
  EXPECT_TRUE(args.has("verbose"));
}

TEST(Args, ValuelessOptionConsumesNextPositionalByDesign) {
  // Documented grammar: "--key value" binds greedily; a trailing
  // positional after a flag must come before it or use --key=value.
  const auto args = make({"--verbose", "trailing"});
  EXPECT_EQ(args.get("verbose").value(), "trailing");
  EXPECT_TRUE(args.positional().empty());
}

TEST(Args, ArgcArgvConstructor) {
  const char* argv[] = {"prog", "stats", "--input", "g.txt"};
  const Args args(4, argv);
  EXPECT_EQ(args.positional(), (std::vector<std::string>{"stats"}));
  EXPECT_EQ(args.get("input").value(), "g.txt");
}

}  // namespace
}  // namespace kcore::util
