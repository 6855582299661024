// End-to-end tests of the kcore command-line front end: each case writes
// its inputs to a fresh temporary directory, runs the built binary and
// checks its exit status and output.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

namespace kcore {
namespace {

namespace fs = std::filesystem;

struct CliRun {
  int status = -1;
  std::string output;  // stdout and stderr, interleaved
};

CliRun run_cli(const std::string& arguments) {
  const std::string command =
      std::string(KCORE_CLI_PATH) + " " + arguments + " 2>&1";
  CliRun run;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return run;
  std::array<char, 4096> buffer{};
  std::size_t got = 0;
  while ((got = std::fread(buffer.data(), 1, buffer.size(), pipe)) > 0) {
    run.output.append(buffer.data(), got);
  }
  const int raw = pclose(pipe);
  run.status = WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
  return run;
}

class Cli : public testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("kcore_test_cli_" + std::to_string(::getpid()) + "_" +
            testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string write(const std::string& name, const std::string& text) {
    const fs::path path = dir_ / name;
    std::ofstream(path) << text;
    return path.string();
  }

  fs::path dir_;
};

// The input's ids are not dense: 5, 9, 3, 7 load as dense 0, 1, 2, 3.
// The update names the edge by the file's ids and must remove {5, 9}.
TEST_F(Cli, StreamUpdateIdsAreTheInputFilesIds) {
  const std::string input = write("base.txt", "5 9\n9 3\n3 5\n3 7\n");
  const std::string updates = write("updates.txt", "0 - 5 9\n");
  const CliRun run = run_cli("stream --input " + input + " --updates " +
                             updates + " --verify --json");
  ASSERT_EQ(run.status, 0) << run.output;
  EXPECT_NE(run.output.find("\"applied_removes\":1"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("\"ignored\":0"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("\"exact\":true"), std::string::npos)
      << run.output;

  // The table view reports the final edge count: 4 - 1.
  const CliRun table = run_cli("stream --input " + input + " --updates " +
                               updates + " --verify");
  ASSERT_EQ(table.status, 0) << table.output;
  EXPECT_NE(table.output.find("final: epoch 1, 3 edges"), std::string::npos)
      << table.output;
}

// An id the input file never names is an error with its line number —
// including 0 and 1, which are dense ids but not ids of this file.
TEST_F(Cli, StreamUpdateIdOutsideTheInputIsRejectedWithItsLine) {
  const std::string input = write("base.txt", "5 9\n9 3\n3 5\n3 7\n");
  const std::string updates =
      write("updates.txt", "# header\n0 - 5 9\n1 - 0 1\n");
  const CliRun run =
      run_cli("stream --input " + input + " --updates " + updates);
  EXPECT_EQ(run.status, 1) << run.output;
  EXPECT_NE(run.output.find("updates.txt line 3"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("node id 0"), std::string::npos) << run.output;
}

// --recover maps the remaining updates through the same --input ids as
// the original run: {5, 7} is dense {0, 3}. The second batch would be
// rejected as out of range if its ids were read as dense ids.
TEST_F(Cli, RecoverMapsUpdateIdsThroughTheOriginalInput) {
  const std::string input = write("base.txt", "5 9\n9 3\n3 5\n3 7\n");
  const std::string state = (dir_ / "state").string();
  const std::string first = write("first.txt", "0 - 5 9\n");
  const CliRun original = run_cli("stream --input " + input + " --updates " +
                                  first + " --wal " + state);
  ASSERT_EQ(original.status, 0) << original.output;

  const std::string all = write("all.txt", "0 - 5 9\n1 + 5 7\n");
  const CliRun resumed = run_cli("stream --input " + input + " --updates " +
                                 all + " --wal " + state + " --recover --verify");
  ASSERT_EQ(resumed.status, 0) << resumed.output;
  EXPECT_NE(resumed.output.find("recovered: epoch 1"), std::string::npos)
      << resumed.output;
  EXPECT_NE(resumed.output.find("final: epoch 2, 4 edges"), std::string::npos)
      << resumed.output;
}

// The state directory records the original --input's ids, so --recover
// refuses another --input — here the same graph and node count, listed
// in another order, which would send the updates to other nodes — and
// refuses to run without one.
TEST_F(Cli, RecoverRejectsAnInputWithOtherIds) {
  const std::string input = write("base.txt", "5 9\n9 3\n3 5\n3 7\n");
  const std::string state = (dir_ / "state").string();
  const std::string updates = write("updates.txt", "0 - 5 9\n1 + 5 7\n");
  const CliRun original = run_cli("stream --input " + input + " --updates " +
                                  updates + " --wal " + state);
  ASSERT_EQ(original.status, 0) << original.output;

  const std::string reordered =
      write("reordered.txt", "9 5\n5 3\n3 9\n3 7\n");
  const CliRun other = run_cli("stream --input " + reordered +
                               " --updates " + updates + " --wal " + state +
                               " --recover");
  EXPECT_EQ(other.status, 1) << other.output;
  EXPECT_NE(other.output.find("node ids differ"), std::string::npos)
      << other.output;

  const CliRun none =
      run_cli("stream --updates " + updates + " --wal " + state + " --recover");
  EXPECT_NE(none.status, 0) << none.output;
  EXPECT_NE(none.output.find("--input FILE is required"), std::string::npos)
      << none.output;
}

}  // namespace
}  // namespace kcore
