// Golden CLI transcripts: replays every case of
// tests/golden/cli_transcripts.txt in-process through run_cli and compares
// stdout, stderr, the exit code and any written file byte for byte.  The
// file is produced by tools/cli_golden.py (format documented there) from a
// built ccsched; regenerate it only when a change to the CLI output is
// intended, and review the diff.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cli/cli.hpp"

namespace ccs {
namespace {

namespace fs = std::filesystem;

struct GoldenCase {
  std::vector<std::string> args;
  std::string stdin_text;
  int exit_code = 0;
  std::string out;
  std::string err;
  bool has_file = false;
  std::string file;
};

fs::path repo_root() {
  return fs::path(CCS_EXAMPLES_DATA_DIR).parent_path().parent_path();
}

/// Reads one "@tag N\n<N bytes>\n" section; the tag was already consumed.
std::string read_body(std::istream& in) {
  std::size_t n = 0;
  in >> n;
  in.get();  // the newline after the count
  std::string body(n, '\0');
  in.read(body.data(), static_cast<std::streamsize>(n));
  in.get();  // the separator newline
  return body;
}

std::vector<GoldenCase> load_cases() {
  std::ifstream in(repo_root() / "tests/golden/cli_transcripts.txt",
                   std::ios::binary);
  std::vector<GoldenCase> cases;
  std::string tag;
  while (in >> tag) {
    if (tag == "@args") {
      std::string line;
      std::getline(in, line);
      GoldenCase c;
      std::istringstream fields(line.substr(1));  // drop the leading tab
      std::string arg;
      while (std::getline(fields, arg, '\t')) c.args.push_back(arg);
      cases.push_back(std::move(c));
    } else if (tag == "@stdin") {
      cases.back().stdin_text = read_body(in);
    } else if (tag == "@exit") {
      in >> cases.back().exit_code;
    } else if (tag == "@stdout") {
      cases.back().out = read_body(in);
    } else if (tag == "@stderr") {
      cases.back().err = read_body(in);
    } else if (tag == "@file") {
      cases.back().has_file = true;
      cases.back().file = read_body(in);
    } else {
      std::string comment;
      std::getline(in, comment);  // header line
    }
  }
  return cases;
}

std::string slurp(const fs::path& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

TEST(GoldenCli, TranscriptsMatchByteForByte) {
  const std::vector<GoldenCase> cases = load_cases();
  ASSERT_GE(cases.size(), 100u) << "golden transcript file missing or cut";
  const fs::path scratch = fs::path(::testing::TempDir()) / "golden.out";
  const fs::path cwd = fs::current_path();
  fs::current_path(repo_root());  // cases name files relative to the root
  for (const GoldenCase& c : cases) {
    std::vector<std::string> args = c.args;
    std::string shown;
    for (std::string& a : args) {
      shown += (shown.empty() ? "" : " ") + a;
      if (a == "@FILE@") a = scratch.string();
    }
    fs::remove(scratch);
    std::istringstream in(c.stdin_text);
    std::ostringstream out, err;
    const int code = run_cli(args, in, out, err);
    EXPECT_EQ(code, c.exit_code) << shown;
    EXPECT_EQ(out.str(), c.out) << shown;
    EXPECT_EQ(err.str(), c.err) << shown;
    if (c.has_file) {
      EXPECT_EQ(slurp(scratch), c.file) << shown;
    }
  }
  fs::current_path(cwd);
}

}  // namespace
}  // namespace ccs
