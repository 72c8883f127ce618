// ScopedTempDir: a fresh directory for one test's files, removed with
// everything in it when the object goes out of scope.
//
// Test suites run one process per TEST (gtest_discover_tests), and under
// `ctest -j` those processes overlap. A suite that saves into a fixed path
// such as `testing::TempDir() + "/snapshot"` then races its siblings: one
// process's TearDownTestSuite removes the directory another is still
// saving into or loading from. Every directory made here is unique — the
// process id plus a mkdtemp suffix — so no two processes, and no two
// objects in one process, ever share one.
//
// Usage:
//   testkit::ScopedTempDir tmp("serving");
//   SaveSnapshot(system, tmp.path());
//   ... tmp.path() + "/index.txt" ...
#ifndef LITE_TESTKIT_TEMP_DIR_H_
#define LITE_TESTKIT_TEMP_DIR_H_

#include <stdlib.h>
#include <unistd.h>

#include <filesystem>
#include <stdexcept>
#include <string>
#include <system_error>
#include <vector>

namespace lite::testkit {

class ScopedTempDir {
 public:
  /// Creates `<system temp dir>/<prefix>-<pid>-XXXXXX`; throws when the
  /// directory cannot be made.
  explicit ScopedTempDir(const std::string& prefix = "lite") {
    const std::string pattern =
        (std::filesystem::temp_directory_path() /
         (prefix + "-" + std::to_string(::getpid()) + "-XXXXXX"))
            .string();
    std::vector<char> buf(pattern.begin(), pattern.end());
    buf.push_back('\0');
    if (::mkdtemp(buf.data()) == nullptr) {
      throw std::runtime_error("ScopedTempDir: mkdtemp failed for " + pattern);
    }
    path_ = buf.data();
  }

  ~ScopedTempDir() {
    std::error_code ec;  // best effort: never throw from a destructor.
    std::filesystem::remove_all(path_, ec);
  }

  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace lite::testkit

#endif  // LITE_TESTKIT_TEMP_DIR_H_
