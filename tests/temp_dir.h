#ifndef FIELDDB_TESTS_TEMP_DIR_H_
#define FIELDDB_TESTS_TEMP_DIR_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>

namespace fielddb {

/// A directory under gtest's TempDir() that belongs to this test
/// process alone (`fielddb_<pid>`), created on first use and removed
/// with everything in it at exit. Suites put their files here, so the
/// same suite run at once from two build trees (say the default build
/// and a sanitizer build) never shares a path.
inline const std::string& TestTempDir() {
  struct Dir {
    std::string path = (std::filesystem::path(::testing::TempDir()) /
                        ("fielddb_" + std::to_string(::getpid())))
                           .string();
    Dir() { std::filesystem::create_directories(path); }
    ~Dir() {
      std::error_code ignored;
      std::filesystem::remove_all(path, ignored);
    }
  };
  static const Dir dir;
  return dir.path;
}

}  // namespace fielddb

#endif  // FIELDDB_TESTS_TEMP_DIR_H_
