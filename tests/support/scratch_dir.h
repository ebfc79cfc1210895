// The one scratch-directory helper of the test suite: a fresh directory
// from mkdtemp under the system temp dir (TMPDIR), unique to the process
// and the test, removed with everything in it on destruction.  Tests that
// run concurrently under `ctest -j` never share a path.
#pragma once

#include <stdlib.h>

#include <cerrno>
#include <filesystem>
#include <string>
#include <system_error>

namespace rlcx::testing {

struct ScratchDir {
  /// `tag` only makes the directory name readable ("<tag>_XXXXXX").
  explicit ScratchDir(const std::string& tag = "rlcx") {
    std::string name =
        (std::filesystem::temp_directory_path() / (tag + "_XXXXXX")).string();
    if (::mkdtemp(name.data()) == nullptr)
      throw std::system_error(errno, std::generic_category(),
                              "mkdtemp " + name);
    path = name;
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  /// `name` inside the directory.
  std::string file(const std::string& name) const {
    return (std::filesystem::path(path) / name).string();
  }

  std::string path;  ///< the directory itself (exists, initially empty)
};

}  // namespace rlcx::testing
