// Per-test scratch file paths.  ctest runs every TEST as its own
// process, in parallel under `ctest -j`, so a fixed file name under
// ::testing::TempDir() is shared by concurrently running tests.  The
// paths returned here embed the running test's full name and the
// process id, so no two tests (or two runs of one test) collide.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <string>
#include <string_view>

namespace cinderella::test_util {

/// `<TempDir>/<Suite>.<Test>.<pid>.<stem>`; parameterized names have
/// their '/' replaced so the result stays one path component.
inline std::string uniqueTempPath(std::string_view stem) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = info != nullptr ? std::string(info->test_suite_name()) +
                                           "." + info->name()
                                     : "no_test";
  for (char& c : name) {
    if (c == '/') c = '_';
  }
  std::string dir = ::testing::TempDir();
  if (!dir.empty() && dir.back() != '/') dir += '/';
  return dir + name + "." + std::to_string(::getpid()) + "." +
         std::string(stem);
}

}  // namespace cinderella::test_util
