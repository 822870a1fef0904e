#pragma once
// Sets an environment variable for one scope, restoring the old value (or
// unsetting it) on exit.

#include <cstdlib>
#include <string>

namespace icsim {

class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (old_.empty()) {
      ::unsetenv(name_);
    } else {
      ::setenv(name_, old_.c_str(), 1);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::string old_;
};

}  // namespace icsim
