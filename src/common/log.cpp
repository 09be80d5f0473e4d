#include "common/log.h"

#include <cstdarg>
#include <cstdio>

namespace flexstep {

void log_error(const char* fmt, ...) {
  std::fputs("[error] ", stderr);
  va_list args;
  va_start(args, fmt);
  std::vfprintf(stderr, fmt, args);
  va_end(args);
  std::fputc('\n', stderr);
}

}  // namespace flexstep
