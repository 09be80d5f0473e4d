// Error messages on stderr.
#pragma once

namespace flexstep {

/// printf-style error line on stderr, prefixed "[error] "; a newline is
/// appended.
void log_error(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace flexstep

#define FLEX_LOG_ERROR(...) ::flexstep::log_error(__VA_ARGS__)
