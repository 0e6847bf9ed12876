/**
 * @file
 * Error and status reporting, following the gem5 fatal/panic split.
 *
 * panic() - a simulator bug: something that must never happen did.
 * fatal() - a user/configuration error; the simulation cannot continue.
 * warn()  - questionable behaviour that might still work.
 *
 * All three always print to stderr.
 */

#ifndef SHRIMP_SIM_LOGGING_HH
#define SHRIMP_SIM_LOGGING_HH

#include <cstdarg>
#include <string>

namespace shrimp
{

/** Printf-style formatting into a std::string. */
std::string vstrfmt(const char *fmt, va_list ap);

/** Printf-style formatting into a std::string. */
std::string strfmt(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Abort with a message; use for internal simulator bugs. */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Exit with a message; use for user/configuration errors. */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Report questionable-but-survivable behaviour. */
void warn(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace shrimp

#endif // SHRIMP_SIM_LOGGING_HH
