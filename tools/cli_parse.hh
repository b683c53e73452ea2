/**
 * @file
 * Strict flag-value parsers shared by the command-line tools.
 *
 * A flag value that is not exactly a number in its range -- trailing
 * garbage, an empty string, an out-of-range or non-finite value -- is
 * a caller error and ends in fatal (exit 1), never in a silent 0 (the
 * atoi/atof behaviour) and never in an abort further down.
 */

#ifndef ALR_TOOLS_CLI_PARSE_HH
#define ALR_TOOLS_CLI_PARSE_HH

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>

#include "common/logging.hh"
#include "common/thread_pool.hh"

namespace alr {
namespace cli {

/** Bounds of the integer flags: a block wider than 1024 is a typo, not
 *  a configuration.  --threads is bounded by kMaxThreads
 *  (common/thread_pool.hh), which bounds ALR_THREADS too. */
constexpr long kMaxOmega = 1024;
constexpr long kMaxCount = std::numeric_limits<int>::max();

/** Parse @p text as a whole base-10 integer in [lo, hi]. */
inline long
parseInteger(const char *what, const std::string &text, long lo, long hi)
{
    errno = 0;
    char *end = nullptr;
    long v = std::strtol(text.c_str(), &end, 10);
    if (end == text.c_str() || *end != '\0' || errno == ERANGE ||
        v < lo || v > hi)
        fatal("%s needs an integer in [%ld, %ld], got '%s'", what, lo, hi,
              text.c_str());
    return v;
}

/**
 * Parse @p text as a whole finite decimal number in [lo, hi], or in
 * (lo, hi) when @p open.  @p hi may be HUGE_VAL for "no upper bound".
 */
inline double
parseReal(const char *what, const std::string &text, double lo, double hi,
          bool open = false)
{
    errno = 0;
    char *end = nullptr;
    double v = std::strtod(text.c_str(), &end);
    bool inRange = open ? v > lo && v < hi : v >= lo && v <= hi;
    if (end == text.c_str() || *end != '\0' || errno == ERANGE ||
        !std::isfinite(v) || !inRange)
        fatal("%s needs a number in %c%g, %g%c, got '%s'", what,
              open ? '(' : '[', lo, hi,
              open || std::isinf(hi) ? ')' : ']', text.c_str());
    return v;
}

} // namespace cli
} // namespace alr

#endif // ALR_TOOLS_CLI_PARSE_HH
