// The one reader for text that comes from outside the program: the
// QAVAT_* environment knobs and the numeric command-line arguments of
// the tools. Every decoder of such text goes through this module, so
// they share one set of rules:
//
//  * A number is the whole string: decimal digits only (every knob is
//    non-negative, so there is no sign), a real also takes at most one
//    '.'. No space, '+', exponent or suffix, and never an overflow: "5x",
//    "-1", "1e3" and "99999999999999999999" are malformed. A number must
//    also lie in the caller's inclusive range.
//  * A flag is exactly "0" or "1".
//  * A choice is exactly one of the caller's tokens.
//
// An unset or empty variable means the default. Any other value that
// breaks the rules prints one line per variable per process,
//   qavat: ignoring QAVAT_X="v" (expected ...); using D
// and the default is used. The env_* readers re-read the environment on
// every call; callers that cache (fast_mode, the thread budget) do so
// themselves. All functions are thread-safe against each other.
#pragma once

#include <initializer_list>
#include <string>

namespace qavat {

/// Strict parse of a whole-string decimal integer in [lo, hi]. Returns
/// false, leaving *out untouched, on anything else (see the header
/// comment), including an overflow or a value outside the range.
bool parse_int(const char* text, long long lo, long long hi, long long* out);

/// Strict parse of a whole-string finite decimal real (digits with at
/// most one '.', at least one digit) in [lo, hi]. Returns false, leaving
/// *out untouched, on anything else.
bool parse_real(const char* text, double lo, double hi, double* out);

/// The value of `name`, or `def` when it is unset or empty. For values
/// with nothing to parse (paths) or with a caller-decoded grammar
/// (QAVAT_STORE_FAULT's list).
std::string env_text(const char* name, const char* def = "");

/// `name` as an integer in [lo, hi]; `def` when unset, empty or bad.
long long env_int(const char* name, long long def, long long lo, long long hi);

/// `name` as a finite real in [lo, hi]; `def` when unset, empty or bad.
double env_real(const char* name, double def, double lo, double hi);

/// `name` as a "0"/"1" flag; `def` when unset, empty or bad.
bool env_flag(const char* name, bool def);

/// The index in `tokens` of the value of `name`; `def` (an index into
/// `tokens`) when unset, empty or not one of them.
int env_choice(const char* name, std::initializer_list<const char*> tokens,
               int def);

/// Print the "qavat: ignoring NAME="value" (expected ...); using D" line
/// unless one was already printed for `name` in this process. The
/// readers above call it; a caller decoding a compound value calls it
/// for a bad part.
void env_warn(const char* name, const std::string& value,
              const std::string& expected, const std::string& fallback);

}  // namespace qavat
