#ifndef FABRICSIM_COMMON_STRINGS_H_
#define FABRICSIM_COMMON_STRINGS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace fabricsim {

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Splits `s` on `sep`, keeping empty pieces.
std::vector<std::string> StrSplit(const std::string& s, char sep);

/// Removes leading/trailing ASCII whitespace.
std::string StrTrim(const std::string& s);

/// Zero-pads `value` to `width` digits, e.g. PadKey(7, 4) == "0007".
/// Fabric range queries compare keys lexicographically, so all numeric
/// keys in the chaincodes use fixed-width encoding.
std::string PadKey(uint64_t value, int width);

/// Parses all of `text` as a decimal unsigned integer. Errors are
/// InvalidArgument and name `what` (e.g. the command-line flag).
Result<uint64_t> ParseUint64(const std::string& what, const std::string& text);

/// Parses all of `text` as a finite floating-point number. Errors are
/// InvalidArgument and name `what`.
Result<double> ParseDouble(const std::string& what, const std::string& text);

/// FNV-1a 64-bit hash, used for read/write-set digests.
uint64_t Fnv1a(const std::string& data);
uint64_t Fnv1aCombine(uint64_t seed, const std::string& data);
uint64_t Fnv1aCombine(uint64_t seed, uint64_t value);

}  // namespace fabricsim

#endif  // FABRICSIM_COMMON_STRINGS_H_
