// Small string helpers shared across modules.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace nexsort {

/// Split `input` on `sep`, keeping empty fields.
std::vector<std::string_view> Split(std::string_view input, char sep);

/// True if `s` parses fully as a (possibly signed) decimal or simple
/// floating-point number; sets *value on success.
bool ParseNumber(std::string_view s, double* value);

/// Append the UTF-8 encoding of the code point `cp` to *out.
void AppendUtf8(std::string* out, uint32_t cp);

/// Render a byte count with binary units ("1.5 MiB").
std::string HumanBytes(uint64_t bytes);

/// Render a count with thousands separators ("1,234,567").
std::string WithCommas(uint64_t value);

}  // namespace nexsort
