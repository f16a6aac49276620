// JSON string escaping, shared by every JSON the program writes: gateway
// response bodies, /metrics, /debug/slo and the Perfetto trace export.
#pragma once

#include <string>
#include <string_view>

namespace wdoc {

// Appends `s` to `out` as the inside of a JSON string: `"` and `\` are
// backslash-escaped, \n \r \t use their short forms, and every other byte
// below 0x20 becomes \u00XX. Bytes from 0x20 up pass through unchanged.
void json_escape(std::string& out, std::string_view s);

}  // namespace wdoc
