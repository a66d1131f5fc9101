// The one JSON string escaper. Every hand-built JSON body (the trace
// export, a query's explain, the admin endpoints) escapes free text
// through it, so user configuration quoted in a message (a spill path
// in a /healthz detail, say) cannot make a body invalid JSON.

#pragma once

#include <cstdio>
#include <string>
#include <string_view>

namespace sharing {

/// Appends `s` to `out` as the inside of a JSON string: `"` and `\`
/// are backslash-escaped, newline and tab get their short escapes, and
/// every other control character becomes `\u00XX`.
inline void AppendJsonEscaped(std::string* out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
}

}  // namespace sharing
