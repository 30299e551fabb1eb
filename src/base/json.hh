/**
 * @file
 * Minimal JSON string-literal escaping.
 *
 * The library emits JSON from one place, `tools/batch_run --json`,
 * and it embeds workload *specs*, which can contain anything a file
 * path can (`file:/tmp/a"b.dlt` is legal). Full JSON serialization
 * stays hand-rolled at the call site, where the fixed shape keeps
 * `%.17g` round-tripping obvious.
 */

#ifndef DELOREAN_BASE_JSON_HH
#define DELOREAN_BASE_JSON_HH

#include <cstdio>
#include <string>

namespace delorean
{

/** Escape quotes, backslashes, and control bytes for a JSON string. */
inline std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if ((unsigned char)c < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

} // namespace delorean

#endif // DELOREAN_BASE_JSON_HH
