// The repo's one JSON reader and its two writer helpers.
//
// read_json is a strict, single-pass RFC 8259 reader: strict numbers (no
// nan/inf, no leading zeros, digits on both sides of '.' and after 'e'),
// `\uXXXX` escapes decoded to UTF-8, unescaped control characters rejected,
// only the four JSON whitespace bytes, and nothing but whitespace after the
// document. It builds no tree: every value is reported to a visitor, in
// document order, with its dotted path from the root. Consumers keep only
// what they need — `flatten_json` (attribution/summary_diff.hpp) keeps
// every leaf, the Chrome trace validator keeps one trace event at a time,
// telemetry replay and `trace_tool` keep a handful of fields per line.
//
// write_json_number / write_json_string are the matching writers every
// JSON (and JSON-adjacent) exporter in the repo uses, so the %.9g number
// convention and the string escaping live in one place.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>

namespace easched::obs {

enum class JsonType : std::uint8_t {
  kNull,
  kBool,
  kNumber,
  kString,
  kObject,
  kArray,
};

/// One value reported by read_json. Containers are reported twice: when
/// they open (`close == false`, before their members) and when they close.
/// The views are valid only for the duration of the visitor call.
struct JsonNode {
  JsonType type = JsonType::kNull;
  bool close = false;
  std::size_t depth = 0;  ///< 0 = the document's root value
  /// Dotted path from the root: object keys and array indices joined by
  /// '.' ("" for the root, "energy.hosts.3.total_j" for a deep leaf).
  std::string_view path;
  /// Last path segment: the member name, or the array index in decimal.
  std::string_view key;
  double number = 0;      ///< kNumber value; 1 / 0 for kBool
  std::string_view text;  ///< decoded kString value
};

/// Return false to stop reading; read_json then returns false too.
using JsonVisitor = std::function<bool(const JsonNode&)>;

/// Reads one JSON document, reporting every value to `visit`. Returns
/// false on malformed input — `error` (if non-null) then names the problem
/// and its byte offset — or when the visitor stops the read, in which case
/// `error` is left untouched for the visitor to fill.
bool read_json(std::string_view text, const JsonVisitor& visit,
               std::string* error = nullptr);

/// The repo-wide number form (%.9g): deterministic across runs and
/// platforms, and round-trips every value the exporters carry.
void write_json_number(std::ostream& os, double v);

/// A quoted JSON string: '"' and '\' escaped, and every control character
/// (U+0000–U+001F) escaped as RFC 8259 requires.
void write_json_string(std::ostream& os, std::string_view s);

}  // namespace easched::obs
