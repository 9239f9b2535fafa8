#include "support/key_table.hpp"

#include <algorithm>
#include <stdexcept>

namespace easched::support {
namespace {

std::string_view trim(std::string_view s) {
  const auto first = s.find_first_not_of(" \t\r\n");
  if (first == std::string_view::npos) return {};
  return s.substr(first, s.find_last_not_of(" \t\r\n") - first + 1);
}

[[noreturn]] void fail(std::string_view spec, std::string_view what,
                       std::string_view text) {
  throw std::invalid_argument(std::string(spec) + ": " + std::string(what) +
                              " '" + std::string(text) + "'");
}

}  // namespace

void bad_value(std::string_view spec, std::string_view key,
               std::string_view value) {
  fail(spec, "bad value for '" + std::string(key) + "':", value);
}

void unknown_key(std::string_view spec, std::string_view key) {
  fail(spec, "unknown key", key);
}

void for_each_item(std::string_view text,
                   const std::function<void(std::string_view)>& fn) {
  while (!text.empty()) {
    const std::size_t eol = std::min(text.find('\n'), text.size());
    std::string_view line = text.substr(0, eol);
    line = line.substr(0, line.find('#'));
    text.remove_prefix(std::min(eol + 1, text.size()));
    while (!line.empty()) {
      const std::size_t comma = std::min(line.find(','), line.size());
      const std::string_view item = trim(line.substr(0, comma));
      line.remove_prefix(std::min(comma + 1, line.size()));
      if (!item.empty()) fn(item);
    }
  }
}

void for_each_pair(
    std::string_view text, std::string_view spec,
    const std::function<void(std::string_view, std::string_view)>& fn) {
  for_each_item(text, [&](std::string_view item) {
    const std::size_t eq = item.find('=');
    if (eq == std::string_view::npos) {
      fail(spec, "expected key=value, got", item);
    }
    fn(trim(item.substr(0, eq)), trim(item.substr(eq + 1)));
  });
}

void append_pair(std::string& out, std::string_view key,
                 std::string_view value, char sep) {
  if (!out.empty()) out.push_back(sep);
  out.append(key).append("=").append(value);
}

}  // namespace easched::support
