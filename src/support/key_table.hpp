// One row table per key=value config grammar (`--faults=`,
// `--resilience=`, the repro bundle): a KeyRow holds a key and the field
// it sets, through nested structs where needed. read_key() and
// write_keys() are the one parser and printer: a value is one whole token
// (std::from_chars; integers whole and non-negative, flags 0 or 1, enums
// as their underlying integer), numbers print in shortest round-trip form
// (std::to_chars), so every double reads back bit-equal, and a row at its
// default (or at a given base object's value) is not printed.
#pragma once

#include <charconv>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>

namespace easched::support {

/// Reads `text` as one whole value of `T`; false when it is not one.
template <class T>
[[nodiscard]] bool parse_value(std::string_view text, T& out) {
  if constexpr (std::is_same_v<T, std::string>) {
    out = text;
  } else if constexpr (std::is_same_v<T, bool>) {
    if (text != "0" && text != "1") return false;
    out = text == "1";
  } else if constexpr (std::is_enum_v<T>) {
    std::underlying_type_t<T> v{};
    if (!parse_value(text, v)) return false;
    out = static_cast<T>(v);
  } else {
    T v{};
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (ec != std::errc{} || ptr != end) return false;
    if constexpr (std::is_signed_v<T> && std::is_integral_v<T>) {
      if (v < 0) return false;
    }
    out = v;
  }
  return true;
}

/// The text parse_value() reads back as `v`.
template <class T>
[[nodiscard]] std::string format_value(const T& v) {
  if constexpr (std::is_same_v<T, std::string>) {
    return v;
  } else if constexpr (std::is_same_v<T, bool>) {
    return v ? "1" : "0";
  } else if constexpr (std::is_enum_v<T>) {
    return format_value(static_cast<std::underlying_type_t<T>>(v));
  } else {
    char buf[32];
    return std::string(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
  }
}

namespace detail {
template <class T, class C>
C owner_of(T C::*);

template <class C, auto... Path>
constexpr auto& follow(C& c) {
  return (c .* ... .* Path);
}

/// The field at the end of a member-pointer path, read and printed.
template <auto First, auto... Rest>
struct Field {
  using C = decltype(owner_of(First));
  static bool read(C& c, std::string_view text) {
    return parse_value(text, follow<C, First, Rest...>(c));
  }
  static std::optional<std::string> write(const C& c, const C& base) {
    const auto& v = follow<const C, First, Rest...>(c);
    if (v == follow<const C, First, Rest...>(base)) return std::nullopt;
    return format_value(v);
  }
};
}  // namespace detail

/// `{"key", at<&Config::member, &Member::field>}`: a row for the field at
/// the end of a member-pointer path.
template <auto... Path>
inline constexpr detail::Field<Path...> at{};

/// One key of a spec: `read` sets its field from a value (false when the
/// value is malformed), `write` prints it (nullopt leaves the key out; a
/// field row leaves it out when it equals `base`'s).
template <class C>
struct KeyRow {
  const char* key;
  bool (*read)(C&, std::string_view value);
  std::optional<std::string> (*write)(const C&, const C& base);

  template <auto... Path>
  constexpr KeyRow(const char* k, detail::Field<Path...>)
      : key(k),
        read(&detail::Field<Path...>::read),
        write(&detail::Field<Path...>::write) {}
  /// A field whose text is not one number, flag or string (a host list, a
  /// whole nested spec).
  constexpr KeyRow(const char* k, bool (*r)(C&, std::string_view),
                   std::optional<std::string> (*w)(const C&, const C&))
      : key(k), read(r), write(w) {}
};

[[noreturn]] void bad_value(std::string_view spec, std::string_view key,
                            std::string_view value);
[[noreturn]] void unknown_key(std::string_view spec, std::string_view key);

/// Calls `fn(item)` for each non-blank item of `text`: items are separated
/// by ',' or a line break, '#' comments out the rest of its line, and
/// blanks around an item are dropped.
void for_each_item(std::string_view text,
                   const std::function<void(std::string_view)>& fn);

/// for_each_item() over `key=value` items, blanks around key and value
/// dropped.
void for_each_pair(
    std::string_view text, std::string_view spec,
    const std::function<void(std::string_view, std::string_view)>& fn);

/// Appends `key=value` to `out`, after `sep` unless `out` is empty.
void append_pair(std::string& out, std::string_view key,
                 std::string_view value, char sep);

/// Sets the row named `prefix` + its key from `value`; false when no row
/// has that name.
template <class C, std::size_t N>
bool read_key(const KeyRow<C> (&rows)[N], C& c, std::string_view key,
              std::string_view value, std::string_view spec,
              std::string_view prefix = {}) {
  if (key.substr(0, prefix.size()) != prefix) return false;
  for (const KeyRow<C>& row : rows) {
    if (key.substr(prefix.size()) != row.key) continue;
    if (!row.read(c, value)) bad_value(spec, key, value);
    return true;
  }
  return false;
}

/// Appends `prefix` + key `=value`, separated by `sep`, for each row that
/// prints (a field row: when it differs from `base`'s, by default a
/// default-constructed `C`'s).
template <class C, std::size_t N>
void write_keys(std::string& out, const KeyRow<C> (&rows)[N], const C& c,
                char sep, std::string_view prefix = {}, const C& base = C{}) {
  for (const KeyRow<C>& row : rows) {
    if (const auto text = row.write(c, base)) {
      append_pair(out, std::string(prefix) + row.key, *text, sep);
    }
  }
}

}  // namespace easched::support
