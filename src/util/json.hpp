// The one JSON codec: a value type, a writer and a parser. It serves the
// `mpiv_run` report (scenario/runner.cpp), the parallel sweep's report
// fragments, and the `mpiv_stat` analysis over finished reports.
//
// The writer's layout is part of the report contract (the report digests
// pin it byte for byte): a *block* container prints one entry per line at
// two more spaces of indent than its parent line; any other container
// prints inline, entries joined by ", ". Integers print exactly, doubles
// as %.10g, and inf/nan as null. A raw value splices text write_json
// already rendered, re-indented to where it lands, so a large document
// can be rendered one part at a time.
#pragma once

#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mpiv::util {

struct Json {
  enum class Kind : std::uint8_t {
    kNull,
    kBool,
    kInt,
    kUint,
    kDouble,
    kString,
    kArray,
    kObject,
    kRaw,  // write_json output held as text (str)
  };
  Kind kind = Kind::kNull;
  bool block = false;  // containers: one entry per line
  bool boolean = false;
  std::int64_t i = 0;
  std::uint64_t u = 0;
  double d = 0;
  std::string str;
  std::vector<Json> items;                            // kArray
  std::vector<std::pair<std::string, Json>> members;  // kObject, in order

  Json() = default;
  Json(bool b) : kind(Kind::kBool), boolean(b) {}
  template <std::integral T>
    requires(!std::same_as<T, bool>)
  Json(T v) {
    if constexpr (std::is_signed_v<T>) {
      kind = Kind::kInt;
      i = v;
    } else {
      kind = Kind::kUint;
      u = v;
    }
  }
  Json(double v) : kind(Kind::kDouble), d(v) {}
  Json(std::string s) : kind(Kind::kString), str(std::move(s)) {}
  Json(const char* s) : Json(std::string(s)) {}

  static Json object(bool block = false) {
    return container(Kind::kObject, block);
  }
  static Json array(bool block = false) {
    return container(Kind::kArray, block);
  }
  static Json raw(std::string rendered) {
    Json v(std::move(rendered));
    v.kind = Kind::kRaw;
    return v;
  }

  /// Appends an object member / array item; both return *this to chain,
  /// and a chain on a temporary stays movable.
  Json& add(std::string key, Json v) & {
    members.emplace_back(std::move(key), std::move(v));
    return *this;
  }
  Json&& add(std::string key, Json v) && {
    return std::move(add(std::move(key), std::move(v)));
  }
  Json& push(Json v) & {
    items.push_back(std::move(v));
    return *this;
  }
  Json&& push(Json v) && { return std::move(push(std::move(v))); }

  /// Object member lookup; nullptr when absent or not an object.
  const Json* find(std::string_view key) const;
  /// Any numeric kind as a double (0 otherwise).
  double number() const;

 private:
  static Json container(Kind k, bool block) {
    Json v;
    v.kind = k;
    v.block = block;
    return v;
  }
};

/// Renders `v` in the report layout (no trailing newline).
std::string write_json(const Json& v);

/// Parses one complete JSON document. Throws std::runtime_error with a
/// byte-offset diagnostic on malformed input.
Json parse_json(std::string_view text);

}  // namespace mpiv::util
