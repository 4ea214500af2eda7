#pragma once

// Flat JSON objects (string keys, scalar values): the result-file format
// written by spindle_benchmark and read by benchmark_compare.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace spindle::bench {

/// A scalar JSON value: number, string or boolean.
struct Scalar {
  enum class Type { number, string, boolean } type = Type::number;
  double num = 0;
  std::string str;
  bool b = false;
};

/// Writer that keeps insertion order. Numbers are written with 17
/// significant digits, so they read back bit-identically.
class FlatJsonWriter {
 public:
  void put(const std::string& key, double v);
  void put(const std::string& key, std::uint64_t v);
  void put(const std::string& key, const std::string& v);
  void put(const std::string& key, const char* v) { put(key, std::string(v)); }
  void put_bool(const std::string& key, bool v);
  std::string str() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Full-precision rendering of a double (shortest form that round-trips).
std::string format_number(double v);

/// Parse one flat JSON object. Returns nullopt (and sets `error`) on
/// malformed input or a nested value.
std::optional<std::map<std::string, Scalar>> parse_flat_json(
    const std::string& text, std::string& error);

}  // namespace spindle::bench
