#include "json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace spindle::bench {

namespace {

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

class Parser {
 public:
  explicit Parser(const std::string& t) : t_(t) {}

  std::optional<std::map<std::string, Scalar>> object(std::string& error) {
    std::map<std::string, Scalar> out;
    ws();
    if (!eat('{')) return fail(error, "expected '{'");
    ws();
    if (eat('}')) return out;
    for (;;) {
      ws();
      std::string key;
      if (!string(key)) return fail(error, "expected a string key");
      ws();
      if (!eat(':')) return fail(error, "expected ':'");
      ws();
      Scalar v;
      if (!scalar(v)) return fail(error, "expected a scalar value for " + key);
      out[key] = std::move(v);
      ws();
      if (eat(',')) continue;
      if (eat('}')) break;
      return fail(error, "expected ',' or '}'");
    }
    ws();
    if (i_ != t_.size()) return fail(error, "trailing characters");
    return out;
  }

 private:
  std::nullopt_t fail(std::string& error, const std::string& what) {
    error = what + " at offset " + std::to_string(i_);
    return std::nullopt;
  }
  void ws() {
    while (i_ < t_.size() && std::isspace(static_cast<unsigned char>(t_[i_]))) {
      ++i_;
    }
  }
  bool eat(char c) {
    if (i_ < t_.size() && t_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }
  bool string(std::string& out) {
    if (!eat('"')) return false;
    while (i_ < t_.size()) {
      const char c = t_[i_++];
      if (c == '"') return true;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (i_ >= t_.size()) return false;
      const char e = t_[i_++];
      switch (e) {
        case '"':
        case '\\':
        case '/':
          out += e;
          break;
        case 'n':
          out += '\n';
          break;
        case 't':
          out += '\t';
          break;
        case 'u': {
          if (i_ + 4 > t_.size()) return false;
          const long cp = std::strtol(t_.substr(i_, 4).c_str(), nullptr, 16);
          i_ += 4;
          out += cp < 0x80 ? static_cast<char>(cp) : '?';
          break;
        }
        default:
          return false;
      }
    }
    return false;
  }
  bool scalar(Scalar& v) {
    if (i_ < t_.size() && t_[i_] == '"') {
      v.type = Scalar::Type::string;
      return string(v.str);
    }
    if (t_.compare(i_, 4, "true") == 0) {
      i_ += 4;
      v.type = Scalar::Type::boolean;
      v.b = true;
      return true;
    }
    if (t_.compare(i_, 5, "false") == 0) {
      i_ += 5;
      v.type = Scalar::Type::boolean;
      return true;
    }
    const char* start = t_.c_str() + i_;
    char* end = nullptr;
    v.num = std::strtod(start, &end);
    if (end == start) return false;
    i_ += static_cast<std::size_t>(end - start);
    v.type = Scalar::Type::number;
    return true;
  }

  const std::string& t_;
  std::size_t i_ = 0;
};

}  // namespace

std::string format_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  if (v == std::trunc(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof buf, "%.0f", v);
    return buf;
  }
  for (int prec = 1; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

void FlatJsonWriter::put(const std::string& key, double v) {
  fields_.emplace_back(key, format_number(v));
}

void FlatJsonWriter::put(const std::string& key, std::uint64_t v) {
  fields_.emplace_back(key, std::to_string(v));
}

void FlatJsonWriter::put(const std::string& key, const std::string& v) {
  fields_.emplace_back(key, quote(v));
}

void FlatJsonWriter::put_bool(const std::string& key, bool v) {
  fields_.emplace_back(key, v ? "true" : "false");
}

std::string FlatJsonWriter::str() const {
  std::string out = "{\n";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    out += "  " + quote(fields_[i].first) + ": " + fields_[i].second;
    out += i + 1 < fields_.size() ? ",\n" : "\n";
  }
  return out + "}\n";
}

std::optional<std::map<std::string, Scalar>> parse_flat_json(
    const std::string& text, std::string& error) {
  return Parser(text).object(error);
}

}  // namespace spindle::bench
