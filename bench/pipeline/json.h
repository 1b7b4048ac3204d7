// Just enough JSON output for the pipeline benchmark's result files:
// ordered objects, arrays of numbers, and raw embedding of already
// serialized values (the per-workload objects the child processes write).
// The harness's JsonObjectWriter has no arrays, which the per-trial
// samples need.
#ifndef CAPP_BENCH_PIPELINE_JSON_H_
#define CAPP_BENCH_PIPELINE_JSON_H_

#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace capp::pipeline {

/// A JSON string literal with quotes and escapes.
inline std::string JsonString(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char escaped[8];
      std::snprintf(escaped, sizeof(escaped), "\\u%04x", c);
      out += escaped;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// A number with every digit a double carries; non-finite values (which
/// JSON cannot spell) become null.
inline std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char text[32];
  std::snprintf(text, sizeof(text), "%.17g", value);
  return text;
}

inline std::string JsonHex(uint64_t value) {
  char text[24];
  std::snprintf(text, sizeof(text), "\"%016" PRIx64 "\"", value);
  return text;
}

inline std::string JsonNumbers(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonNumber(values[i]);
  }
  return out + "]";
}

/// An ordered JSON object built key by key.
class JsonObject {
 public:
  JsonObject& Raw(std::string_view key, std::string_view json) {
    if (!body_.empty()) body_ += ", ";
    body_ += JsonString(key);
    body_ += ": ";
    body_ += json;
    return *this;
  }
  JsonObject& Str(std::string_view key, std::string_view value) {
    return Raw(key, JsonString(value));
  }
  JsonObject& Num(std::string_view key, double value) {
    return Raw(key, JsonNumber(value));
  }
  JsonObject& Int(std::string_view key, uint64_t value) {
    return Raw(key, std::to_string(value));
  }
  JsonObject& Bool(std::string_view key, bool value) {
    return Raw(key, value ? "true" : "false");
  }
  JsonObject& Obj(std::string_view key, const JsonObject& value) {
    return Raw(key, value.str());
  }

  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

}  // namespace capp::pipeline

#endif  // CAPP_BENCH_PIPELINE_JSON_H_
