// Minimal streaming JSON writer, the machine-readable twin of CsvWriter:
// the experiments emit CSV through stats::CsvWriter and the repository
// benchmark (benchmark/harness.cpp) emits JSON through this.
//
// Explicit-structure API (begin/end pairs + key/value); numbers are
// printed with 17 significant digits (round-trip exact for double),
// strings are escaped per RFC 8259.  Containers opened with
// `inline_mode = true` render on a single line ("{"k": 1, "n": 2}"),
// which keeps row-like records (e.g. one trace event per line) grep-able;
// block containers indent by two spaces per depth.
#pragma once

#include <cstdint>
#include <ostream>
#include <string_view>
#include <vector>

namespace lbb::stats {

class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& os) : os_(os) {}

  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  void begin_object(bool inline_mode = false) { begin('{', inline_mode); }
  void end_object() { end('}'); }
  void begin_array(bool inline_mode = false) { begin('[', inline_mode); }
  void end_array() { end(']'); }

  /// Emits the key of the next value inside an object.
  void key(std::string_view k);

  void value(std::string_view v);
  void value(const char* v) { value(std::string_view(v)); }
  void value(double v);
  void value(std::int64_t v);
  void value(std::int32_t v) { value(static_cast<std::int64_t>(v)); }
  void value(bool v);

  /// Convenience: key + value in one call.
  template <typename T>
  void member(std::string_view k, T v) {
    key(k);
    value(v);
  }

  /// Terminates the document with a trailing newline (top level only).
  void finish();

 private:
  struct Frame {
    char closer;
    bool inline_mode;
    bool has_items = false;
  };

  void begin(char opener, bool inline_mode);
  void end(char closer);
  /// Comma/newline/indent bookkeeping before an item (key or root value).
  void prepare_item();
  void newline_indent();
  void write_escaped(std::string_view s);

  std::ostream& os_;
  std::vector<Frame> stack_;
  bool pending_key_ = false;  ///< a key was written, value comes next
};

/// Escapes a string for embedding in a JSON document (without quotes).
[[nodiscard]] std::string json_escape(std::string_view s);

}  // namespace lbb::stats
