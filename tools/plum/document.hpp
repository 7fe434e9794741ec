#pragma once
// The one file loader behind every `plum` subcommand, and the JSON field
// helpers the renderers share.
//
// A file is either one JSON document (BENCH_*.json, RUN_*.json, ...) or an
// NDJSON stream: one JSON value per non-empty line, as the plum-scope/1
// run streams are written. Loading only parses; validation belongs to the
// schema table (plum.hpp).

#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace plum::tool {

/// Loader outcome. The values double as exit statuses for the subcommands
/// that report an unreadable file as a usage/IO error.
enum class Load { kOk = 0, kInvalid = 1, kCannotOpen = 2 };

struct Document {
  /// The one document, or one value per stream line (in file order).
  std::vector<obs::Json> values;
  bool stream = false;  ///< true when the file is NDJSON
};

/// Reads the whole file into *text; false when it cannot be opened.
[[nodiscard]] bool read_file(const std::string& path, std::string* text);

/// Parses `path` as one JSON document or, when that fails but the first
/// line is a JSON value of its own, as an NDJSON stream in which every
/// non-empty line must parse. *err describes a failure (without the path).
[[nodiscard]] Load load_document(const std::string& path, Document* out,
                                 std::string* err);

// Field helpers: a missing or mistyped field reads as the fallback.
[[nodiscard]] std::int64_t int_or(const obs::Json* v, std::int64_t fallback);
[[nodiscard]] double num_or(const obs::Json* v, double fallback);
[[nodiscard]] std::string str_or(const obs::Json* v,
                                 const std::string& fallback);
/// True only for a JSON `true`.
[[nodiscard]] bool flag(const obs::Json* v);
/// "skipped", "ACCEPT" or "reject" for a gate record (or the "gate" object
/// of a plum-scope/1 record).
[[nodiscard]] const char* gate_decision(const obs::Json& gate);

}  // namespace plum::tool
