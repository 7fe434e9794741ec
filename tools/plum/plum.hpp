#pragma once
// The `plum` tool's schema table and subcommand entry points (see main.cpp
// for the command line).

#include <string>

#include "document.hpp"

namespace plum::tool {

/// One schema family: how `plum check` validates it and how `plum report`
/// renders it. Every value of a document (every record of a stream) must
/// pass `validate`.
struct Schema {
  const char* id;
  /// True for record streams: the file may be NDJSON, one record a line.
  /// Other schemas are one document per file.
  bool stream;
  /// "" when `value` is valid, else the first violation.
  std::string (*validate)(const obs::Json& value);
  /// What `plum check` prints after "ok": counts and names.
  std::string (*summary)(const Document& doc);
  /// Human-readable rendering of a validated document.
  void (*render)(const Document& doc);
};

/// Looks up the document's schema in the table and validates every value
/// against it. Returns "" and sets *schema when the document is valid.
[[nodiscard]] std::string validate_document(const Document& doc,
                                            const Schema** schema);

int check_main(int argc, char** argv);
int report_main(int argc, char** argv);
int diff_main(int argc, char** argv);
int top_main(int argc, char** argv);

}  // namespace plum::tool
