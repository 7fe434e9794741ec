#include "document.hpp"

#include <fstream>
#include <sstream>

namespace plum::tool {

using obs::Json;

bool read_file(const std::string& path, std::string* text) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *text = buf.str();
  return true;
}

Load load_document(const std::string& path, Document* out, std::string* err) {
  std::string text;
  if (!read_file(path, &text)) {
    *err = "cannot open";
    return Load::kCannotOpen;
  }
  *out = Document{};
  Json doc;
  std::string doc_err;
  if (Json::parse(text, &doc, &doc_err)) {
    out->values.push_back(std::move(doc));
  } else {
    // NDJSON: one value per non-empty line. A file whose first line is not
    // a value of its own is a broken document, not a stream.
    std::istringstream lines(text);
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(lines, line)) {
      ++lineno;
      if (line.empty()) continue;
      Json value;
      std::string line_err;
      if (!Json::parse(line, &value, &line_err)) {
        *err = out->values.empty() ? "parse error: " + doc_err
                                   : "line " + std::to_string(lineno) +
                                         ": parse error: " + line_err;
        return Load::kInvalid;
      }
      out->values.push_back(std::move(value));
    }
    if (out->values.empty()) {
      *err = "parse error: " + doc_err;
      return Load::kInvalid;
    }
    out->stream = true;
  }
  return Load::kOk;
}

std::int64_t int_or(const Json* v, std::int64_t fallback) {
  return v && v->kind() == Json::Kind::kInt ? v->as_int() : fallback;
}

double num_or(const Json* v, double fallback) {
  if (!v || !v->is_number()) return fallback;
  return v->kind() == Json::Kind::kInt ? static_cast<double>(v->as_int())
                                       : v->as_double();
}

std::string str_or(const Json* v, const std::string& fallback) {
  return v && v->is_string() ? v->as_string() : fallback;
}

bool flag(const Json* v) {
  return v && v->kind() == Json::Kind::kBool && v->as_bool();
}

const char* gate_decision(const Json& gate) {
  if (!flag(gate.find("evaluated"))) return "skipped";
  return flag(gate.find("accepted")) ? "ACCEPT" : "reject";
}

}  // namespace plum::tool
