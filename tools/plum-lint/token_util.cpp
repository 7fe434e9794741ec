#include "token_util.hpp"

namespace plumlint {

const std::set<std::string>& type_keywords() {
  static const std::set<std::string> kw = {
      "auto",   "bool",   "char",   "double",   "float",  "int",
      "long",   "short",  "signed", "unsigned", "void",   "size_t",
      "int8_t", "int16_t", "int32_t", "int64_t", "uint8_t", "uint16_t",
      "uint32_t", "uint64_t"};
  return kw;
}

const std::set<std::string>& stmt_keywords() {
  static const std::set<std::string> kw = {
      "return",   "if",     "for",    "while",  "switch", "case",
      "break",    "continue", "else", "do",     "delete", "new",
      "throw",    "goto",   "using",  "typedef", "template", "public",
      "private",  "protected", "namespace", "struct", "class", "enum",
      "sizeof",   "static_assert"};
  return kw;
}

const std::set<std::string>& mutating_methods() {
  static const std::set<std::string> m = {
      "add",         "add_gate_record", "add_sample", "add_sample_int",
      "append",      "assign",          "clear",      "emplace",
      "emplace_back", "erase",          "insert",     "merge_from",
      "push_back",   "record",          "record_event", "resize",
      "set",         "set_int"};
  return m;
}

std::size_t skip_template(const Tokens& t, std::size_t i) {
  std::size_t depth = 0;
  for (std::size_t j = i; j < t.size() && t[j].kind != Tok::End; ++j) {
    const std::string& x = t[j].text;
    if (x == "<") {
      ++depth;
    } else if (x == ">") {
      if (--depth == 0) return j + 1;
    } else if (x == ";" || x == "{") {
      break;
    }
  }
  return i + 1;
}

std::size_t match_forward(const Tokens& t, std::size_t i, const char* open,
                          const char* close) {
  std::size_t depth = 0;
  for (std::size_t j = i; j < t.size() && t[j].kind != Tok::End; ++j) {
    if (t[j].text == open) ++depth;
    if (t[j].text == close && --depth == 0) return j;
  }
  return t.size() - 1;
}

std::string trim(const std::string& s) {
  std::size_t a = s.find_first_not_of(" \t");
  if (a == std::string::npos) return "";
  std::size_t b = s.find_last_not_of(" \t");
  return s.substr(a, b - a + 1);
}

DeclNames try_parse_decl(const Tokens& t, std::size_t i) {
  DeclNames out;
  std::size_t j = i;
  while (is(t[j], "const") || is(t[j], "constexpr") || is(t[j], "static") ||
         is(t[j], "mutable")) {
    ++j;
  }
  if (t[j].kind != Tok::Ident) return out;
  const std::string& first = t[j].text;
  if (stmt_keywords().count(first)) return out;
  ++j;
  if (first == "unsigned" || first == "signed" || first == "long" ||
      first == "short") {
    while (t[j].kind == Tok::Ident && type_keywords().count(t[j].text)) ++j;
  }
  while (true) {
    if (is(t[j], "::") && t[j + 1].kind == Tok::Ident) {
      j += 2;
    } else if (is(t[j], "<")) {
      const std::size_t k = skip_template(t, j);
      if (k == j + 1) return out;  // comparison, not a template list
      j = k;
    } else {
      break;
    }
  }
  while (is(t[j], "&") || is(t[j], "*") || is(t[j], "const")) ++j;
  if (is(t[j], "[")) {  // structured binding
    std::size_t k = j + 1;
    std::vector<std::string> names;
    while (!is(t[k], "]") && t[k].kind != Tok::End) {
      if (t[k].kind == Tok::Ident) names.push_back(t[k].text);
      ++k;
    }
    if (is(t[k + 1], "=") || is(t[k + 1], ":")) {
      out.names = std::move(names);
      out.matched = true;
    }
    return out;
  }
  if (t[j].kind != Tok::Ident) return out;
  const std::string& nx = t[j + 1].text;
  if (nx == "=" || nx == "(" || nx == "{" || nx == ";" || nx == ":" ||
      nx == ",") {
    out.names.push_back(t[j].text);
    out.matched = true;
  }
  return out;
}

LhsInfo parse_lhs_backward(const Tokens& t, std::size_t j, std::size_t begin,
                           const std::string& rank_var) {
  LhsInfo out;
  bool last_subscript = true;  // walking backward: the first one seen
  while (j > begin) {
    if (is(t[j], "]")) {
      std::size_t depth = 1;
      std::size_t k = j;
      bool mentions_rank = false;
      while (k > begin && depth > 0) {
        --k;
        if (is(t[k], "]")) ++depth;
        if (is(t[k], "[")) --depth;
        if (depth > 0 && t[k].kind == Tok::Ident && !rank_var.empty() &&
            t[k].text == rank_var) {
          mentions_rank = true;
        }
      }
      out.rank_indexed |= mentions_rank;
      if (last_subscript) out.rank_slot = mentions_rank;
      last_subscript = false;
      if (depth != 0 || k == begin) return out;
      j = k - 1;
      continue;
    }
    if (t[j].kind == Tok::Ident) {
      const Token& prev = t[j - 1];
      if (is(prev, ".") || is(prev, "->") || is(prev, "::")) {
        j -= 2;
        continue;
      }
      out.base = t[j].text;
      out.ok = true;
      return out;
    }
    return out;  // ")" etc: call results and casts are not analyzable
  }
  return out;
}

LhsInfo parse_lhs_forward(const Tokens& t, std::size_t j,
                          const std::string& rank_var) {
  LhsInfo out;
  if (t[j].kind != Tok::Ident) return out;
  out.base = t[j].text;
  out.ok = true;
  std::size_t k = j + 1;
  while (true) {
    if ((is(t[k], ".") || is(t[k], "->") || is(t[k], "::")) &&
        t[k + 1].kind == Tok::Ident) {
      k += 2;
    } else if (is(t[k], "[")) {
      const std::size_t close = match_forward(t, k, "[", "]");
      bool mentions_rank = false;
      for (std::size_t m = k + 1; m < close; ++m) {
        if (t[m].kind == Tok::Ident && !rank_var.empty() &&
            t[m].text == rank_var) {
          mentions_rank = true;
        }
      }
      out.rank_indexed |= mentions_rank;
      out.rank_slot = mentions_rank;  // the last subscript wins
      k = close + 1;
    } else {
      break;
    }
  }
  return out;
}

bool is_assign_op(const Token& t) {
  static const std::set<std::string> ops = {"=",  "+=", "-=",  "*=", "/=",
                                            "%=", "&=", "|=",  "^=", "<<="};
  return t.kind == Tok::Punct && ops.count(t.text) > 0;
}

bool lambda_position(const Token& prev) {
  return is(prev, "(") || is(prev, ",") || is(prev, "{") || is(prev, ";") ||
         is(prev, "=") || is(prev, "return") || is(prev, "&&") ||
         is(prev, "||") || is(prev, ":");
}

std::vector<std::string> nested_lambda_own_names(const Tokens& t,
                                                 std::size_t cap_open,
                                                 std::size_t cap_end) {
  std::vector<std::string> names;
  int depth = 0;
  for (std::size_t j = cap_open + 1; j < cap_end; ++j) {
    const std::string& x = t[j].text;
    if (x == "(" || x == "[" || x == "{") ++depth;
    if (x == ")" || x == "]" || x == "}") --depth;
    if (depth != 0 || t[j].kind != Tok::Ident) continue;
    if (is(t[j - 1], "&")) continue;  // by-reference capture
    if (is(t[j - 1], "[") || is(t[j - 1], ",")) names.push_back(t[j].text);
  }
  if (is(t[cap_end + 1], "(")) {
    const std::size_t popen = cap_end + 1;
    const std::size_t pclose = match_forward(t, popen, "(", ")");
    std::string last_ident;
    int pdepth = 0;
    for (std::size_t j = popen + 1; j <= pclose; ++j) {
      const std::string& x = t[j].text;
      if (x == "(" || x == "[" || x == "{") ++pdepth;
      if (x == "]" || x == "}") --pdepth;
      if ((x == "," && pdepth == 0) || j == pclose) {
        if (!last_ident.empty()) names.push_back(last_ident);
        last_ident.clear();
      } else if (t[j].kind == Tok::Ident) {
        last_ident = t[j].text;
      }
      if (x == ")" && j != pclose) --pdepth;
    }
  }
  return names;
}

std::vector<SuperstepLambda> find_superstep_lambdas(const Tokens& t) {
  std::vector<SuperstepLambda> out;
  for (std::size_t i = 1; i + 1 < t.size(); ++i) {
    if (!is(t[i], "[") || t[i].preproc) continue;
    if (!lambda_position(t[i - 1])) continue;
    const std::size_t cap_end = match_forward(t, i, "[", "]");
    if (!is(t[cap_end + 1], "(")) continue;
    const std::size_t popen = cap_end + 1;
    const std::size_t pclose = match_forward(t, popen, "(", ")");

    SuperstepLambda lam;
    bool has_rank = false, has_outbox = false;
    // Split parameters at depth-0 commas.
    std::size_t start = popen + 1;
    int depth = 0;
    for (std::size_t j = popen + 1; j <= pclose; ++j) {
      const std::string& x = t[j].text;
      if (x == "(" || x == "[" || x == "{") ++depth;
      if (x == "]" || x == "}") --depth;
      if ((x == "," && depth == 0) || j == pclose) {
        bool p_rank = false, p_outbox = false;
        std::string last_ident;
        for (std::size_t k = start; k < j; ++k) {
          if (t[k].kind != Tok::Ident) continue;
          if (t[k].text == "Rank") p_rank = true;
          if (t[k].text == "Outbox") p_outbox = true;
          last_ident = t[k].text;
        }
        has_rank |= p_rank;
        has_outbox |= p_outbox;
        if (!last_ident.empty() && last_ident != "Rank" &&
            last_ident != "Inbox" && last_ident != "Outbox") {
          lam.param_names.push_back(last_ident);
          if (p_rank) lam.rank_var = last_ident;
        }
        start = j + 1;
      }
      if (x == ")" && j != pclose) --depth;
    }
    if (!has_rank || !has_outbox) continue;

    // Skip mutable / noexcept / -> trailing-return to the body.
    std::size_t b = pclose + 1;
    while (t[b].kind != Tok::End && !is(t[b], "{") && !is(t[b], ";") &&
           !is(t[b], ")")) {
      ++b;
    }
    if (!is(t[b], "{")) continue;
    lam.body_begin = b;
    lam.body_end = match_forward(t, b, "{", "}");
    out.push_back(std::move(lam));
  }
  return out;
}

SkipSpans nested_superstep_spans(const std::vector<SuperstepLambda>& all,
                                 const SuperstepLambda& lam) {
  SkipSpans skip;
  for (const auto& other : all) {
    if (other.body_begin > lam.body_begin && other.body_end < lam.body_end) {
      skip.emplace_back(other.body_begin, other.body_end);
    }
  }
  return skip;
}

std::size_t skip_to(const SkipSpans& skip, std::size_t i) {
  for (const auto& s : skip) {
    if (s.first == i) return s.second;
  }
  return i;
}

void json_escape(std::ostream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          os << ' ';
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

}  // namespace plumlint
