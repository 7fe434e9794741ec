#include "linter.hpp"

#include <algorithm>
#include <set>
#include <sstream>

#include "lexer.hpp"
#include "scale.hpp"
#include "token_util.hpp"

namespace plumlint {

namespace {

constexpr const char* kRankGuard = "rank-guard-mutation";
constexpr const char* kUnordered = "unordered-iteration";
constexpr const char* kSharedAcc = "shared-accumulator";
constexpr const char* kNondet = "nondeterminism-source";
constexpr const char* kWallClock = "wall-clock-in-superstep";
constexpr const char* kRawFd = "raw-fd-in-superstep";
constexpr const char* kRankSlot = "rank-slot-in-loop";
constexpr const char* kBadSuppress = "bad-suppression";
constexpr const char* kUnusedSuppress = "unused-suppression";

bool is_meta_check(const std::string& c) {
  return c == kBadSuppress || c == kUnusedSuppress;
}

/// Names declared with an unordered container type anywhere in `t`
/// (locals, members, parameters): `std::unordered_map<...> name`,
/// including when nested inside another template.
void collect_unordered_names(const Tokens& t, std::set<std::string>& names) {
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].kind != Tok::Ident || t[i].preproc) continue;
    if (!is(t[i], "unordered_map") && !is(t[i], "unordered_set")) continue;
    std::size_t j = i + 1;
    if (!is(t[j], "<")) continue;
    j = skip_template(t, j);
    while (is(t[j], ">") || is(t[j], "&") || is(t[j], "*") ||
           is(t[j], "const")) {
      ++j;
    }
    if (t[j].kind != Tok::Ident) continue;
    const std::string& nx = t[j + 1].text;
    if (nx == "=" || nx == "(" || nx == "{" || nx == ";" || nx == "," ||
        nx == ")" || nx == ":") {
      names.insert(t[j].text);
    }
  }
}

// --- check: unordered-iteration ---------------------------------------------

void check_unordered(const std::string& file, const Tokens& t,
                     const std::set<std::string>& local_names,
                     const std::set<std::string>& member_names,
                     std::vector<Diagnostic>& out) {
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != Tok::Ident || t[i].preproc) continue;
    if (is(t[i], "unordered_map") || is(t[i], "unordered_set")) {
      out.push_back(
          {file, t[i].line, kUnordered,
           "std::" + t[i].text +
               " in a deterministic path: its iteration order is "
               "unspecified and can feed Outbox::send, ledger counters, or "
               "floating-point accumulation; use std::map / a sorted vector, "
               "or suppress with a justification if it is never iterated",
           false,
           ""});
      continue;
    }
    if (!is(t[i], "for") || !is(t[i + 1], "(")) continue;
    const std::size_t open = i + 1;
    const std::size_t close = match_forward(t, open, "(", ")");
    // Locate the range-for ':' at nesting depth 0 inside the parens.
    std::size_t colon = 0;
    int depth = 0;
    for (std::size_t j = open + 1; j < close; ++j) {
      const std::string& x = t[j].text;
      if (x == "(" || x == "[" || x == "{") ++depth;
      if (x == ")" || x == "]" || x == "}") --depth;
      if (x == ";") break;  // classic for loop
      if (x == ":" && depth == 0) {
        colon = j;
        break;
      }
    }
    if (colon == 0) continue;
    for (std::size_t j = colon + 1; j < close; ++j) {
      if (t[j].kind != Tok::Ident) continue;
      // Bare identifiers must be declared unordered in this file; names
      // collected from *other* files (e.g. LocalMesh::shared_verts) only
      // match member accesses, so an unrelated local that happens to reuse
      // the name elsewhere is not flagged.
      const bool member_access = is(t[j - 1], ".") || is(t[j - 1], "->");
      if (local_names.count(t[j].text) ||
          (member_access && member_names.count(t[j].text))) {
        out.push_back(
            {file, t[i].line, kUnordered,
             "range-for over unordered container '" + t[j].text +
                 "': visit order differs across standard-library "
                 "implementations and runs; iterate sorted keys instead",
             false,
             ""});
        break;
      }
    }
  }
}

// --- check: nondeterminism-source --------------------------------------------

void check_nondeterminism(const std::string& file, const Tokens& t,
                          std::vector<Diagnostic>& out) {
  static const std::set<std::string> banned_calls = {
      "rand",    "srand",   "rand_r", "drand48",      "lrand48",
      "mrand48", "random",  "time",   "gettimeofday", "clock"};
  for (std::size_t i = 1; i + 1 < t.size(); ++i) {
    if (t[i].kind != Tok::Ident || t[i].preproc) continue;
    const Token& prev = t[i - 1];
    if (is(t[i], "random_device")) {
      out.push_back({file, t[i].line, kNondet,
                     "std::random_device: draws from the OS entropy pool; "
                     "use the seeded plum::Rng so runs are reproducible",
                     false,
                     ""});
      continue;
    }
    if (is(t[i], "hash") && is(prev, "::") && i >= 2 && is(t[i - 2], "std") &&
        is(t[i + 1], "<")) {
      const std::size_t end = skip_template(t, i + 1);
      for (std::size_t j = i + 2; j + 1 < end; ++j) {
        if (is(t[j], "*")) {
          out.push_back({file, t[i].line, kNondet,
                         "std::hash over a pointer type: hashes the address, "
                         "which differs between runs (ASLR); key on a stable "
                         "id instead",
                         false,
                         ""});
          break;
        }
      }
      continue;
    }
    if (!banned_calls.count(t[i].text)) continue;
    if (!is(t[i + 1], "(")) continue;
    // Member calls (timer.time()) and declarations (Timer time(...)) are
    // other people's names, not the libc functions.
    if (is(prev, ".") || is(prev, "->") || prev.kind == Tok::Ident) continue;
    if (is(prev, "::") && i >= 2 && !is(t[i - 2], "std")) continue;
    out.push_back({file, t[i].line, kNondet,
                   "'" + t[i].text +
                       "()' is a nondeterminism source (varies run to run); "
                       "use the seeded plum::Rng / logical superstep time",
                   false,
                   ""});
  }
}

// --- checks: rank-guard-mutation, shared-accumulator, rank-slot-in-loop -----

/// i at `for`/`while`/`do`: index of the last token of the loop (its body's
/// closing brace, or the `;` ending an unbraced body), or i if `t[i]` does
/// not start a loop.
std::size_t loop_end(const Tokens& t, std::size_t i) {
  std::size_t body = i + 1;
  if (is(t[i], "for") || is(t[i], "while")) {
    if (!is(t[i + 1], "(")) return i;
    body = match_forward(t, i + 1, "(", ")") + 1;
  } else if (!is(t[i], "do")) {
    return i;
  }
  if (is(t[body], "{")) return match_forward(t, body, "{", "}");
  int depth = 0;
  for (std::size_t k = body; t[k].kind != Tok::End; ++k) {
    const std::string& x = t[k].text;
    if (x == "(" || x == "[" || x == "{") ++depth;
    if (x == ")" || x == "]" || x == "}") {
      if (--depth == 0 && x == "}") return k;
    }
    if (x == ";" && depth == 0) return k;
  }
  return i;
}

void check_superstep_body(const std::string& file, const Tokens& t,
                          const SuperstepLambda& lam, const SkipSpans& skip,
                          std::vector<Diagnostic>& out) {
  // Locals: (name, brace depth at declaration). Params live at depth 0.
  std::vector<std::pair<std::string, int>> locals;
  for (const auto& p : lam.param_names) locals.emplace_back(p, 0);
  auto is_local = [&](const std::string& n) {
    return std::any_of(locals.begin(), locals.end(),
                       [&](const auto& l) { return l.first == n; });
  };

  // Active `if (r == 0)` style guards, as end-token indices (innermost last).
  std::vector<std::size_t> guard_ends;
  // Enclosing loops, as end-token indices (innermost last).
  std::vector<std::size_t> loop_ends;

  int depth = 0;
  for (std::size_t i = lam.body_begin; i <= lam.body_end; ++i) {
    while (!guard_ends.empty() && i > guard_ends.back()) guard_ends.pop_back();
    while (!loop_ends.empty() && i > loop_ends.back()) loop_ends.pop_back();
    const std::size_t jump = skip_to(skip, i);
    if (jump != i) {
      i = jump;  // nested superstep body: checked on its own pass
      continue;
    }
    const Token& tk = t[i];

    if (is(tk, "{")) {
      ++depth;
      continue;
    }
    if (is(tk, "}")) {
      std::erase_if(locals, [&](const auto& l) { return l.second == depth; });
      --depth;
      continue;
    }

    // A nested plain lambda: its parameters, init-captures, and by-value
    // copies are closure-local — writes to them are not mutations of this
    // superstep's captured state. They scope to the nested body, which
    // opens one brace deeper than here.
    if (is(tk, "[") && i > lam.body_begin && lambda_position(t[i - 1])) {
      const std::size_t cap_end = match_forward(t, i, "[", "]");
      for (auto& n : nested_lambda_own_names(t, i, cap_end)) {
        locals.emplace_back(std::move(n), depth + 1);
      }
      i = cap_end;  // capture list is binding syntax, not assignments
      continue;
    }

    if (const std::size_t end = loop_end(t, i); end != i) {
      loop_ends.push_back(end);
    }

    // Declarations at statement starts (and in for-loop headers).
    const bool stmt_start =
        i > lam.body_begin &&
        (is(t[i - 1], ";") || is(t[i - 1], "{") || is(t[i - 1], "}"));
    if (stmt_start) {
      DeclNames d = try_parse_decl(t, i);
      for (auto& n : d.names) locals.emplace_back(std::move(n), depth);
    }
    if (is(tk, "for") && is(t[i + 1], "(")) {
      DeclNames d = try_parse_decl(t, i + 2);
      for (auto& n : d.names) locals.emplace_back(std::move(n), depth);
      continue;
    }

    // Rank guards: if (<rank> == <literal>) — including `r == 0 && ...`.
    if (is(tk, "if") && is(t[i + 1], "(") && !lam.rank_var.empty()) {
      const std::size_t close = match_forward(t, i + 1, "(", ")");
      bool guarded = false;
      for (std::size_t j = i + 2; j + 1 < close; ++j) {
        if (!is(t[j], "==")) continue;
        const Token& a = t[j - 1];
        const Token& b = t[j + 1];
        const bool a_rank = a.kind == Tok::Ident && a.text == lam.rank_var &&
                            !is(t[j - 2], ".") && !is(t[j - 2], "->");
        const bool b_rank = b.kind == Tok::Ident && b.text == lam.rank_var;
        if ((a_rank && b.kind == Tok::Number) ||
            (b_rank && a.kind == Tok::Number)) {
          guarded = true;
          break;
        }
      }
      if (guarded) {
        std::size_t end;
        if (is(t[close + 1], "{")) {
          end = match_forward(t, close + 1, "{", "}");
        } else {
          end = close + 1;
          while (t[end].kind != Tok::End && !is(t[end], ";")) ++end;
        }
        guard_ends.push_back(end);
      }
      continue;
    }

    // Mutations: assignments, ++/--, and mutating method calls
    // (`registry.add_sample(...)`, `log.push_back(...)`).
    LhsInfo lhs;
    std::string via;  // non-empty: mutation through a method call
    int op_line = tk.line;
    if (is_assign_op(tk) && i > lam.body_begin) {
      lhs = parse_lhs_backward(t, i - 1, lam.body_begin, lam.rank_var);
    } else if ((is(tk, "++") || is(tk, "--"))) {
      if (t[i + 1].kind == Tok::Ident) {
        lhs = parse_lhs_forward(t, i + 1, lam.rank_var);
      } else if (i > lam.body_begin &&
                 (t[i - 1].kind == Tok::Ident || is(t[i - 1], "]"))) {
        lhs = parse_lhs_backward(t, i - 1, lam.body_begin, lam.rank_var);
      }
    } else if (tk.kind == Tok::Ident && is(t[i + 1], "(") &&
               i > lam.body_begin + 1 &&
               (is(t[i - 1], ".") || is(t[i - 1], "->")) &&
               mutating_methods().count(tk.text)) {
      // parse_lhs_backward starts at the method name itself: the first
      // step walks the `.`/`->` back to the receiver's access path, so
      // `acc[r].push_back(x)` resolves base=acc with rank_indexed=true.
      lhs = parse_lhs_backward(t, i, lam.body_begin, lam.rank_var);
      via = tk.text;
    } else {
      continue;
    }
    if (!lhs.ok || lhs.base.empty()) continue;
    if (lhs.rank_indexed) {
      // Read-modify-write of one rank slot per loop iteration: rank-safe,
      // but neighbouring ranks' slots share a cache line, so concurrent
      // workers ping-pong it on every iteration.
      const bool rmw = via.empty() && !is(tk, "=");
      if (lhs.rank_slot && rmw && !loop_ends.empty() &&
          !is_local(lhs.base)) {
        out.push_back(
            {file, op_line, kRankSlot,
             "captured '" + lhs.base + "' has its rank slot updated ('" +
                 tk.text +
                 "') inside a loop of a superstep: neighbouring ranks' "
                 "slots share a cache line, so workers of a ParallelEngine "
                 "false-share it every iteration; count into a local and "
                 "store the slot once after the loop",
             false,
             ""});
      }
      continue;
    }
    if (is_local(lhs.base)) continue;
    if (!lam.rank_var.empty() && lhs.base == lam.rank_var) continue;

    const std::string how =
        via.empty() ? "is written from a superstep"
                    : "is mutated via '" + via + "(...)' from a superstep";
    if (!guard_ends.empty()) {
      out.push_back(
          {file, op_line, kRankGuard,
           "captured '" + lhs.base + "' " + how +
               " under a rank==constant guard: this relies on sequential "
               "rank order and races under ParallelEngine (the `if (r == 0) "
               "++phase` bug class); use Outbox::step() or a per-rank slot",
           false,
           ""});
    } else {
      out.push_back(
          {file, op_line, kSharedAcc,
           "captured '" + lhs.base + "' " + how +
               " without per-rank indexing: rank r may only mutate "
               "rank-r-owned state; index the write with the rank (e.g. "
               "acc[r]) and reduce — or record metrics — after the run",
           false,
           ""});
    }
  }
}

// --- check: wall-clock-in-superstep -------------------------------------------

/// Wall-clock reads inside a superstep lambda: `util::Timer` / `PhaseTimer`
/// instances and `std::chrono::*_clock::now()` calls. Rank programs must be
/// pure functions of their inbox; timing belongs to the engine (which
/// already measures per-rank step seconds into the trace) — a timer inside
/// the lambda measures scheduler noise and, if it steers control flow,
/// breaks the determinism contract outright. plum-path's counter view
/// depends on superstep bodies staying wall-clock free.
void check_wallclock_in_body(const std::string& file, const Tokens& t,
                             const SuperstepLambda& lam, const SkipSpans& skip,
                             std::vector<Diagnostic>& out) {
  for (std::size_t i = lam.body_begin; i <= lam.body_end; ++i) {
    const std::size_t jump = skip_to(skip, i);
    if (jump != i) {
      i = jump;
      continue;
    }
    const Token& tk = t[i];
    if (tk.kind != Tok::Ident || tk.preproc) continue;
    if (is(tk, "Timer") || is(tk, "PhaseTimer")) {
      // `x.Timer`/`x->Timer` would be someone else's member, not the
      // plum::Timer type; a type name appears bare or after `::`.
      if (is(t[i - 1], ".") || is(t[i - 1], "->")) continue;
      out.push_back(
          {file, tk.line, kWallClock,
           "'" + tk.text +
               "' inside a superstep lambda: rank programs must not read "
               "wall clocks (the engine already measures per-rank step "
               "seconds into the trace); time outside the superstep or use "
               "StepCounters::compute_units as the deterministic work proxy",
           false,
           ""});
      continue;
    }
    if (is(tk, "now") && i + 1 < t.size() && is(t[i + 1], "(") &&
        i > lam.body_begin && is(t[i - 1], "::")) {
      out.push_back(
          {file, tk.line, kWallClock,
           "'::now()' inside a superstep lambda reads a wall clock; results "
           "vary run to run and poison the deterministic counter view "
           "(plum-path); move timing to the host side of the barrier",
           false,
           ""});
    }
  }
}

// --- check: raw-fd-in-superstep -----------------------------------------------

/// POSIX fd calls whose presence in a rank program means it is doing its
/// own IO. Ranks exchange data only through Outbox::send, which the engine
/// delivers at the barrier; a send() or read() inside a superstep lambda
/// bypasses the ledger, the conservation check, and the delivery-order
/// contract. fd IO belongs on the host side, outside the lambdas.
const std::set<std::string>& raw_fd_functions() {
  static const std::set<std::string> f = {
      "accept", "bind",     "close",   "connect", "creat",   "dup",
      "dup2",   "dup3",     "fcntl",   "ioctl",   "listen",  "open",
      "openat", "pipe",     "pipe2",   "poll",    "ppoll",   "pread",
      "pselect", "pwrite",  "read",    "readv",   "recv",    "recvfrom",
      "recvmsg", "select",  "send",    "sendmsg", "sendto",  "socket",
      "socketpair", "write", "writev"};
  return f;
}

/// Bare POSIX fd calls inside a superstep lambda. Member calls
/// (`out.send(...)` — the Outbox API) and namespace-qualified names
/// (`obs::write_json`, say) are skipped; bare and global-scope
/// (`::write(...)`) calls are flagged.
void check_raw_fd_in_body(const std::string& file, const Tokens& t,
                          const SuperstepLambda& lam, const SkipSpans& skip,
                          std::vector<Diagnostic>& out) {
  for (std::size_t i = lam.body_begin; i <= lam.body_end; ++i) {
    const std::size_t jump = skip_to(skip, i);
    if (jump != i) {
      i = jump;
      continue;
    }
    const Token& tk = t[i];
    if (tk.kind != Tok::Ident || tk.preproc) continue;
    if (raw_fd_functions().find(tk.text) == raw_fd_functions().end()) continue;
    if (i + 1 >= t.size() || !is(t[i + 1], "(")) continue;
    if (i > 0 && (is(t[i - 1], ".") || is(t[i - 1], "->"))) continue;
    if (i > 1 && is(t[i - 1], "::") && t[i - 2].kind == Tok::Ident) continue;
    out.push_back(
        {file, tk.line, kRawFd,
         "'" + tk.text +
             "(...)' inside a superstep lambda: rank programs must not "
             "touch file descriptors — IO crosses the barrier outside the "
             "ledger and the engine's delivery-order contract; post "
             "bytes via Outbox::send and let the engine deliver them",
         false,
         ""});
  }
}

// --- suppressions -------------------------------------------------------------

struct Suppression {
  int line = 0;
  std::string check;
  std::string justification;
  bool used = false;
};

void parse_suppressions(const std::string& file,
                        const std::vector<Comment>& comments,
                        std::vector<Suppression>& sups,
                        std::vector<Diagnostic>& out) {
  for (std::size_t ci = 0; ci < comments.size(); ++ci) {
    const Comment& c = comments[ci];
    const std::size_t tag = c.text.find("plum-lint:");
    if (tag == std::string::npos) continue;
    const std::string rest = trim(c.text.substr(tag + 10));
    const std::size_t open = rest.find("allow(");
    const std::size_t close = rest.find(')');
    if (open != 0 || close == std::string::npos || close < 6) {
      out.push_back({file, c.line, kBadSuppress,
                     "malformed plum-lint comment; expected "
                     "`plum-lint: allow(<check>) -- <justification>`",
                     false,
                     ""});
      continue;
    }
    const std::string check = trim(rest.substr(6, close - 6));
    bool known = false;
    for (const auto& ci : checks()) known |= (check == ci.name);
    if (!known || is_meta_check(check)) {
      out.push_back({file, c.line, kBadSuppress,
                     "unknown or unsuppressable check '" + check +
                         "' in plum-lint suppression",
                     false,
                     ""});
      continue;
    }
    std::string just;
    const std::size_t dash = rest.find("--", close);
    if (dash != std::string::npos) just = trim(rest.substr(dash + 2));
    // A justification may wrap onto directly following comment lines; the
    // suppression then anchors at the end of the comment block.
    int anchor = c.line;
    for (std::size_t k = ci + 1; k < comments.size(); ++k) {
      if (comments[k].line != anchor + 1 ||
          comments[k].text.find("plum-lint:") != std::string::npos) {
        break;
      }
      anchor = comments[k].line;
      if (!just.empty()) just += " " + trim(comments[k].text);
    }
    if (just.empty()) {
      out.push_back({file, c.line, kBadSuppress,
                     "plum-lint suppression for '" + check +
                         "' lacks a justification; write "
                         "`allow(" + check + ") -- <why this is safe>`",
                     false,
                     ""});
      continue;
    }
    sups.push_back({anchor, check, just, false});
  }
}

}  // namespace

const std::vector<CheckInfo>& checks() {
  static const std::vector<CheckInfo> kChecks = {
      {kRankGuard,
       "rank==0-guarded writes to captured state inside superstep lambdas"},
      {kUnordered,
       "unordered_map/set declarations and range-for loops in deterministic "
       "paths"},
      {kSharedAcc,
       "captured state written from superstep lambdas without per-rank "
       "indexing"},
      {kNondet,
       "rand()/time()/std::random_device/pointer-hash and friends"},
      {kWallClock,
       "util::Timer / std::chrono ::now() reads inside superstep lambdas"},
      {kRawFd,
       "bare POSIX fd calls (read/write/send/recv/...) inside superstep "
       "lambdas"},
      {kRankSlot,
       "++x[r] / x[r] += on a captured container inside a loop of a "
       "superstep lambda (false sharing across workers)"},
      {kBadSuppress, "malformed or unjustified plum-lint suppressions"},
      {kUnusedSuppress, "suppressions that no longer match any diagnostic"},
  };
  return kChecks;
}

int LintResult::unsuppressed_count() const {
  return static_cast<int>(std::count_if(
      diagnostics.begin(), diagnostics.end(),
      [](const Diagnostic& d) { return !d.suppressed; }));
}

int LintResult::suppressed_count() const {
  return static_cast<int>(diagnostics.size()) - unsuppressed_count();
}

int LintResult::count_of(const std::string& check,
                         bool include_suppressed) const {
  return static_cast<int>(std::count_if(
      diagnostics.begin(), diagnostics.end(), [&](const Diagnostic& d) {
        return d.check == check && (include_suppressed || !d.suppressed);
      }));
}

LintResult lint_files(const std::vector<FileInput>& files) {
  LintResult result;
  result.files_scanned = static_cast<int>(files.size());

  std::vector<LexResult> lexed;
  lexed.reserve(files.size());
  std::vector<std::set<std::string>> per_file_names(files.size());
  std::set<std::string> all_names;
  for (std::size_t fi = 0; fi < files.size(); ++fi) {
    lexed.push_back(lex(files[fi].content));
    collect_unordered_names(lexed.back().tokens, per_file_names[fi]);
    all_names.insert(per_file_names[fi].begin(), per_file_names[fi].end());
  }

  for (std::size_t fi = 0; fi < files.size(); ++fi) {
    const std::string& path = files[fi].path;
    const Tokens& t = lexed[fi].tokens;
    std::vector<Diagnostic> diags;

    check_unordered(path, t, per_file_names[fi], all_names, diags);
    check_nondeterminism(path, t, diags);
    const auto lambdas = find_superstep_lambdas(t);
    for (const auto& lam : lambdas) {
      const SkipSpans skip = nested_superstep_spans(lambdas, lam);
      check_superstep_body(path, t, lam, skip, diags);
      check_wallclock_in_body(path, t, lam, skip, diags);
      check_raw_fd_in_body(path, t, lam, skip, diags);
    }

    std::vector<Suppression> sups;
    parse_suppressions(path, lexed[fi].comments, sups, diags);
    for (auto& d : diags) {
      if (is_meta_check(d.check)) continue;
      for (auto& s : sups) {
        if (s.check == d.check && (s.line == d.line || s.line == d.line - 1)) {
          d.suppressed = true;
          d.justification = s.justification;
          s.used = true;
          break;
        }
      }
    }
    for (const auto& s : sups) {
      if (!s.used) {
        diags.push_back({path, s.line, kUnusedSuppress,
                         "suppression for '" + s.check +
                             "' matches no diagnostic on this or the next "
                             "line; remove it so suppressions stay honest",
                         false,
                         ""});
      }
    }
    result.diagnostics.insert(result.diagnostics.end(), diags.begin(),
                              diags.end());
  }

  std::sort(result.diagnostics.begin(), result.diagnostics.end());
  return result;
}

LintResult lint_source(const std::string& path, const std::string& content) {
  return lint_files({{path, content}});
}

std::string to_json(const LintResult& result) {
  std::ostringstream os;
  os << "{\n  \"files_scanned\": " << result.files_scanned
     << ",\n  \"unsuppressed\": " << result.unsuppressed_count()
     << ",\n  \"suppressed\": " << result.suppressed_count()
     << ",\n  \"counts\": {";
  bool first = true;
  for (const auto* table : {&checks(), &scale_checks()}) {
    for (const auto& c : *table) {
      if (!first) os << ", ";
      first = false;
      json_escape(os, c.name);
      os << ": " << result.count_of(c.name, /*include_suppressed=*/true);
    }
  }
  os << "},\n  \"diagnostics\": [";
  for (std::size_t i = 0; i < result.diagnostics.size(); ++i) {
    const auto& d = result.diagnostics[i];
    os << (i ? ",\n    {" : "\n    {") << "\"file\": ";
    json_escape(os, d.file);
    os << ", \"line\": " << d.line << ", \"check\": ";
    json_escape(os, d.check);
    os << ", \"suppressed\": " << (d.suppressed ? "true" : "false");
    if (d.suppressed) {
      os << ", \"justification\": ";
      json_escape(os, d.justification);
    }
    os << ", \"message\": ";
    json_escape(os, d.message);
    os << "}";
  }
  os << "\n  ]\n}\n";
  return os.str();
}

}  // namespace plumlint
