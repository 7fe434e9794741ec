// plum: one tool for the observability documents the benches and the
// frameworks write.
//
//   plum check FILE...      validate each file against its schema
//   plum report FILE...     validate, then render a human-readable report
//   plum diff [--rel-tol X] [--tol metric=X ...] BASE CUR
//                           the bench regression gate (files or directories
//                           of BENCH_*.json; see diff.hpp for the contract)
//   plum top [--once] [--interval-ms N] STREAM
//                           live per-rank view of a plum-scope/1 stream
//
// Every subcommand loads files through one loader (document.hpp): a file
// is one JSON document or an NDJSON stream. check and report dispatch on
// the document's "schema" through one table (schemas.cpp):
//
//   plum-bench/2      BENCH_*.json bench reports (obs::validate_bench_report)
//   plum-run/1        RUN_*.json trace + metrics documents
//                     (obs::validate_run_doc)
//   plum-replay/1     REPLAY_*.json recorded timing books
//                     (sim::ReplayBook::parse)
//   plum-scope/1      live run streams, one record per cycle
//                     (obs::validate_scope_record on every record)
//   plum-postmortem/1 POSTMORTEM_*.json crash dumps (obs::validate_postmortem)
//   plum-heap/1       HEAP_*.json heap profiles (obs::validate_heap_section)
//
// Exit status: 0 ok; 1 an invalid file (check, report), a breach (diff) or
// a stream without a valid record (top); 2 a usage error, and for report
// and diff an unreadable file.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "diff.hpp"
#include "plum.hpp"

namespace plum::tool {

namespace {

void print_rule(char c) {
  for (int i = 0; i < 72; ++i) std::putchar(c);
  std::putchar('\n');
}

/// Loads and validates `path`; on failure prints "<path>: <why>" to stderr
/// and returns the exit status (1 invalid, 2 cannot open).
int load_valid(const char* path, Document* doc, const Schema** schema) {
  std::string err;
  const Load st = load_document(path, doc, &err);
  if (st == Load::kOk) {
    err = validate_document(*doc, schema);
    if (err.empty()) return 0;
    err = "schema violation: " + err;
  }
  std::fprintf(stderr, "%s: %s\n", path, err.c_str());
  return st == Load::kCannotOpen ? 2 : 1;
}

bool parse_tol(const char* arg, std::string* name, double* value) {
  const char* eq = std::strchr(arg, '=');
  if (!eq || eq == arg) return false;
  name->assign(arg, static_cast<std::size_t>(eq - arg));
  char* end = nullptr;
  *value = std::strtod(eq + 1, &end);
  return end && *end == '\0' && *value >= 0;
}

}  // namespace

int check_main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: plum check <file>...\n");
    return 2;
  }
  int failures = 0;
  for (int i = 1; i < argc; ++i) {
    Document doc;
    const Schema* schema = nullptr;
    if (load_valid(argv[i], &doc, &schema) != 0) {
      ++failures;
      continue;
    }
    std::printf("%s: ok (%s, %s)\n", argv[i], schema->id,
                schema->summary(doc).c_str());
  }
  return failures == 0 ? 0 : 1;
}

int report_main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: plum report <file>...\n");
    return 2;
  }
  int status = 0;
  for (int i = 1; i < argc; ++i) {
    Document doc;
    const Schema* schema = nullptr;
    const int rc = load_valid(argv[i], &doc, &schema);
    if (rc != 0) {
      status = std::max(status, rc);
      continue;
    }
    print_rule('=');
    std::printf("%s\n", argv[i]);
    print_rule('=');
    schema->render(doc);
    if (i + 1 < argc) std::printf("\n");
  }
  return status;
}

int diff_main(int argc, char** argv) {
  const auto usage = [] {
    std::fprintf(stderr,
                 "usage: plum diff [--rel-tol X] [--tol metric=X ...] "
                 "<baseline.json|dir> <current.json|dir>\n");
    return 2;
  };
  diff::Options opt;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--rel-tol") == 0 && i + 1 < argc) {
      char* end = nullptr;
      opt.rel_tol = std::strtod(argv[++i], &end);
      if (!end || *end != '\0' || opt.rel_tol < 0) return usage();
    } else if (std::strcmp(arg, "--tol") == 0 && i + 1 < argc) {
      std::string name;
      double value = 0;
      if (!parse_tol(argv[++i], &name, &value)) return usage();
      opt.metric_tol[name] = value;
    } else if (arg[0] == '-') {
      return usage();
    } else {
      paths.emplace_back(arg);
    }
  }
  if (paths.size() != 2) return usage();

  std::error_code ec;
  const diff::DiffResult result =
      std::filesystem::is_directory(paths[0], ec)
          ? diff::diff_dirs(paths[0], paths[1], opt)
          : diff::diff_files(paths[0], paths[1], opt);
  diff::print_delta_table(result, stdout);
  const int status = diff::exit_status(result);
  if (status == 1) {
    std::fprintf(stderr,
                 "plum diff: FAIL: %d metric breach(es) vs %s\n"
                 "  (intentional change? regenerate baselines with "
                 "tools/regen_baselines.sh and commit them)\n",
                 result.breaches, paths[0].c_str());
  }
  return status;
}

}  // namespace plum::tool

int main(int argc, char** argv) {
  struct Command {
    const char* name;
    int (*run)(int, char**);
  };
  static const Command kCommands[] = {
      {"check", plum::tool::check_main},
      {"report", plum::tool::report_main},
      {"diff", plum::tool::diff_main},
      {"top", plum::tool::top_main},
  };
  if (argc >= 2) {
    for (const Command& c : kCommands) {
      if (std::strcmp(argv[1], c.name) == 0) return c.run(argc - 1, argv + 1);
    }
  }
  std::fprintf(stderr, "usage: plum <check|report|diff|top> [args...]\n");
  return 2;
}
