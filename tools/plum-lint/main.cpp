// plum-lint CLI: runs both static-analysis passes over one file set — the
// rank-safety & determinism checks (linter.hpp) and the project-wide
// replicated-state & scalability analysis (scale.hpp) — and exits 0 only
// when neither leaves an unsuppressed diagnostic.
//
//   plum-lint [--json report.json] [--quiet] [--list-checks] <path>...
//
// Directories are scanned recursively for C++ sources/headers. Exit codes:
// 0 clean, 1 diagnostics found, 2 usage or I/O error.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "linter.hpp"
#include "scale.hpp"

namespace fs = std::filesystem;

namespace {

bool is_cpp_file(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".h" || ext == ".cc" ||
         ext == ".hh" || ext == ".cxx";
}

bool read_file(const fs::path& p, std::string& out) {
  std::ifstream in(p, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

int usage() {
  std::fprintf(stderr,
               "usage: plum-lint [--json FILE] [--quiet] [--list-checks] "
               "<path>...\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  bool quiet = false;
  std::vector<fs::path> roots;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      if (++i >= argc) return usage();
      json_path = argv[i];
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--list-checks") {
      for (const auto* table : {&plumlint::checks(), &plumlint::scale_checks()}) {
        for (const auto& c : *table) {
          std::printf("%-36s %s\n", c.name, c.summary);
        }
      }
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else {
      roots.emplace_back(arg);
    }
  }
  if (roots.empty()) return usage();

  std::vector<plumlint::FileInput> files;
  for (const auto& root : roots) {
    std::error_code ec;
    if (fs::is_directory(root, ec)) {
      for (const auto& e : fs::recursive_directory_iterator(root, ec)) {
        if (e.is_regular_file() && is_cpp_file(e.path())) {
          files.push_back({e.path().generic_string(), {}});
        }
      }
    } else if (fs::is_regular_file(root, ec)) {
      files.push_back({root.generic_string(), {}});
    } else {
      std::fprintf(stderr, "plum-lint: no such file or directory: %s\n",
                   root.string().c_str());
      return 2;
    }
  }
  std::sort(files.begin(), files.end(),
            [](const auto& a, const auto& b) { return a.path < b.path; });
  for (auto& f : files) {
    if (!read_file(f.path, f.content)) {
      std::fprintf(stderr, "plum-lint: cannot read %s\n", f.path.c_str());
      return 2;
    }
  }

  // One report: the scale pass's diagnostics join the lint pass's.
  plumlint::LintResult result = plumlint::lint_files(files);
  const plumlint::LintResult scale = plumlint::scale_files(files);
  result.diagnostics.insert(result.diagnostics.end(),
                            scale.diagnostics.begin(),
                            scale.diagnostics.end());
  std::sort(result.diagnostics.begin(), result.diagnostics.end());

  if (!quiet) {
    for (const auto& d : result.diagnostics) {
      if (d.suppressed) continue;
      std::printf("%s:%d: [%s] %s\n", d.file.c_str(), d.line, d.check.c_str(),
                  d.message.c_str());
    }
    std::printf(
        "plum-lint: %d file(s), %d unsuppressed diagnostic(s), %d "
        "suppressed\n",
        result.files_scanned, result.unsuppressed_count(),
        result.suppressed_count());
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "plum-lint: cannot write %s\n", json_path.c_str());
      return 2;
    }
    out << plumlint::to_json(result);
  }

  return result.unsuppressed_count() == 0 ? 0 : 1;
}
