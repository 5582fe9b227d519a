// p2gdep: symbolic dependence & footprint analysis of kernel-language
// programs from the command line. For every file it prints the access
// classification (pointwise / stencil / stream / reduction / broadcast),
// producer -> consumer dependence edges with age and element distances,
// per-age footprint bounds, and the full diagnostic report (including the
// kInfo fusion-legality and footprint-bound reports p2glint omits).
//
//   p2gdep [--json] [--werror] file.p2g...
//
// Exit codes: 0 = clean (or warnings only), 1 = errors found (or warnings
// under --werror) or a file failed to parse/compile, 2 = usage. kInfo
// reports never affect the exit code.

#include <cstdio>
#include <string>
#include <vector>

#include "analysis/lang_lint.h"
#include "common/error.h"
#include "common/string_util.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: p2gdep [--json] [--werror] file.p2g...\n"
               "  --json    machine-readable report per file\n"
               "  --werror  treat warnings as errors (info reports are "
               "always exempt)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool werror = false;
  std::vector<std::string> files;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--werror") {
      werror = true;
    } else if (arg == "--help" || arg == "-h") {
      return usage();
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "p2gdep: unknown option '%s'\n", arg.c_str());
      return usage();
    } else {
      files.push_back(arg);
    }
  }
  if (files.empty()) return usage();

  bool failed = false;
  std::string json_out = "{";
  for (size_t i = 0; i < files.size(); ++i) {
    const std::string& path = files[i];
    try {
      const p2g::analysis::DependenceReport report =
          p2g::analysis::dep_file(path);
      if (json) {
        if (i > 0) json_out += ",";
        json_out += "\"" + p2g::json_escape(path) + "\":" + report.to_json();
      } else {
        std::printf("%s:\n%s", path.c_str(), report.to_text().c_str());
      }
      if (report.diagnostics.has_errors() ||
          (werror && report.diagnostics.warning_count() > 0)) {
        failed = true;
      }
    } catch (const p2g::Error& e) {
      if (json) {
        if (i > 0) json_out += ",";
        json_out += "\"" + p2g::json_escape(path) + "\":{\"error\":\"" +
                    p2g::json_escape(e.what()) + "\"}";
      } else {
        std::fprintf(stderr, "%s: %s\n", path.c_str(), e.what());
      }
      failed = true;
    }
  }
  if (json) {
    json_out += "}";
    std::printf("%s\n", json_out.c_str());
  }
  return failed ? 1 : 0;
}
