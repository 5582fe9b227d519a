// p2gc — the P2G kernel-language compiler driver (paper §VI-A).
//
// Subcommands:
//   p2gc run   <file.p2g> [max_age] [workers]   interpret on the runtime
//              [--lint]  refuse to run a program with lint errors
//              [--checked]  record writer provenance (double-write errors
//                           name both offending kernel instances)
//   p2gc emit  <file.p2g> [out.cpp]             generate C++ (with main)
//   p2gc build <file.p2g> [binary]              generate + invoke g++,
//                                               producing a complete
//                                               binary linked against the
//                                               P2G libraries
//   p2gc graph <file.p2g>                       print the implicit static
//                                               dependency graphs as DOT
//
// Static analysis alone is tools/p2glint (lint) and tools/p2gdep
// (dependence and footprint report).
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/lang_lint.h"
#include "core/runtime.h"
#include "graph/static_graph.h"
#include "lang/codegen.h"
#include "lang/driver.h"
#include "lang/parser.h"

using namespace p2g;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: p2gc run <file.p2g> [max_age] [workers] "
               "[--lint] [--checked]\n"
               "       p2gc emit <file.p2g> [out.cpp]\n"
               "       p2gc build <file.p2g> [binary]\n"
               "       p2gc graph <file.p2g>\n");
  return 2;
}

int cmd_run(const std::string& path, int argc, char** argv) {
  bool lint = false;
  RunOptions options;
  std::vector<const char*> positional;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--lint") {
      lint = true;
    } else if (arg == "--checked") {
      options.checked = true;
    } else {
      positional.push_back(argv[i]);
    }
  }
  if (lint) {
    const analysis::LintReport report = analysis::lint_file(path);
    if (report.has_errors()) {
      std::fprintf(stderr, "%s", report.to_text().c_str());
      std::fprintf(stderr, "p2gc: refusing to run %s\n", path.c_str());
      return 1;
    }
  }
  lang::CompiledModule compiled = lang::compile_file(path);
  if (positional.size() > 0) options.max_age = std::atoll(positional[0]);
  if (positional.size() > 1) options.workers = std::atoi(positional[1]);
  Runtime runtime(std::move(compiled.program), options);
  const RunReport report = runtime.run();
  for (const std::string& line : compiled.printed->snapshot()) {
    std::printf("%s\n", line.c_str());
  }
  std::printf("\nwall time: %.3f s\n%s", report.wall_s,
              report.instrumentation.to_table().c_str());
  return report.timed_out ? 1 : 0;
}

std::string emit_cpp(const std::string& path) {
  lang::CodegenOptions options;
  options.with_main = true;
  options.source_name = path;
  return lang::generate_cpp_from_source(lang::read_file(path), options);
}

int cmd_emit(const std::string& path, const std::string& out) {
  std::ofstream(out) << emit_cpp(path);
  std::printf("wrote %s\n", out.c_str());
  return 0;
}

int cmd_build(const std::string& path, const std::string& binary) {
  const std::string cpp = binary + ".gen.cpp";
  std::ofstream(cpp) << emit_cpp(path);

#if defined(P2G_SOURCE_DIR) && defined(P2G_BINARY_DIR)
  const std::string src = P2G_SOURCE_DIR;
  const std::string bin = P2G_BINARY_DIR;
  // The paper: "The P2G compiler works also as a compiler driver for the
  // native compiler and produces complete binaries".
  const std::string command =
      "g++ -std=c++20 -O2 -I " + src + "/src " + cpp + " -o " + binary +
      " " + bin + "/src/lang/libp2g_lang.a " + bin +
      "/src/core/libp2g_core.a " + bin + "/src/nd/libp2g_nd.a " + bin +
      "/src/common/libp2g_common.a -lpthread";
  std::printf("%s\n", command.c_str());
  const int rc = std::system(command.c_str());
  if (rc != 0) {
    std::fprintf(stderr, "native compilation failed\n");
    return 1;
  }
  std::printf("built %s\n", binary.c_str());
  return 0;
#else
  std::fprintf(stderr, "p2gc was built without native-compiler paths; use "
                       "'emit' and compile manually\n");
  return 1;
#endif
}

int cmd_graph(const std::string& path) {
  lang::ModuleAst module = lang::parse_module(lang::read_file(path));
  lang::analyze(module);
  lang::CompiledModule compiled =
      lang::compile_source(lang::read_file(path));
  // Rebuild a Program only to derive the graphs.
  const auto intermediate =
      graph::IntermediateGraph::from_program(compiled.program);
  const auto final_graph =
      graph::FinalGraph::from_program(compiled.program);
  std::printf("// intermediate implicit static dependency graph (Fig. 2)\n");
  std::printf("%s\n", intermediate.to_dot().c_str());
  std::printf("// final implicit static dependency graph (Fig. 3)\n");
  std::printf("%s", final_graph.to_dot().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string command = argv[1];
  const std::string path = argv[2];
  try {
    if (command == "run") return cmd_run(path, argc - 3, argv + 3);
    if (command == "emit") {
      return cmd_emit(path, argc > 3 ? argv[3] : "out.cpp");
    }
    if (command == "build") {
      return cmd_build(path, argc > 3 ? argv[3] : "a.p2g.out");
    }
    if (command == "graph") return cmd_graph(path);
  } catch (const Error& e) {
    std::fprintf(stderr, "p2gc: %s\n", e.what());
    return 1;
  }
  return usage();
}
