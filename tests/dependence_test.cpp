// Tests for the symbolic dependence pass (src/analysis/dependence.h) and
// the footprint algebra under it (src/analysis/footprint.h): strided
// interval normalization, the conservative may_overlap / contains
// predicates over symbolic extents, access-pattern classification,
// dependence edges, the W008/W009 lint checks, the report renderings, and
// the one fusion legality check the runtime and W010 share.
#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "analysis/dependence.h"
#include "analysis/footprint.h"
#include "analysis/lang_lint.h"
#include "core/program.h"
#include "core/runtime.h"
#include "lang/driver.h"
#include "media/yuv.h"
#include "workloads/kmeans.h"
#include "workloads/mjpeg_workload.h"
#include "workloads/motion.h"
#include "workloads/mul2plus5.h"
#include "workloads/pipeline.h"

namespace p2g::analysis {
namespace {

KernelBuilder& nop_kernel(ProgramBuilder& pb, const std::string& name) {
  return pb.kernel(name).body([](KernelContext&) {});
}

// ---------------------------------------------------------------- footprints

TEST(Footprint, NormalizeCanonicalizesNegativeStrides) {
  // Walking 10, 8, 6, 4, 2 downward is the set [2,11):2.
  const DimFootprint down = normalize(10, 0, -2);
  EXPECT_EQ(down.lo, 2);
  EXPECT_EQ(down.hi, SymBound::finite(11));
  EXPECT_EQ(down.step, 2);
  EXPECT_EQ(down, normalize(2, 11, 2));
  EXPECT_EQ(down.to_string(), "[2,11):2");
}

TEST(Footprint, NormalizeEmptyAndPointRanges) {
  EXPECT_TRUE(normalize(5, 5, 1).is_empty());
  EXPECT_TRUE(normalize(7, 3, 2).is_empty());
  // All provably empty sets canonicalize to the same value.
  EXPECT_EQ(normalize(5, 5, 1), DimFootprint::empty());
  EXPECT_TRUE(normalize(4, 5, 1).is_point());
  EXPECT_EQ(normalize(4, 5, 1), DimFootprint::point(4));
}

TEST(Footprint, StridedResiduesDoNotOverlap) {
  // Evens vs odds over the same interval share no element.
  const DimFootprint evens = normalize(0, 10, 2);
  const DimFootprint odds = normalize(1, 10, 2);
  EXPECT_FALSE(may_overlap(evens, odds));
  EXPECT_TRUE(may_overlap(evens, normalize(4, 5, 1)));
  EXPECT_FALSE(may_overlap(DimFootprint::point(3), DimFootprint::point(4)));
  EXPECT_FALSE(may_overlap(DimFootprint::empty(), DimFootprint::point(0)));
}

TEST(Footprint, SymbolicExtentsAreOpaqueButConsistent) {
  const FieldId f = 0;
  const FieldId g = 1;
  const DimFootprint all_f = DimFootprint::full(f, 0);
  const DimFootprint all_g = DimFootprint::full(g, 0);
  // A symbolic extent may be anything >= 0: overlap with any non-empty
  // finite set must be assumed.
  EXPECT_TRUE(may_overlap(all_f, DimFootprint::point(1000)));
  EXPECT_FALSE(may_overlap(all_f, DimFootprint::empty()));
  // The same symbol always denotes the same value...
  EXPECT_TRUE(contains(all_f, all_f));
  // ...but two different symbols are never assumed equal.
  EXPECT_FALSE(contains(all_f, all_g));
  // |f.0| may be 0 at runtime, so it cannot be *proven* to contain any
  // non-empty finite set, while the reverse containment fails too.
  EXPECT_FALSE(contains(all_f, DimFootprint::point(0)));
  EXPECT_FALSE(contains(DimFootprint::point(0), all_f));
  EXPECT_TRUE(contains(all_f, DimFootprint::empty()));
}

TEST(Footprint, FiniteContainment) {
  EXPECT_TRUE(contains(normalize(0, 8, 1), DimFootprint::point(7)));
  EXPECT_FALSE(contains(normalize(0, 8, 1), DimFootprint::point(8)));
  // Residue matters: [0,10):2 does not contain the odd point 3.
  EXPECT_FALSE(contains(normalize(0, 10, 2), DimFootprint::point(3)));
  EXPECT_TRUE(contains(normalize(0, 10, 2), normalize(2, 7, 2)));
}

TEST(Footprint, WholeFieldFootprints) {
  const Footprint whole = Footprint::whole_field(0);
  Footprint point;
  point.field = 0;
  point.dims = {DimFootprint::point(3)};
  EXPECT_TRUE(may_overlap(whole, point));
  EXPECT_TRUE(contains(whole, point));
  EXPECT_FALSE(contains(point, whole));
  EXPECT_EQ(whole.to_string(), "whole");
}

// ------------------------------------------------------------- patterns

// A miniature MJPEG-shaped pipeline: init seeds the clock; gen (no index
// variables) emits a whole frame per age and advances the clock; scale
// reads the frame elementwise; sink reduces whole frames.
Program pipeline_program() {
  ProgramBuilder pb;
  pb.field("clock", nd::ElementType::kInt32, 1);
  pb.field("frame", nd::ElementType::kInt32, 2);
  pb.field("out", nd::ElementType::kInt32, 2);
  nop_kernel(pb, "init").run_once().store("out", "clock",
                                          AgeExpr::constant(0), Slice());
  nop_kernel(pb, "gen")
      .fetch("tick", "clock", AgeExpr::relative(0), Slice())
      .store("img", "frame", AgeExpr::relative(0), Slice())
      .store("next", "clock", AgeExpr::relative(1), Slice());
  nop_kernel(pb, "scale")
      .index("x")
      .index("y")
      .fetch("px", "frame", AgeExpr::relative(0), Slice().var("x").var("y"))
      .store("res", "out", AgeExpr::relative(0), Slice().var("x").var("y"));
  nop_kernel(pb, "sink").serial().fetch("all", "frame", AgeExpr::relative(0),
                                        Slice());
  return pb.build();
}

const AccessInfo* find_access(const DependenceReport& report,
                              const std::string& kernel, bool is_fetch,
                              size_t statement) {
  for (const AccessInfo& a : report.accesses) {
    if (a.kernel_name == kernel && a.is_fetch == is_fetch &&
        a.statement == statement) {
      return &a;
    }
  }
  return nullptr;
}

TEST(Dependence, ClassifiesAccessPatterns) {
  const DependenceReport report = analyze_dependences(pipeline_program());
  ASSERT_FALSE(report.diagnostics.has_errors())
      << report.diagnostics.to_text();
  EXPECT_EQ(find_access(report, "init", false, 0)->pattern,
            AccessPattern::kBroadcast);  // whole-field store
  EXPECT_EQ(find_access(report, "gen", true, 0)->pattern,
            AccessPattern::kReduction);  // whole-field fetch, relative age
  EXPECT_EQ(find_access(report, "scale", true, 0)->pattern,
            AccessPattern::kPointwise);
  EXPECT_EQ(find_access(report, "sink", true, 0)->pattern,
            AccessPattern::kReduction);
}

TEST(Dependence, TemporalStencilUpgrade) {
  // blend reads sig at two adjacent age offsets elementwise: a temporal
  // stencil of radius 1.
  ProgramBuilder pb;
  pb.field("sig", nd::ElementType::kInt32, 1);
  pb.field("res", nd::ElementType::kInt32, 1);
  nop_kernel(pb, "seed").run_once().store("out", "sig", AgeExpr::constant(0),
                                          Slice());
  nop_kernel(pb, "tick")
      .index("x")
      .fetch("in", "sig", AgeExpr::relative(0), Slice().var("x"))
      .store("out", "sig", AgeExpr::relative(1), Slice().var("x"));
  nop_kernel(pb, "blend")
      .index("x")
      .fetch("cur", "sig", AgeExpr::relative(0), Slice().var("x"))
      .fetch("next", "sig", AgeExpr::relative(1), Slice().var("x"))
      .store("out", "res", AgeExpr::relative(0), Slice().var("x"));
  const DependenceReport report = analyze_dependences(pb.build());
  ASSERT_FALSE(report.diagnostics.has_errors())
      << report.diagnostics.to_text();
  const AccessInfo* cur = find_access(report, "blend", true, 0);
  const AccessInfo* next = find_access(report, "blend", true, 1);
  ASSERT_NE(cur, nullptr);
  ASSERT_NE(next, nullptr);
  EXPECT_EQ(cur->pattern, AccessPattern::kStencil);
  EXPECT_EQ(next->pattern, AccessPattern::kStencil);
  EXPECT_EQ(cur->stencil_radius, 1);
  // A single elementwise fetch stays pointwise.
  EXPECT_EQ(find_access(report, "tick", true, 0)->pattern,
            AccessPattern::kPointwise);
}

TEST(Dependence, EdgesCarryAgeAndElementDistances) {
  const DependenceReport report = analyze_dependences(pipeline_program());
  bool found_loop = false;
  bool found_scale = false;
  for (const DependenceEdge& e : report.edges) {
    if (e.field_name == "clock" && e.producer_name == "gen") {
      found_loop = true;
      ASSERT_TRUE(e.age_distance.has_value());
      EXPECT_EQ(*e.age_distance, 1);  // store a+1, fetch a
      EXPECT_TRUE(e.elem_distance.empty());  // whole-field on both sides
    }
    if (e.field_name == "frame" && e.consumer_name == "scale") {
      found_scale = true;
      ASSERT_TRUE(e.age_distance.has_value());
      EXPECT_EQ(*e.age_distance, 0);
      EXPECT_FALSE(e.fusible);
    }
  }
  EXPECT_TRUE(found_loop);
  EXPECT_TRUE(found_scale);
  // init's constant-age store feeding gen's relative-age fetch has no
  // fixed distance.
  for (const DependenceEdge& e : report.edges) {
    if (e.field_name == "clock" && e.producer_name == "init") {
      EXPECT_FALSE(e.age_distance.has_value());
    }
  }
}

// ------------------------------------------------------------ W008 / W009

TEST(Dependence, OutOfBoundsSliceAgainstDeclaredExtents) {
  ProgramBuilder pb;
  pb.field("data", nd::ElementType::kInt32, 1, {8});
  nop_kernel(pb, "seed").run_once().store("out", "data", AgeExpr::constant(0),
                                          Slice());
  nop_kernel(pb, "probe").fetch("edge", "data", AgeExpr::relative(0),
                                Slice().at(9));
  const LintReport report = lint(pb.build());
  ASSERT_EQ(report.count(kOutOfBoundsSlice), 1u) << report.to_text();
  const Diagnostic* d = report.find(kOutOfBoundsSlice);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_EQ(d->primary.name, "probe");
  EXPECT_EQ(d->secondary.name, "data");
  EXPECT_NE(d->message.find("declares extent 8"), std::string::npos)
      << d->message;
}

TEST(Dependence, InBoundsConstantIndexIsClean) {
  ProgramBuilder pb;
  pb.field("data", nd::ElementType::kInt32, 1, {8});
  nop_kernel(pb, "seed").run_once().store("out", "data", AgeExpr::constant(0),
                                          Slice());
  nop_kernel(pb, "probe").fetch("edge", "data", AgeExpr::relative(0),
                                Slice().at(7));
  EXPECT_EQ(lint(pb.build()).count(kOutOfBoundsSlice), 0u);
}

TEST(Dependence, DeadStoreWhenAgeSetsNeverMeet) {
  ProgramBuilder pb;
  pb.field("snap", nd::ElementType::kInt32, 1);
  nop_kernel(pb, "init").run_once().store("out", "snap", AgeExpr::constant(0),
                                          Slice());
  nop_kernel(pb, "stale").run_once().store("out", "snap",
                                           AgeExpr::constant(9), Slice());
  nop_kernel(pb, "probe").run_once().fetch("first", "snap",
                                           AgeExpr::constant(0), Slice());
  const LintReport report = lint(pb.build());
  ASSERT_EQ(report.count(kDeadStore), 1u) << report.to_text();
  const Diagnostic* d = report.find(kDeadStore);
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_EQ(d->primary.name, "stale");
  EXPECT_EQ(d->secondary.name, "snap");
  EXPECT_FALSE(report.has_errors());
}

TEST(Dependence, ReadStoresAndTerminalFieldsAreNotDead) {
  // pipeline_program: every store is either read (clock, frame) or feeds
  // a terminal host-drained field (out) — zero W009.
  EXPECT_EQ(lint(pipeline_program()).count(kDeadStore), 0u);
}

// ------------------------------------------------- report renderings

TEST(Dependence, TextAndJsonRenderings) {
  const DependenceReport report = analyze_dependences(pipeline_program());
  const std::string text = report.to_text();
  EXPECT_NE(text.find("== accesses =="), std::string::npos);
  EXPECT_NE(text.find("== dependence edges =="), std::string::npos);

  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"accesses\""), std::string::npos);
  EXPECT_NE(json.find("\"edges\""), std::string::npos);
  EXPECT_NE(json.find("\"bounds\""), std::string::npos);
  EXPECT_NE(json.find("\"pattern\":\"pointwise\""), std::string::npos);
}

// Golden rendering: the JSON schema (code/severity/message plus primary &
// secondary anchors with kernel/field names, statement indices, and
// 1-based source lines) is a published interface — editor integrations
// parse it. Any change here is a breaking change and must be deliberate.
TEST(Dependence, GoldenDiagnosticJsonFromSource) {
  const std::string source =
      "int32[8] data age;\n"
      "\n"
      "init:\n"
      "  local int32[] values;\n"
      "  %{ put(values, 1, 0); %}\n"
      "  store data(0) = values;\n"
      "\n"
      "probe:\n"
      "  age a;\n"
      "  local int32 edge;\n"
      "  fetch edge = data(a)[9];\n"
      "  %{ print(\"edge: \", edge); %}\n";
  const LintReport report = lint_source(source);
  EXPECT_EQ(
      report.to_json(),
      "{\"diagnostics\":[{\"code\":\"P2G-W008\",\"severity\":\"error\","
      "\"message\":\"fetch data(a)[9] reads constant index 9 in dimension 0, "
      "but field 'data' declares extent 8\",\"primary\":{\"kind\":\"fetch\","
      "\"name\":\"probe\",\"statement\":0,\"line\":11},\"secondary\":{"
      "\"kind\":\"field\",\"name\":\"data\",\"line\":1}}],\"errors\":1,"
      "\"warnings\":0,\"infos\":0}");
}

// ------------------------------------------------ fusion legality, once

// Every kernel pair W010 reports on, turned into a Runtime fusion rule:
// the runtime accepts exactly the pairs W010 calls legal.
TEST(FusionLegality, RuntimeAcceptsExactlyThePairsW010CallsLegal) {
  const auto video = std::make_shared<media::YuvVideo>(
      media::generate_synthetic_video(32, 32, 2));
  std::vector<std::pair<std::string, std::function<Program()>>> programs = {
      {"mul2plus5", [] { return workloads::Mul2Plus5{}.build(); }},
      {"kmeans", [] { return workloads::KmeansWorkload{}.build(); }},
      {"pipeline", [] { return workloads::PipelineWorkload{}.build(); }},
      {"mjpeg",
       [video] {
         workloads::MjpegWorkload w;
         w.video = video;
         return w.build();
       }},
      {"motion",
       [video] {
         workloads::MotionWorkload w;
         w.video = video;
         return w.build();
       }},
  };
  for (const char* dir : {"/examples/programs", "/examples/lint"}) {
    for (const auto& entry : std::filesystem::directory_iterator(
             std::string(P2G_SOURCE_DIR) + dir)) {
      const std::string path = entry.path().string();
      if (entry.path().extension() != ".p2g") continue;
      programs.emplace_back(
          path, [path] { return lang::compile_file(path).program; });
    }
  }
  size_t legal = 0;
  size_t illegal = 0;
  for (const auto& [label, build] : programs) {
    const DependenceReport report = analyze_dependences(build());
    for (const Diagnostic& d : report.diagnostics.diagnostics) {
      if (d.code != std::string(kFusionLegality)) continue;
      RunOptions options;
      options.fusions.push_back(FusionRule{d.secondary.name, d.primary.name});
      if (d.message.find(" is legal ") != std::string::npos) {
        ++legal;
        EXPECT_NO_THROW({ Runtime runtime(build(), options); })
            << label << ": " << d.message;
      } else {
        ++illegal;
        EXPECT_THROW({ Runtime runtime(build(), options); }, Error)
            << label << ": " << d.message;
      }
    }
  }
  EXPECT_GT(legal, 0u);
  EXPECT_GT(illegal, 0u);
}

}  // namespace
}  // namespace p2g::analysis
