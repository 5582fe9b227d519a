#include "workloads/kmeans.h"

#include <cmath>

#include "common/error.h"
#include "core/context.h"

namespace p2g::workloads {

namespace {

/// xorshift64* generator: deterministic across platforms.
struct Rng {
  uint64_t state;
  explicit Rng(uint64_t seed) : state(seed == 0 ? 0x9e3779b97f4a7c15ULL
                                                : seed) {}
  uint64_t next() {
    state ^= state >> 12;
    state ^= state << 25;
    state ^= state >> 27;
    return state * 0x2545F4914F6CDD1DULL;
  }
  double uniform() {  // [0, 1)
    return static_cast<double>(next() >> 11) / 9007199254740992.0;
  }
};

double sq_distance(const double* a, const double* b, int dim) {
  double total = 0.0;
  for (int d = 0; d < dim; ++d) {
    const double delta = a[d] - b[d];
    total += delta * delta;
  }
  return total;
}

/// Arg-min over the k distances of point x (lowest index wins ties) —
/// shared by refine and the sequential reference.
int argmin_cluster(const double* dist_row, int k) {
  int best = 0;
  for (int j = 1; j < k; ++j) {
    if (dist_row[j] < dist_row[best]) best = j;
  }
  return best;
}

}  // namespace

std::vector<double> generate_points(const KmeansConfig& config) {
  Rng rng(config.seed);
  std::vector<double> points(static_cast<size_t>(config.n) *
                             static_cast<size_t>(config.dim));
  for (double& v : points) v = rng.uniform() * 100.0;
  return points;
}

Program KmeansWorkload::build() const {
  const KmeansConfig cfg = config;
  P2G_CHECK_ARGUMENT(cfg.n > 0 && cfg.k > 0 && cfg.k <= cfg.n && cfg.dim > 0,
                     "invalid k-means configuration");

  ProgramBuilder pb;
  pb.field("datapoints", nd::ElementType::kFloat64, 2);  // [n][dim]
  pb.field("centroids", nd::ElementType::kFloat64, 2);   // [k][dim]
  pb.field("dist", nd::ElementType::kFloat64, 2);        // [n][k]

  pb.kernel("init")
      .run_once()
      .store("points", "datapoints", AgeExpr::constant(0), Slice::whole())
      .store("means", "centroids", AgeExpr::constant(0), Slice::whole())
      .body([cfg](KernelContext& ctx) {
        const std::vector<double> points = generate_points(cfg);
        nd::AnyBuffer data(nd::ElementType::kFloat64,
                           nd::Extents({cfg.n, cfg.dim}));
        std::copy(points.begin(), points.end(), data.data<double>());
        // Initial means: the first k datapoints (deterministic stand-in
        // for the paper's random selection).
        nd::AnyBuffer means(nd::ElementType::kFloat64,
                            nd::Extents({cfg.k, cfg.dim}));
        std::copy(points.begin(),
                  points.begin() + static_cast<ptrdiff_t>(
                                       static_cast<size_t>(cfg.k) *
                                       static_cast<size_t>(cfg.dim)),
                  means.data<double>());
        ctx.store_array("points", std::move(data));
        ctx.store_array("means", std::move(means));
      });

  const int dim = cfg.dim;
  pb.kernel("assign")
      .index("x")
      .index("j")
      .fetch("pt", "datapoints", AgeExpr::constant(0),
             Slice().var("x").all())
      .fetch("cent", "centroids", AgeExpr::relative(0),
             Slice().var("j").all())
      .store("d", "dist", AgeExpr::relative(0), Slice().var("x").var("j"))
      .body([dim](KernelContext& ctx) {
        // Point and centroid rows are contiguous in field storage; the
        // views alias it with no copy.
        const nd::ConstView& pt = ctx.fetch_view("pt");
        const nd::ConstView& cent = ctx.fetch_view("cent");
        ctx.store_scalar<double>(
            "d", sq_distance(pt.data<double>(), cent.data<double>(), dim));
      });

  const int n = cfg.n;
  const int k = cfg.k;
  pb.kernel("refine")
      .index("j")
      .fetch("prev", "centroids", AgeExpr::relative(0),
             Slice().var("j").all())
      .fetch("dall", "dist", AgeExpr::relative(0), Slice::whole())
      .fetch("pts", "datapoints", AgeExpr::constant(0), Slice::whole())
      .store("out", "centroids", AgeExpr::relative(1),
             Slice().var("j").all())
      .body([n, k, dim](KernelContext& ctx) {
        const int64_t j = ctx.index("j");
        const double* dist = ctx.fetch_view("dall").data<double>();
        const double* pts = ctx.fetch_view("pts").data<double>();
        const double* prev = ctx.fetch_view("prev").data<double>();

        std::vector<double> sum(static_cast<size_t>(dim), 0.0);
        int64_t count = 0;
        for (int x = 0; x < n; ++x) {
          if (argmin_cluster(dist + static_cast<size_t>(x) *
                                        static_cast<size_t>(k),
                             k) == j) {
            for (int d = 0; d < dim; ++d) {
              sum[static_cast<size_t>(d)] +=
                  pts[static_cast<size_t>(x) * static_cast<size_t>(dim) +
                      static_cast<size_t>(d)];
            }
            ++count;
          }
        }
        nd::AnyBuffer out(nd::ElementType::kFloat64, nd::Extents({dim}));
        for (int d = 0; d < dim; ++d) {
          out.data<double>()[d] =
              count > 0 ? sum[static_cast<size_t>(d)] /
                              static_cast<double>(count)
                        : prev[d];  // empty cluster keeps its centroid
        }
        ctx.store_array("out", std::move(out));
      });

  auto sink = snapshots;
  pb.kernel("print")
      .serial()
      .fetch("c", "centroids", AgeExpr::relative(0), Slice::whole())
      .body([sink](KernelContext& ctx) {
        const nd::ConstView& c = ctx.fetch_view("c");
        std::vector<double> snapshot(
            c.data<double>(), c.data<double>() + c.element_count());
        sink->push_back(std::move(snapshot));
      });

  return pb.build();
}

void KmeansWorkload::apply_schedule(RunOptions& options) const {
  options.max_age = config.iterations;
  options.kernel_schedules["assign"].max_age = config.iterations - 1;
  options.kernel_schedules["refine"].max_age = config.iterations - 1;
}

std::vector<double> kmeans_sequential(const KmeansConfig& config) {
  const std::vector<double> points = generate_points(config);
  const auto dim = static_cast<size_t>(config.dim);
  std::vector<double> centroids(points.begin(),
                                points.begin() +
                                    static_cast<ptrdiff_t>(
                                        static_cast<size_t>(config.k) * dim));
  std::vector<double> dist(static_cast<size_t>(config.n) *
                           static_cast<size_t>(config.k));

  for (int iter = 0; iter < config.iterations; ++iter) {
    for (int x = 0; x < config.n; ++x) {
      for (int j = 0; j < config.k; ++j) {
        dist[static_cast<size_t>(x) * static_cast<size_t>(config.k) +
             static_cast<size_t>(j)] =
            sq_distance(&points[static_cast<size_t>(x) * dim],
                        &centroids[static_cast<size_t>(j) * dim],
                        config.dim);
      }
    }
    std::vector<double> next(centroids.size(), 0.0);
    std::vector<int64_t> counts(static_cast<size_t>(config.k), 0);
    for (int x = 0; x < config.n; ++x) {
      const int j = argmin_cluster(
          &dist[static_cast<size_t>(x) * static_cast<size_t>(config.k)],
          config.k);
      for (size_t d = 0; d < dim; ++d) {
        next[static_cast<size_t>(j) * dim + d] +=
            points[static_cast<size_t>(x) * dim + d];
      }
      ++counts[static_cast<size_t>(j)];
    }
    for (int j = 0; j < config.k; ++j) {
      for (size_t d = 0; d < dim; ++d) {
        if (counts[static_cast<size_t>(j)] > 0) {
          next[static_cast<size_t>(j) * dim + d] /=
              static_cast<double>(counts[static_cast<size_t>(j)]);
        } else {
          next[static_cast<size_t>(j) * dim + d] =
              centroids[static_cast<size_t>(j) * dim + d];
        }
      }
    }
    centroids = std::move(next);
  }
  return centroids;
}

}  // namespace p2g::workloads
