// The three solver workloads: gmm_paper, ar_paper and pagerank_web.
//
// Each run sets the workload up several times (inputs, method build,
// characterization, Truth reference runs) and reports the median set-up,
// then repeats passes over the workload's fixed solve set until the
// requested time is spent. Untraced passes give the end-to-end metrics.
// With --trace 1, traced passes (decorators, metrics registry) alternate
// with untraced ones; they give the per-layer metrics and the tracing
// overhead, and every traced RunReport must equal its untraced twin.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "apps/autoregression.h"
#include "apps/gmm.h"
#include "apps/pagerank.h"
#include "arith/alu.h"
#include "core/adaptive_strategy.h"
#include "core/characterization.h"
#include "core/incremental_strategy.h"
#include "core/report_io.h"
#include "core/session_builder.h"
#include "core/static_strategy.h"
#include "harness.h"
#include "layers.h"
#include "obs/metrics.h"
#include "util/rng.h"
#include "workloads/datasets.h"
#include "workloads/graphs.h"

namespace perfbench {
namespace {

using namespace approxit;

/// Seed derivation: one independent stream per (seed, input slot).
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t slot) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + slot + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// One solve of a pass: a method under a strategy on an ALU, with the
/// quality check against its Truth reference.
struct Solve {
  std::string label;
  opt::IterativeMethod* method = nullptr;
  core::Strategy* strategy = nullptr;
  arith::QcsAlu* alu = nullptr;
  const core::ModeCharacterization* profile = nullptr;
  double truth_energy = 0.0;
  /// True when the finished run meets the workload's quality guarantee;
  /// `detail` receives the measured quality either way.
  std::function<bool(const core::RunReport&, std::string* detail)> check;
};

/// Everything one set-up builds; owns the objects the solves point at.
struct Workbench {
  virtual ~Workbench() = default;
  std::vector<Solve> solves;
  double generate_s = 0.0;
  double build_s = 0.0;
  double characterize_s = 0.0;
  double truth_s = 0.0;
  /// Bytes one SpMV touches, from array sizes (sparse workloads only).
  double spmv_bytes = 0.0;
};

template <typename F>
double timed(F&& body) {
  const double t0 = wall_s();
  body();
  return wall_s() - t0;
}

core::RunReport run_truth(opt::IterativeMethod& method, arith::QcsAlu& alu,
                          const core::ModeCharacterization& profile) {
  core::StaticStrategy accurate(arith::ApproxMode::kAccurate);
  return core::SessionBuilder()
      .method(method)
      .strategy(accurate)
      .alu(alu)
      .characterization(profile)
      .run();
}

/// gmm_paper and ar_paper share one shape: per Table 2 dataset, build the
/// method, characterize it, keep its Truth result, then solve it under the
/// incremental and the adaptive strategy.
template <typename Dataset, typename Method, typename Truth>
struct PaperBench final : Workbench {
  explicit PaperBench(const arith::QcsConfig& config) : alu(config) {}
  std::vector<Dataset> datasets;
  std::vector<std::unique_ptr<Method>> methods;
  std::vector<core::ModeCharacterization> profiles;
  std::vector<Truth> truths;
  std::vector<double> truth_energy;
  arith::QcsAlu alu;
  core::IncrementalStrategy incremental;
  core::AdaptiveAngleStrategy adaptive;
};

/// Builds, characterizes and runs Truth on every dataset of `bench`, then
/// lists the solves. `truth_of(method)` captures the Truth result after
/// the accurate run; `check(method, truth, report, detail)` is the
/// quality guarantee.
template <typename Dataset, typename Method, typename Truth, typename TruthOf,
          typename Check>
void finish_paper_bench(PaperBench<Dataset, Method, Truth>& bench,
                        TruthOf truth_of, Check check) {
  bench.build_s = timed([&] {
    for (const Dataset& ds : bench.datasets) {
      bench.methods.push_back(std::make_unique<Method>(ds));
    }
  });
  for (const auto& method : bench.methods) {
    bench.characterize_s += timed([&] {
      bench.profiles.push_back(core::characterize(*method, bench.alu));
    });
    bench.truth_s += timed([&] {
      bench.truth_energy.push_back(
          run_truth(*method, bench.alu, bench.profiles.back()).total_energy);
      bench.truths.push_back(truth_of(*method));
    });
  }
  for (std::size_t i = 0; i < bench.methods.size(); ++i) {
    for (core::Strategy* strategy :
         {static_cast<core::Strategy*>(&bench.incremental),
          static_cast<core::Strategy*>(&bench.adaptive)}) {
      Method* method = bench.methods[i].get();
      const Truth* truth = &bench.truths[i];
      Solve solve;
      solve.label = bench.datasets[i].name + "/" + strategy->name();
      solve.method = method;
      solve.strategy = strategy;
      solve.alu = &bench.alu;
      solve.profile = &bench.profiles[i];
      solve.truth_energy = bench.truth_energy[i];
      solve.check = [method, truth, check](const core::RunReport& report,
                                           std::string* detail) {
        return check(*method, *truth, report, detail);
      };
      bench.solves.push_back(std::move(solve));
    }
  }
}

// --- gmm_paper ------------------------------------------------------------

/// Timed GMM inputs are the Table 2 mixtures; a non-default seed permutes
/// their sample order (row order sets the order of every accumulation), so
/// the work stays that of Table 2. --heldout 1 draws fresh mixtures.
void permute_samples(workloads::GmmDataset& ds, std::uint64_t seed) {
  const std::size_t n = ds.size();
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  util::Rng rng(seed);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.uniform_u64(i)]);
  }
  const std::vector<double> points = ds.points;
  const std::vector<int> labels = ds.labels;
  for (std::size_t i = 0; i < n; ++i) {
    std::copy_n(points.begin() + order[i] * ds.dim, ds.dim,
                ds.points.begin() + i * ds.dim);
    ds.labels[i] = labels[order[i]];
  }
}

/// Table 2 GMM shapes, for --heldout: make_gaussian_blobs mixtures with
/// these sizes, dimensions, cluster counts and thresholds.
struct GmmShape {
  const char* name;
  std::size_t k, total, dim;
  double tolerance;
};
constexpr GmmShape kGmmShapes[] = {
    {"3cluster", 3, 1000, 2, 1e-10},
    {"3d3cluster", 3, 1900, 3, 1e-6},
    {"4cluster", 4, 2350, 2, 1e-6},
};
/// Blob layout: cluster centers ~4 standard deviations apart, as in the
/// Table 2 mixtures.
constexpr double kBlobSeparation = 6.0;
constexpr double kBlobSpread = 0.9;

using GmmBench =
    PaperBench<workloads::GmmDataset, apps::GmmEm, std::vector<int>>;

std::unique_ptr<Workbench> make_gmm(const Options& options) {
  auto bench = std::make_unique<GmmBench>(arith::QcsConfig{});
  bench->generate_s = timed([&] {
    for (std::size_t i = 0; i < std::size(kGmmShapes); ++i) {
      const GmmShape& shape = kGmmShapes[i];
      if (!options.heldout || options.seed == kDefaultSeed) {
        bench->datasets.push_back(workloads::make_gmm_dataset(
            workloads::all_gmm_datasets()[i]));
        if (options.seed != kDefaultSeed) {
          permute_samples(bench->datasets.back(), mix_seed(options.seed, i));
        }
        continue;
      }
      workloads::GmmDataset ds = workloads::make_gaussian_blobs(
          shape.k, shape.total, shape.dim, kBlobSeparation, kBlobSpread,
          mix_seed(options.seed, i));
      ds.name = shape.name;
      ds.max_iter = 500;
      ds.convergence_tol = shape.tolerance;
      bench->datasets.push_back(std::move(ds));
    }
  });
  finish_paper_bench(
      *bench, [](const apps::GmmEm& method) { return method.assignments(); },
      [](const apps::GmmEm& method, const std::vector<int>& truth,
         const core::RunReport& report, std::string* detail) {
        const std::size_t hamming =
            apps::hamming_distance(truth, method.assignments());
        *detail = "hamming=" + std::to_string(hamming);
        return report.converged && hamming == 0;
      });
  return bench;
}

// --- ar_paper -------------------------------------------------------------

/// Table 2 AR shapes (the surrogate series' lengths, levels and momenta),
/// for --heldout: make_financial_series draws of these shapes.
struct SeriesShape {
  const char* name;
  std::size_t length;
  double start, drift, volatility, momentum;
};
constexpr SeriesShape kSeriesShapes[] = {
    {"HangSeng INDEX", 6694, 10000.0, 3.0e-4, 0.016, 0.50},
    {"NASDAQ Composite", 10799, 800.0, 3.5e-4, 0.014, 0.78},
    {"S&P 500", 16080, 100.0, 3.0e-4, 0.011, 0.86},
};
/// AR quality guarantee: coefficient l2 distance to Truth, below the
/// ~1e-4 QEM of the most accurate single approximate mode (level4).
constexpr double kArTolerance = 5e-5;

using ArBench = PaperBench<workloads::TimeSeriesDataset, apps::AutoRegression,
                           std::vector<double>>;

std::unique_ptr<Workbench> make_ar(const Options& options) {
  auto bench = std::make_unique<ArBench>(apps::ar_qcs_config());
  bench->generate_s = timed([&] {
    for (std::size_t i = 0; i < std::size(kSeriesShapes); ++i) {
      if (!options.heldout || options.seed == kDefaultSeed) {
        bench->datasets.push_back(workloads::make_series_dataset(
            workloads::all_series_datasets()[i]));
        if (options.seed != kDefaultSeed) {
          // A change of price units: the fit works on log-returns, so the
          // work is Table 2's.
          util::Rng rng(mix_seed(options.seed, 100 + i));
          const double units = std::exp(rng.uniform(-3.0, 3.0));
          for (double& v : bench->datasets.back().values) v *= units;
        }
        continue;
      }
      const SeriesShape& shape = kSeriesShapes[i];
      workloads::TimeSeriesDataset ds = workloads::make_financial_series(
          shape.length, shape.start, shape.drift, shape.volatility,
          mix_seed(options.seed, 100 + i), shape.momentum);
      ds.name = shape.name;
      ds.ar_order = 10;
      ds.max_iter = 1000;
      ds.convergence_tol = 1e-13;
      bench->datasets.push_back(std::move(ds));
    }
  });
  finish_paper_bench(
      *bench,
      [](const apps::AutoRegression& method) {
        const auto coefficients = method.coefficients();
        return std::vector<double>(coefficients.begin(), coefficients.end());
      },
      [](const apps::AutoRegression& method, const std::vector<double>& truth,
         const core::RunReport& report, std::string* detail) {
        const double l2 =
            apps::coefficient_l2_error(method.coefficients(), truth);
        char text[64];
        std::snprintf(text, sizeof(text), "l2=%.3g", l2);
        *detail = text;
        return report.converged && l2 <= kArTolerance;
      });
  return bench;
}

// --- pagerank_web ---------------------------------------------------------

constexpr std::size_t kWebNodes = 50000;
constexpr std::size_t kWebLinksPerNode = 8;
/// Fixed shard plan (results are byte-identical for any thread count).
constexpr std::size_t kSpmvShards = 4;
constexpr std::size_t kTopK = 100;
/// PageRank guarantee against the accurate run.
constexpr std::size_t kMinTopOverlap = 98;
constexpr double kMaxRankL1 = 1e-4;

/// Timed graphs are one fixed web graph; a non-default seed relabels its
/// nodes (same structure, so the same work, but every row's in-links and
/// the SpMV's memory order change). --heldout 1 generates a fresh graph.
constexpr std::uint64_t kWebSeed = 0x3EB5EEDULL;

void relabel_nodes(workloads::WebGraph& graph, std::uint64_t seed) {
  const std::size_t n = graph.nodes;
  std::vector<std::uint32_t> label(n);
  for (std::size_t i = 0; i < n; ++i) label[i] = static_cast<std::uint32_t>(i);
  util::Rng rng(seed);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(label[i - 1], label[rng.uniform_u64(i)]);
  }
  std::vector<std::vector<std::uint32_t>> out(n);
  for (std::size_t u = 0; u < n; ++u) {
    std::vector<std::uint32_t>& links = out[label[u]];
    links.reserve(graph.out_links[u].size());
    for (std::uint32_t v : graph.out_links[u]) links.push_back(label[v]);
    std::sort(links.begin(), links.end());
  }
  graph.out_links = std::move(out);
}

struct PageRankBench final : Workbench {
  workloads::WebGraph graph;
  std::unique_ptr<apps::PageRank> method;
  core::ModeCharacterization profile;
  std::vector<double> truth_ranks;
  std::vector<std::size_t> truth_top;
  std::unique_ptr<arith::QcsAlu> alu;
  core::IncrementalStrategy incremental;
};

std::unique_ptr<Workbench> make_pagerank(const Options& options) {
  auto bench = std::make_unique<PageRankBench>();
  bench->generate_s = timed([&] {
    if (options.heldout) {
      bench->graph = workloads::make_web_graph(kWebNodes, kWebLinksPerNode,
                                               mix_seed(options.seed, 200));
    } else {
      bench->graph =
          workloads::make_web_graph(kWebNodes, kWebLinksPerNode, kWebSeed);
      if (options.seed != kDefaultSeed) {
        relabel_nodes(bench->graph, mix_seed(options.seed, 200));
      }
    }
  });
  bench->build_s = timed([&] {
    apps::PageRankOptions options;
    options.spmv.shards = kSpmvShards;
    options.spmv.threads = worker_threads();
    bench->method = std::make_unique<apps::PageRank>(bench->graph, options);
    bench->alu = std::make_unique<arith::QcsAlu>(
        apps::pagerank_qcs_config(kWebNodes));
  });
  apps::PageRank& method = *bench->method;
  bench->characterize_s = timed([&] {
    bench->profile = core::characterize(method, *bench->alu);
  });
  double truth_energy = 0.0;
  bench->truth_s = timed([&] {
    truth_energy =
        run_truth(method, *bench->alu, bench->profile).total_energy;
    const auto ranks = method.ranks();
    bench->truth_ranks.assign(ranks.begin(), ranks.end());
    bench->truth_top = method.top_pages(kTopK);
  });
  const la::CsrMatrix& p = method.transition();
  // One SpMV reads each stored value and column index, the row pointers,
  // one x entry per nonzero (gathered), and writes y.
  bench->spmv_bytes =
      static_cast<double>(p.nnz()) *
          (sizeof(double) + sizeof(std::uint32_t) + sizeof(double)) +
      static_cast<double>(p.rows()) * (sizeof(std::size_t) + sizeof(double));

  Solve solve;
  solve.label = "web" + std::to_string(kWebNodes) + "/incremental";
  solve.method = &method;
  solve.strategy = &bench->incremental;
  solve.alu = bench->alu.get();
  solve.profile = &bench->profile;
  solve.truth_energy = truth_energy;
  PageRankBench* raw = bench.get();
  solve.check = [raw](const core::RunReport& report, std::string* detail) {
    const double l1 =
        apps::rank_l1_distance(raw->method->ranks(), raw->truth_ranks);
    const std::size_t overlap =
        apps::top_k_overlap(raw->method->top_pages(kTopK), raw->truth_top);
    char text[96];
    std::snprintf(text, sizeof(text), "l1=%.3g top%zu=%zu", l1, kTopK,
                  overlap);
    *detail = text;
    return report.converged && l1 <= kMaxRankL1 && overlap >= kMinTopOverlap;
  };
  bench->solves.push_back(std::move(solve));
  return bench;
}

// --- the shared pass loop -------------------------------------------------

/// What one pass measured.
struct Pass {
  bool traced = false;
  double wall_s = 0.0;                ///< Sum of the solves' session walls.
  std::vector<double> solve_wall_s;   ///< Per solve.
  LayerTimes layers;                  ///< Traced passes only.
  std::size_t iterations = 0, rollbacks = 0, reconfigurations = 0;
  std::size_t accurate_steps = 0;
  double ops = 0.0, energy = 0.0;
  double fused_chains = 0.0, fused_ops = 0.0;  ///< Traced passes only.
  double spmv_rows = 0.0, spmv_nnz = 0.0;      ///< Traced passes only.
  double energy_ratio_sum = 0.0;
};

constexpr std::size_t kSetups = 3;
constexpr std::size_t kMinPasses = 3;

using Factory = std::unique_ptr<Workbench> (*)(const Options&);

Result run_solver_workload(const Options& options, Factory factory) {
  Result result;

  // Set-up, several times; the last build is the one the passes use.
  std::vector<double> setup_s, generate_ms, build_ms, characterize_ms,
      truth_ms;
  std::unique_ptr<Workbench> bench;
  for (std::size_t r = 0; r < kSetups; ++r) {
    bench.reset();
    const double t0 = wall_s();
    bench = factory(options);
    setup_s.push_back(wall_s() - t0);
    generate_ms.push_back(1e3 * bench->generate_s);
    build_ms.push_back(1e3 * bench->build_s);
    characterize_ms.push_back(1e3 * bench->characterize_s);
    truth_ms.push_back(1e3 * bench->truth_s);
  }

  const std::size_t n = bench->solves.size();
  std::vector<std::string> reference_json(n);
  std::vector<std::vector<double>> reference_state(n);
  std::vector<std::size_t> misses(n, 0);
  std::vector<Pass> passes;
  std::size_t untraced = 0, traced = 0;
  const double start = wall_s();
  for (std::size_t p = 0;; ++p) {
    const bool enough_time = wall_s() - start >= options.seconds;
    const bool enough_passes =
        untraced >= kMinPasses && (!options.trace || traced >= kMinPasses);
    if (enough_time && enough_passes) break;

    Pass pass;
    pass.traced = options.trace && p % 2 == 1;
    for (std::size_t i = 0; i < n; ++i) {
      const Solve& solve = bench->solves[i];
      LayerTimes layers;
      obs::MetricsRegistry registry;
      TimedMethod timed_method(*solve.method, layers);
      TimedStrategy timed_strategy(*solve.strategy, layers);
      core::SessionBuilder builder;
      builder.alu(*solve.alu).characterization(*solve.profile);
      if (pass.traced) {
        builder.method(timed_method)
            .strategy(timed_strategy)
            .metrics(&registry);
      } else {
        builder.method(*solve.method).strategy(*solve.strategy);
      }
      const double t0 = wall_s();
      const core::RunReport report = builder.run();
      const double wall = wall_s() - t0;

      pass.solve_wall_s.push_back(wall);
      pass.wall_s += wall;
      pass.iterations += report.iterations;
      pass.rollbacks += report.rollbacks;
      pass.reconfigurations += report.reconfigurations;
      pass.accurate_steps += report.steps(arith::ApproxMode::kAccurate);
      pass.ops += static_cast<double>(solve.alu->ledger().total_ops());
      pass.energy += solve.alu->ledger().total_energy();
      pass.energy_ratio_sum += report.total_energy / solve.truth_energy;
      if (pass.traced) {
        pass.layers.add(layers);
        const auto counters = registry.counter_values();
        const auto value = [&](const char* name) {
          const auto it = counters.find(name);
          return it == counters.end() ? 0.0 : it->second;
        };
        pass.fused_chains += value("alu.fused.chains");
        pass.fused_ops += value("alu.fused.ops");
        pass.spmv_rows += value("alu.sparse.rows");
        pass.spmv_nnz += value("alu.sparse.nnz");
      }

      ++result.attempted;
      std::string detail;
      if (!solve.check(report, &detail)) {
        ++result.failed;
        if (misses[i]++ == 0) {
          result.problems.push_back(
              solve.label + ": quality guarantee missed (" + detail +
              ", status " + std::string(core::run_status_name(report.status)) +
              ")");
        }
      }
      // Every pass must reproduce the first one bit for bit, traced or not.
      const std::string json = core::report_to_json(report);
      if (reference_json[i].empty()) {
        reference_json[i] = json;
        reference_state[i] = report.final_state;
      } else if ((json != reference_json[i] ||
                  report.final_state != reference_state[i]) &&
                 !result.identity_broken) {
        result.identity_broken = true;
        result.problems.push_back(solve.label +
                                  (pass.traced ? ": traced report differs"
                                               : ": report not reproducible"));
      }
    }
    (pass.traced ? traced : untraced) += 1;
    passes.push_back(std::move(pass));
  }

  // --- end-to-end (untraced passes) ---
  // Other tenants of a shared host slow whole stretches of a run by up to
  // 1.7x; only the fastest observation of a solve is free of them. So a
  // pass is reported as the sum of each solve's fastest untraced wall.
  std::vector<double> best(n, 0.0), best_traced(n, 0.0);
  std::vector<double> pass_wall;
  double energy_ratio = 0.0;
  for (const Pass& pass : passes) {
    std::vector<double>& b = pass.traced ? best_traced : best;
    for (std::size_t i = 0; i < n; ++i) {
      if (b[i] == 0.0 || pass.solve_wall_s[i] < b[i]) {
        b[i] = pass.solve_wall_s[i];
      }
    }
    if (!pass.traced) pass_wall.push_back(pass.wall_s);
    energy_ratio = pass.energy_ratio_sum / static_cast<double>(n);
  }
  double solve_s = 0.0, traced_s = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    solve_s += best[i];
    traced_s += best_traced[i];
  }
  std::vector<double> best_ms;
  for (double wall : best) best_ms.push_back(1e3 * wall);
  const std::string per_solve =
      "fastest of " + std::to_string(pass_wall.size()) + " untraced passes";
  result.end_to_end = {
      {"setup_s", median(setup_s), "s", kSetups,
       "median of set-ups: inputs, build, characterize, Truth"},
      {"solve_s", solve_s, "s", pass_wall.size(),
       std::to_string(n) + " solves, each the " + per_solve +
           " (median pass " + std::to_string(median(pass_wall)) + " s)"},
      {"energy_ratio", energy_ratio, "ratio", n,
       "ledger energy / Truth energy, mean over the solve set"},
      {"jobs_per_s", static_cast<double>(n) / solve_s, "1/s", n,
       "solves per second over the solve set"},
      {"job_ms_p50", percentile(best_ms, 50.0), "ms", n,
       "over the solve set; each solve the " + per_solve},
      {"job_ms_p90", percentile(best_ms, 90.0), "ms", n,
       "over the solve set; each solve the " + per_solve},
  };

  if (!options.trace) return result;

  // --- per-layer: the fastest traced pass, so its layers add up ---
  const Pass* fast = nullptr;
  for (const Pass& pass : passes) {
    if (pass.traced && (fast == nullptr || pass.wall_s < fast->wall_s)) {
      fast = &pass;
    }
  }
  const LayerTimes& l = fast->layers;
  const std::size_t t = traced;
  const std::string traced_note =
      "fastest of " + std::to_string(t) + " traced passes";
  const double overhead = 100.0 * (traced_s - solve_s) / solve_s;
  const double spmvs =
      fast->spmv_rows /
      static_cast<double>(bench->solves[0].method->dimension());
  const double per =
      1.0 / static_cast<double>(std::max<std::size_t>(l.iterate_calls, 1));
  result.per_layer = {
      {"workloads.generate_ms", median(generate_ms), "ms", kSetups,
       "per set-up"},
      {"apps.build_ms", median(build_ms), "ms", kSetups, "per set-up"},
      {"core.characterize_ms", median(characterize_ms), "ms", kSetups,
       "per set-up"},
      {"core.truth_ms", median(truth_ms), "ms", kSetups, "per set-up"},
      {"apps.iterate_ms", 1e3 * l.iterate_s, "ms", t, traced_note},
      {"apps.iterate_us_per_iter", 1e6 * l.iterate_s * per, "us",
       l.iterate_calls, traced_note},
      {"apps.iterate_cpu_util",
       l.iterate_s > 0 ? l.iterate_cpu_s / l.iterate_s : 0.0, "ratio", t,
       "process CPU / wall inside iterate"},
      {"apps.snapshot_ms", 1e3 * l.snapshot_s, "ms", t, "state + restore"},
      {"core.strategy_ms", 1e3 * l.strategy_s, "ms", t, "reset + observe"},
      {"core.session_self_ms",
       1e3 * (fast->wall_s - l.iterate_s - l.snapshot_s - l.strategy_s), "ms",
       t, "solve wall minus apps.* and core.strategy_ms"},
      {"core.iterations", static_cast<double>(fast->iterations), "count", 1,
       "per pass"},
      {"core.rollbacks", static_cast<double>(fast->rollbacks), "count", 1,
       "per pass"},
      {"core.reconfigurations", static_cast<double>(fast->reconfigurations),
       "count", 1, "per pass"},
      {"core.accurate_share",
       static_cast<double>(fast->accurate_steps) /
           static_cast<double>(std::max<std::size_t>(fast->iterations, 1)),
       "ratio", 1, "accurate-mode steps / iterations"},
      {"arith.ops", fast->ops, "count", 1, "ledger ops per pass"},
      {"arith.energy", fast->energy, "units", 1, "ledger energy per pass"},
      {"arith.fused_chains", fast->fused_chains, "count", 1, "per pass"},
      {"arith.fused_ops", fast->fused_ops, "count", 1, "per pass"},
      {"arith.ops_per_chain",
       fast->fused_chains > 0 ? fast->fused_ops / fast->fused_chains : 0.0,
       "count", 1, "fused ops / fused chains"},
      {"arith.ns_per_op", fast->ops > 0 ? 1e9 * l.iterate_s / fast->ops : 0.0,
       "ns", t, "upper bound: iterate time (exact FP included) / ledger ops"},
      {"la.spmv_nnz", fast->spmv_nnz, "count", 1, "per pass"},
      {"la.spmv_rows", fast->spmv_rows, "count", 1, "per pass"},
      {"la.nnz_per_s", l.iterate_s > 0 ? fast->spmv_nnz / l.iterate_s : 0.0,
       "1/s", t, "SpMV nnz / iterate time (lower bound on SpMV rate)"},
      {"la.bytes_computed", spmvs * bench->spmv_bytes, "B", 1,
       "computed from array sizes, not measured"},
      {"obs.trace_overhead_pct", overhead, "%", t,
       "traced vs untraced solve_s, fastest passes"},
  };
  return result;
}

}  // namespace

Result run_gmm_paper(const Options& options) {
  return run_solver_workload(options, make_gmm);
}

Result run_ar_paper(const Options& options) {
  return run_solver_workload(options, make_ar);
}

Result run_pagerank_web(const Options& options) {
  return run_solver_workload(options, make_pagerank);
}

}  // namespace perfbench
