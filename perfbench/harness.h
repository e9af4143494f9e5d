// Shared plumbing of the perfbench program: wall/CPU clocks, the metric
// list a workload fills in, and the per-run options.
#pragma once

#include <time.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "util/stats.h"

namespace perfbench {

/// Monotonic wall clock in seconds.
inline double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time of the whole process (every thread) in seconds.
inline double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

inline double median(std::vector<double> values) {
  return values.empty() ? 0.0 : approxit::util::percentile(values, 50.0);
}

inline double percentile(std::vector<double> values, double p) {
  return values.empty() ? 0.0 : approxit::util::percentile(values, p);
}

/// One reported number. `samples` is how many observations stand behind
/// it (a percentile's population, a median's run count); `note` says how
/// it was obtained when that is not obvious from the name.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 1;
  std::string note;
};

/// What one workload run hands back to main().
struct Result {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::size_t attempted = 0;  ///< Solves or jobs attempted.
  std::size_t failed = 0;     ///< Of those, failed (see README).
  /// A bit-identity contract broke (determinism across passes, traced
  /// against untraced, wire against in-process, served against solo).
  bool identity_broken = false;
  std::vector<std::string> problems;  ///< Human-readable failure notes.
};

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Solver workloads: draw fresh inputs from the seeded generators
  /// instead of reordering the fixed inputs (README: "held-out inputs").
  bool heldout = false;
};

/// Default seed: the fixed inputs as generated (Table 2 where a workload
/// has them). Other seeds vary them without changing the work, or, with
/// --heldout 1, draw fresh inputs of the same shape.
inline constexpr std::uint64_t kDefaultSeed = 0;

/// Workers and SpMV threads: the machine's cores, capped at four.
std::size_t worker_threads();

/// Peak resident set of this process in MiB.
double peak_rss_mb();

Result run_gmm_paper(const Options& options);
Result run_ar_paper(const Options& options);
Result run_pagerank_web(const Options& options);
Result run_serve_distinct(const Options& options);

}  // namespace perfbench
