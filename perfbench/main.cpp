// perfbench: the repository benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--heldout 0|1]
//
// Runs one workload, prints every metric by name with its unit and sample
// count, then, as the last stdout line, one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Exit codes: 0 ok, 1 a bit-identity contract broke, 2 usage error,
// 3 the build is unoptimized or sanitized (timings refused).
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>
#include <thread>

#include "arith/simd_kernels.h"
#include "harness.h"

namespace perfbench {

std::size_t worker_threads() {
  const unsigned cores = std::thread::hardware_concurrency();
  return cores == 0 ? 1 : std::min<std::size_t>(cores, 4);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    defined(PERFBENCH_SANITIZED)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#if defined(__OPTIMIZE__)
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

struct Canonical {
  const char* name;
  const char* unit;
};

/// Every metric of BENCHMARK.json, in its order. Each workload reports the
/// ones that apply to it; the rest are printed as n/a and emitted as 0 so
/// every run carries the full set.
constexpr Canonical kEndToEnd[] = {
    {"setup_s", "s"},          {"solve_s", "s"},
    {"energy_ratio", "ratio"}, {"pass_share", "ratio"},
    {"jobs_per_s", "1/s"},     {"job_ms_p50", "ms"},
    {"job_ms_p90", "ms"},      {"peak_rss_mb", "MB"},
};
constexpr Canonical kPerLayer[] = {
    {"workloads.generate_ms", "ms"},
    {"apps.build_ms", "ms"},
    {"apps.iterate_ms", "ms"},
    {"apps.iterate_us_per_iter", "us"},
    {"apps.iterate_cpu_util", "ratio"},
    {"apps.snapshot_ms", "ms"},
    {"core.characterize_ms", "ms"},
    {"core.truth_ms", "ms"},
    {"core.strategy_ms", "ms"},
    {"core.session_self_ms", "ms"},
    {"core.iterations", "count"},
    {"core.rollbacks", "count"},
    {"core.reconfigurations", "count"},
    {"core.accurate_share", "ratio"},
    {"arith.ops", "count"},
    {"arith.energy", "units"},
    {"arith.fused_chains", "count"},
    {"arith.fused_ops", "count"},
    {"arith.ops_per_chain", "count"},
    {"arith.ns_per_op", "ns"},
    {"la.spmv_nnz", "count"},
    {"la.spmv_rows", "count"},
    {"la.nnz_per_s", "1/s"},
    {"la.bytes_computed", "B"},
    {"svc.queue_ms_p50", "ms"},
    {"svc.queue_ms_p90", "ms"},
    {"svc.run_ms_p50", "ms"},
    {"svc.run_ms_p90", "ms"},
    {"svc.characterization_ms", "ms"},
    {"svc.cache_hit_share", "ratio"},
    {"svc.rejected", "count"},
    {"svc.retries", "count"},
    {"net.ack_ms_p50", "ms"},
    {"net.overhead_ms_p50", "ms"},
    {"net.bytes_per_job", "B"},
    {"obs.trace_overhead_pct", "%"},
};

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload gmm_paper|ar_paper|pagerank_web|"
               "serve_distinct --seed N --seconds S --trace 0|1 "
               "[--heldout 0|1]\n");
}

/// Prints `metrics` against the canonical list and returns the JSON
/// "metrics" object. Fails loudly on a metric missing from the list, a
/// unit mismatch, or a non-finite value.
std::string report(const char* title, const std::vector<Metric>& measured,
                   const Canonical* canonical, std::size_t count, bool* ok) {
  std::map<std::string, const Metric*> by_name;
  for (const Metric& metric : measured) by_name[metric.name] = &metric;
  std::printf("%s\n", title);
  std::string json = "{";
  for (std::size_t i = 0; i < count; ++i) {
    const Canonical& c = canonical[i];
    const auto it = by_name.find(c.name);
    double value = 0.0;
    if (it == by_name.end()) {
      std::printf("  %-26s n/a (no such layer on this workload)\n", c.name);
    } else {
      const Metric& m = *it->second;
      value = m.value;
      std::printf("  %-26s %.6g %s  [n=%zu%s%s]\n", c.name, value, c.unit,
                  m.samples, m.note.empty() ? "" : "; ", m.note.c_str());
      if (m.unit != c.unit || !std::isfinite(value)) {
        std::fprintf(stderr, "perfbench: bad metric %s (%g %s)\n", c.name,
                     value, m.unit.c_str());
        *ok = false;
        value = 0.0;
      }
      by_name.erase(it);
    }
    char number[64];
    std::snprintf(number, sizeof(number), "%.17g", value);
    json += std::string(i == 0 ? "" : ", ") + "\"" + c.name +
            "\": {\"value\": " + number + ", \"unit\": \"" + c.unit + "\"}";
  }
  for (const auto& [name, metric] : by_name) {
    std::fprintf(stderr, "perfbench: metric %s is not in the canonical list\n",
                 name.c_str());
    *ok = false;
  }
  return json + "}";
}

int run(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--heldout") {
      options.heldout = value == "1";
    } else {
      usage();
      return 2;
    }
  }
  if (!have_workload || argc % 2 == 0 || !(options.seconds > 0.0)) {
    usage();
    return 2;
  }

  const char* tier = approxit::arith::simd::tier_name(
      approxit::arith::simd::active_tier());
  std::printf(
      "perfbench: workload=%s seed=%llu seconds=%g trace=%d | nproc=%u "
      "workers=%zu simd=%s compiler=\"%s\" build=%s optimized=%d "
      "sanitized=%d\n",
      options.workload.c_str(), static_cast<unsigned long long>(options.seed),
      options.seconds, options.trace ? 1 : 0,
      std::thread::hardware_concurrency(), worker_threads(), tier, __VERSION__,
      PERFBENCH_BUILD_TYPE, kOptimized ? 1 : 0, kSanitized ? 1 : 0);
  if (!kOptimized || kSanitized) {
    std::fprintf(stderr,
                 "perfbench: refusing to time an unoptimized or sanitized "
                 "build\n");
    return 3;
  }

  Result result;
  if (options.workload == "gmm_paper") {
    result = run_gmm_paper(options);
  } else if (options.workload == "ar_paper") {
    result = run_ar_paper(options);
  } else if (options.workload == "pagerank_web") {
    result = run_pagerank_web(options);
  } else if (options.workload == "serve_distinct") {
    result = run_serve_distinct(options);
  } else {
    usage();
    return 2;
  }

  const double attempted =
      static_cast<double>(std::max<std::size_t>(result.attempted, 1));
  result.end_to_end.push_back(
      {"pass_share", 1.0 - static_cast<double>(result.failed) / attempted,
       "ratio", result.attempted, "1 - fail_share"});
  result.end_to_end.push_back(
      {"peak_rss_mb", peak_rss_mb(), "MB", 1, "getrusage ru_maxrss"});

  for (const std::string& problem : result.problems) {
    std::printf("problem: %s\n", problem.c_str());
  }
  std::printf("attempted=%zu failed=%zu fail_share=%.6g identity=%s\n",
              result.attempted, result.failed,
              static_cast<double>(result.failed) / attempted,
              result.identity_broken ? "BROKEN" : "ok");

  bool ok = true;
  const std::string e2e = report("end-to-end:", result.end_to_end, kEndToEnd,
                                 std::size(kEndToEnd), &ok);
  std::string layers;
  if (options.trace) {
    layers = report("per-layer:", result.per_layer, kPerLayer,
                    std::size(kPerLayer), &ok);
  }
  if (!ok || result.identity_broken) {
    std::fprintf(stderr, "perfbench: %s\n",
                 result.identity_broken ? "bit-identity contract broken"
                                        : "malformed metrics");
    return 1;
  }
  const bool correct = result.failed == 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": "
      "%s}\n",
      correct ? "true" : "false", result.attempted, result.failed,
      options.trace ? layers.c_str() : e2e.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
}
