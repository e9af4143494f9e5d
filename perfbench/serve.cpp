// serve_distinct: a closed loop of unix-socket clients against an
// in-process NetServer over one ServiceRuntime.
//
// Each connection has its own client thread and keeps exactly one job in
// flight: submit with a stream subscription, drain to the terminal event,
// submit the next. Every job's (app, dataset, strategy, max_iterations,
// characterization_iterations) tuple is distinct and drawn from the seed,
// so request dedup cannot inflate throughput. The runtime starts with a
// cold, memory-only profile cache; a fixed share of jobs carries a
// characterization budget no earlier job used, so they miss the cache.
#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <unistd.h>
#include <vector>

#include "harness.h"
#include "net/server.h"
#include "net/socket.h"
#include "obs/metrics.h"
#include "svc/client.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace approxit;

constexpr const char* kApps[][4] = {
    {"gmm", "3cluster", "3d3cluster", "4cluster"},
    {"ar", "hangseng", "nasdaq", "sp500"},
};
constexpr const char* kStrategies[] = {"incremental", "adaptive", "accurate",
                                       "level1",      "level2",   "level3",
                                       "level4"};
/// (app, dataset, strategy) combinations: 21 GMM, then 21 AR.
constexpr std::size_t kCombos = 2 * 3 * std::size(kStrategies);
/// One block holds every GMM combination twice and every AR combination
/// once, in a seeded order, so any run of whole blocks has the same mix.
/// GMM jobs are several times shorter than AR jobs; at 2:1 the median job
/// lies inside the GMM group and p90 inside the AR group, not in the gap
/// between them, where a small shift in the mix would move it far.
constexpr std::size_t kBlock = kCombos + kCombos / 2;
/// Jobs per block that draw a never-used characterization budget (a
/// profile-cache miss); the rest draw from kWarmCharIterations.
constexpr std::size_t kMissesPerBlock = 8;
constexpr std::size_t kWarmCharIterations[] = {8, 12};
/// Fresh budgets are drawn from [kMinFreshChar, kMinFreshChar + 12],
/// which holds 11 values besides the two warm ones.
constexpr std::size_t kMinFreshChar = 4, kFreshCharIterations = 11;
/// Iteration budgets: short ones stop every GMM and AR job early, long
/// ones stop some (Truth needs 68-258 GMM and 88-475 AR iterations).
constexpr std::size_t kBudgets[] = {40, 110};
constexpr std::size_t kBudgetJitter = 20;
/// Jobs per replay: two whole blocks, 13 samples beyond p90.
constexpr std::size_t kReplayJobs = 2 * kBlock;
constexpr std::size_t kSetupsPerReplay = 5;
constexpr std::size_t kMinReplays = 3;
constexpr std::size_t kSoloChecks = 3;

std::vector<svc::JobSpec> make_jobs(std::uint64_t seed) {
  util::Rng rng(seed ^ 0x5E7E5E7EULL);
  std::set<std::tuple<std::string, std::string, std::string, std::size_t,
                      std::size_t>>
      seen;
  // Characterization budgets already used per (app, dataset).
  std::set<std::tuple<std::string, std::string, std::size_t>> used_char;
  std::size_t fresh_used[6] = {};  // Per (app, dataset).
  std::size_t occurrences[kCombos] = {};
  std::vector<svc::JobSpec> jobs;
  while (jobs.size() < kReplayJobs) {
    std::vector<std::size_t> block(kBlock);
    for (std::size_t i = 0; i < kBlock; ++i) block[i] = i % kCombos;
    for (std::size_t i = kBlock; i > 1; --i) {
      std::swap(block[i - 1], block[rng.uniform_u64(i)]);
    }
    for (std::size_t pos = 0; pos < kBlock && jobs.size() < kReplayJobs;
         ++pos) {
      const std::size_t combo = block[pos];
      svc::JobSpec spec;
      spec.tenant = "bench";
      const std::size_t pair = combo / std::size(kStrategies);  // app, dataset
      spec.app = kApps[pair / 3][0];
      spec.dataset = kApps[pair / 3][1 + pair % 3];
      spec.strategy = kStrategies[combo % std::size(kStrategies)];
      // A pair that has used up its fresh budgets serves a warm job instead.
      const bool miss = pos < kMissesPerBlock &&
                        fresh_used[pair] < kFreshCharIterations;
      // Occurrences of a combination alternate between a short and a long
      // budget, jittered so tuples stay distinct: every replay holds the
      // same spread of budgets whatever the seed.
      const std::size_t base = kBudgets[occurrences[combo]++ % 2];
      for (;;) {
        spec.max_iterations = base + rng.uniform_u64(kBudgetJitter);
        if (miss) {
          spec.characterization_iterations =
              kMinFreshChar + rng.uniform_u64(kFreshCharIterations + 2);
        } else {
          spec.characterization_iterations =
              kWarmCharIterations[rng.uniform_u64(
                  std::size(kWarmCharIterations))];
        }
        const bool fresh_char =
            std::find(std::begin(kWarmCharIterations),
                      std::end(kWarmCharIterations),
                      spec.characterization_iterations) ==
                std::end(kWarmCharIterations) &&
            !used_char.count({spec.app, spec.dataset,
                              spec.characterization_iterations});
        if (miss && !fresh_char) continue;
        if (seen.insert({spec.app, spec.dataset, spec.strategy,
                         spec.max_iterations,
                         spec.characterization_iterations})
                .second) {
          break;
        }
      }
      if (miss) ++fresh_used[pair];
      used_char.insert(
          {spec.app, spec.dataset, spec.characterization_iterations});
      jobs.push_back(spec);
    }
  }
  return jobs;
}

svc::ServiceConfig service_config(std::size_t workers) {
  svc::ServiceConfig config;
  config.threads = workers;
  config.cache.directory = "";  // Memory-only: every run starts cold.
  return config;
}

/// One serving stack: runtime, socket server on its loop thread, and one
/// connected client per connection.
class Stack {
 public:
  Stack(std::size_t workers, std::size_t connections, const std::string& path)
      : path_(path), service_(service_config(workers)) {
    unlink(path_.c_str());
    net::NetServerConfig config;
    config.address = "unix:" + path_;
    server_ = std::make_unique<net::NetServer>(service_, config);
    std::string error;
    if (!server_->start(&error)) {
      throw std::runtime_error("serve_distinct: server start: " + error);
    }
    loop_ = std::thread([this] { server_->run(); });
    for (std::size_t i = 0; i < connections; ++i) {
      auto client = net::connect_client(server_->listen_address(), &error);
      // A hello round trip proves the connection is served end to end.
      if (client == nullptr ||
          !client->round_trip_raw("{\"op\":\"hello\",\"proto\":2}")) {
        stop();
        throw std::runtime_error("serve_distinct: connect: " + error);
      }
      clients_.push_back(std::move(client));
    }
  }

  ~Stack() { stop(); }
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  svc::InProcessClient& service() { return service_; }
  net::NetServer& server() { return *server_; }
  svc::LineClient& client(std::size_t i) { return *clients_[i]; }

 private:
  void stop() {
    clients_.clear();
    if (loop_.joinable()) {
      server_->stop();
      loop_.join();
    }
    unlink(path_.c_str());
  }

  std::string path_;
  svc::InProcessClient service_;
  std::unique_ptr<net::NetServer> server_;
  std::thread loop_;
  std::vector<std::unique_ptr<svc::LineClient>> clients_;
};

/// One job as the client saw it.
struct Sample {
  std::size_t index = 0;  ///< Position in the job list.
  bool admitted = false;
  double submit_s = 0.0, ack_s = 0.0, done_s = 0.0;
  std::optional<svc::JobStatus> status;  ///< Terminal status from the wire.
};

/// What one replay of the job list measured.
struct Loop {
  bool traced = false;
  std::vector<Sample> samples;  ///< In job-list order.
  double wall_s = 0.0;
  double net_bytes = 0.0;
  svc::ServiceStats stats;
  double energy_ratio = 0.0;  ///< Runtime estimate, mean over jobs.
  std::size_t failed = 0;
  std::vector<std::string> problems;
  bool identity_broken = false;
};

/// Replays the whole job list through the stack's connections: each
/// client thread takes the next job, submits it with a stream
/// subscription, drains to the terminal event, and repeats.
Loop run_loop(Stack& stack, const std::vector<svc::JobSpec>& jobs,
              std::size_t connections) {
  Loop loop;
  loop.samples.resize(jobs.size());
  std::atomic<std::size_t> next{0};
  const double start = wall_s();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      svc::LineClient& client = stack.client(c);
      for (std::size_t j = next.fetch_add(1); j < jobs.size();
           j = next.fetch_add(1)) {
        Sample& sample = loop.samples[j];
        sample.index = j;
        sample.submit_s = wall_s();
        std::string error;
        const auto stream = client.submit_stream(jobs[j], &error);
        sample.ack_s = wall_s();
        if (stream == nullptr) continue;
        sample.admitted = true;
        std::optional<svc::StreamEvent> last;
        while (const auto event = stream->next()) last = *event;
        sample.done_s = wall_s();
        if (last && last->terminal()) sample.status = last->status;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  loop.wall_s = wall_s() - start;

  const auto net = stack.server().metrics().counter_values();
  for (const char* name : {"net.bytes.in", "net.bytes.out"}) {
    const auto it = net.find(name);
    if (it != net.end()) loop.net_bytes += it->second;
  }
  loop.stats = stack.service().runtime().stats();
  obs::MetricsRegistry merged;
  stack.service().runtime().collect_metrics(merged);
  double ratio_sum = 0.0, job_count = 0.0;
  for (const auto& [name, value] : merged.counter_values()) {
    if (name.rfind("svc.tenant.energy_ratio{", 0) == 0) ratio_sum += value;
    if (name.rfind("svc.tenant.jobs{", 0) == 0) job_count += value;
  }
  loop.energy_ratio = job_count > 0 ? ratio_sum / job_count : 0.0;

  // Every terminal wire report must equal the runtime's in-process copy.
  for (const Sample& sample : loop.samples) {
    const std::string label = "job " + std::to_string(sample.index);
    if (!sample.admitted || !sample.status) {
      ++loop.failed;
      loop.problems.push_back(label + ": rejected or no terminal event");
      continue;
    }
    const svc::JobStatus& status = *sample.status;
    if (status.state != svc::JobState::kDone) {
      ++loop.failed;
      loop.problems.push_back(label + ": ended " +
                              std::string(svc::job_state_name(status.state)) +
                              " " + status.error);
      continue;
    }
    const auto local = stack.service().snapshot(status.id);
    if (!local || local->report_json != status.report_json ||
        status.report_json.empty()) {
      ++loop.failed;
      loop.identity_broken = true;
      loop.problems.push_back(label + ": wire report differs from runtime");
    }
  }
  return loop;
}

/// Re-runs a seeded sample of finished jobs alone on a fresh one-worker
/// runtime; each report must match the served one byte for byte.
void check_solo(const Loop& loop, const std::vector<svc::JobSpec>& jobs,
                std::uint64_t seed, Result& result) {
  std::vector<const Sample*> done;
  for (const Sample& sample : loop.samples) {
    if (sample.status && sample.status->state == svc::JobState::kDone) {
      done.push_back(&sample);
    }
  }
  util::Rng rng(seed ^ 0x501050ULL);
  for (std::size_t k = 0; k < kSoloChecks && !done.empty(); ++k) {
    const Sample& sample = *done[rng.uniform_u64(done.size())];
    ++result.attempted;
    svc::InProcessClient solo(service_config(1));
    std::string error;
    const auto id = solo.submit(jobs[sample.index], &error);
    const auto status = id ? solo.result(*id) : std::nullopt;
    if (!status || status->report_json != sample.status->report_json) {
      ++result.failed;
      result.identity_broken = true;
      result.problems.push_back("job " + std::to_string(sample.index) +
                                ": solo re-run differs from served report");
    }
  }
}

/// Per-job figures pooled over replays.
struct LoopFigures {
  std::vector<double> job_ms, queue_ms, run_ms, ack_ms, overhead_ms,
      characterization_ms, miss_characterization_ms;
  std::size_t done = 0, hits = 0;
};

LoopFigures figures(const std::vector<const Loop*>& loops) {
  LoopFigures f;
  for (const Loop* loop : loops) {
  for (const Sample& sample : loop->samples) {
    if (!sample.status || sample.status->state != svc::JobState::kDone) {
      continue;
    }
    const svc::JobStatus& status = *sample.status;
    ++f.done;
    const double job_ms = 1e3 * (sample.done_s - sample.submit_s);
    f.job_ms.push_back(job_ms);
    f.queue_ms.push_back(status.queue_ms);
    f.run_ms.push_back(status.run_ms);
    f.ack_ms.push_back(1e3 * (sample.ack_s - sample.submit_s));
    f.overhead_ms.push_back(job_ms - status.queue_ms - status.run_ms);
    f.characterization_ms.push_back(status.characterization_ms);
    if (status.cache_hit) {
      ++f.hits;
    } else {
      f.miss_characterization_ms.push_back(status.characterization_ms);
    }
  }
  }
  return f;
}

double mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

}  // namespace

Result run_serve_distinct(const Options& options) {
  Result result;
  const std::size_t workers = worker_threads();
  const std::size_t connections = workers;
  const std::vector<svc::JobSpec> jobs = make_jobs(options.seed);
  // Relative to the checkout root; short enough for sun_path anywhere.
  std::filesystem::create_directories(".bench_build");
  const std::string path =
      ".bench_build/serve-" + std::to_string(getpid()) + ".sock";

  // Replays on fresh stacks (cold cache each time) until the time is
  // spent; with --trace 1 traced replays alternate with untraced ones.
  // Before each replay the stack is set up kSetupsPerReplay times (runtime
  // start, server start, connect + hello) and the last one serves: set-up
  // takes a fraction of a millisecond, so its samples are spread over the
  // whole run rather than taken in one burst a host hiccup could cover.
  std::vector<double> setup_s;
  std::vector<Loop> loops;
  std::size_t untraced = 0, traced = 0;
  const double start = wall_s();
  for (std::size_t r = 0;; ++r) {
    const bool enough_time = wall_s() - start >= options.seconds;
    const bool enough_replays =
        untraced >= kMinReplays && (!options.trace || traced >= kMinReplays);
    if (enough_time && enough_replays) break;
    std::unique_ptr<Stack> stack;
    for (std::size_t k = 0; k < kSetupsPerReplay; ++k) {
      stack.reset();
      const double t0 = wall_s();
      stack = std::make_unique<Stack>(workers, connections, path);
      setup_s.push_back(wall_s() - t0);
    }
    Loop loop = run_loop(*stack, jobs, connections);
    loop.traced = options.trace && r % 2 == 1;
    (loop.traced ? traced : untraced) += 1;
    result.attempted += loop.samples.size();
    result.failed += loop.failed;
    result.identity_broken = result.identity_broken || loop.identity_broken;
    result.problems.insert(result.problems.end(), loop.problems.begin(),
                           loop.problems.end());
    // Every replay must serve the first replay's reports byte for byte.
    for (std::size_t j = 0; j < jobs.size() && !loops.empty(); ++j) {
      const auto& a = loops.front().samples[j].status;
      const auto& b = loop.samples[j].status;
      if (a && b && a->report_json != b->report_json) {
        result.identity_broken = true;
        result.problems.push_back("job " + std::to_string(j) +
                                  (loop.traced ? ": traced report differs"
                                               : ": replay report differs"));
        break;
      }
    }
    loops.push_back(std::move(loop));
  }
  check_solo(loops.front(), jobs, options.seed, result);

  // Other tenants of a shared host slow whole stretches of a run; only
  // the fastest observation is free of them. Each job is reported at its
  // fastest untraced replay, and throughput at the fastest replay.
  std::vector<double> best_ms(jobs.size(), 0.0), best_run_ms(jobs.size(), 0.0);
  double best_wall = 0.0, best_traced_wall = 0.0;
  std::vector<const Loop*> plain, traced_loops;
  for (const Loop& loop : loops) {
    double& wall = loop.traced ? best_traced_wall : best_wall;
    if (wall == 0.0 || loop.wall_s < wall) wall = loop.wall_s;
    (loop.traced ? traced_loops : plain).push_back(&loop);
    if (loop.traced) continue;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      const Sample& sample = loop.samples[j];
      if (!sample.status) continue;
      const double ms = 1e3 * (sample.done_s - sample.submit_s);
      if (best_ms[j] == 0.0 || ms < best_ms[j]) best_ms[j] = ms;
      if (best_run_ms[j] == 0.0 || sample.status->run_ms < best_run_ms[j]) {
        best_run_ms[j] = sample.status->run_ms;
      }
    }
  }
  const std::size_t m = jobs.size();
  const std::string per_job = std::to_string(m) +
                              " jobs, each the fastest of " +
                              std::to_string(plain.size()) + " replays";
  result.end_to_end = {
      {"setup_s", median(setup_s), "s", setup_s.size(),
       "median of set-ups: runtime + server start, connect + hello"},
      {"solve_s", 1e-3 * median(best_run_ms), "s", m,
       "median in-runtime run time (scheduled to terminal); " + per_job},
      {"energy_ratio", loops.front().energy_ratio, "ratio", m,
       "runtime estimate vs all-accurate, mean over jobs"},
      {"jobs_per_s", static_cast<double>(m) / best_wall, "1/s", plain.size(),
       std::to_string(connections) + " connections, " +
           std::to_string(workers) + " workers; fastest replay"},
      {"job_ms_p50", percentile(best_ms, 50.0), "ms", m, per_job},
      {"job_ms_p90", percentile(best_ms, 90.0), "ms", m,
       per_job + "; " + std::to_string(m - m * 9 / 10) + " beyond p90"},
  };
  if (!options.trace) return result;

  // Per-layer figures pool every traced replay's jobs.
  const LoopFigures t = figures(traced_loops);
  const Loop& last = *traced_loops.back();
  const std::string n = std::to_string(t.done) + " jobs over " +
                        std::to_string(traced_loops.size()) + " traced replays";
  const double jobs_done = static_cast<double>(m);
  result.per_layer = {
      {"core.characterize_ms", median(t.miss_characterization_ms), "ms",
       t.miss_characterization_ms.size(), "median over cache-miss jobs"},
      {"svc.queue_ms_p50", percentile(t.queue_ms, 50.0), "ms", t.done, n},
      {"svc.queue_ms_p90", percentile(t.queue_ms, 90.0), "ms", t.done, n},
      {"svc.run_ms_p50", percentile(t.run_ms, 50.0), "ms", t.done, n},
      {"svc.run_ms_p90", percentile(t.run_ms, 90.0), "ms", t.done, n},
      {"svc.characterization_ms", mean(t.characterization_ms), "ms", t.done,
       "characterization per job, hits count 0"},
      {"svc.cache_hit_share",
       static_cast<double>(t.hits) /
           static_cast<double>(std::max<std::size_t>(t.done, 1)),
       "ratio", t.done, n},
      {"svc.rejected",
       static_cast<double>(last.stats.rejected_queue_full +
                           last.stats.rejected_tenant_cap +
                           last.stats.rejected_bad_request +
                           last.stats.rejected_rate_limited + last.stats.shed),
       "count", 1, "per replay"},
      {"svc.retries", static_cast<double>(last.stats.retries), "count", 1,
       "per replay"},
      {"net.ack_ms_p50", percentile(t.ack_ms, 50.0), "ms", t.done,
       "submit to ack; " + n},
      {"net.overhead_ms_p50", percentile(t.overhead_ms, 50.0), "ms", t.done,
       "client job time minus queue and run time; " + n},
      {"net.bytes_per_job", last.net_bytes / jobs_done, "B", m,
       "net.bytes.in + net.bytes.out per job"},
      {"obs.trace_overhead_pct", 100.0 * (best_traced_wall / best_wall - 1.0),
       "%", traced_loops.size(), "fastest traced vs untraced replay wall"},
  };
  return result;
}

}  // namespace perfbench
