// Bench-side forwarding decorators: they time the calls a session makes
// into the apps layer (opt::IterativeMethod) and the strategy layer
// (core::Strategy) from outside, without touching the program. Every call
// forwards unchanged, so a decorated run's RunReport is byte-identical to
// an undecorated one (the traced run checks exactly that).
#pragma once

#include <string>
#include <vector>

#include "core/strategy.h"
#include "harness.h"
#include "opt/iterative_method.h"

namespace perfbench {

/// Time spent inside each decorated layer, in seconds.
struct LayerTimes {
  double iterate_s = 0.0;
  double iterate_cpu_s = 0.0;  ///< Process CPU inside iterate().
  double snapshot_s = 0.0;     ///< state() + restore().
  double strategy_s = 0.0;     ///< reset() + observe().
  std::size_t iterate_calls = 0;

  void add(const LayerTimes& other) {
    iterate_s += other.iterate_s;
    iterate_cpu_s += other.iterate_cpu_s;
    snapshot_s += other.snapshot_s;
    strategy_s += other.strategy_s;
    iterate_calls += other.iterate_calls;
  }
};

class TimedMethod final : public approxit::opt::IterativeMethod {
 public:
  TimedMethod(approxit::opt::IterativeMethod& inner, LayerTimes& times)
      : inner_(inner), times_(times) {}

  std::string name() const override { return inner_.name(); }
  std::size_t dimension() const override { return inner_.dimension(); }
  void reset() override { inner_.reset(); }

  approxit::opt::IterationStats iterate(
      approxit::arith::ArithContext& ctx) override {
    const double cpu0 = process_cpu_s();
    const double t0 = wall_s();
    approxit::opt::IterationStats stats = inner_.iterate(ctx);
    times_.iterate_s += wall_s() - t0;
    times_.iterate_cpu_s += process_cpu_s() - cpu0;
    ++times_.iterate_calls;
    return stats;
  }

  double objective() const override { return inner_.objective(); }

  std::vector<double> state() const override {
    const double t0 = wall_s();
    std::vector<double> snapshot = inner_.state();
    times_.snapshot_s += wall_s() - t0;
    return snapshot;
  }

  void restore(const std::vector<double>& snapshot) override {
    const double t0 = wall_s();
    inner_.restore(snapshot);
    times_.snapshot_s += wall_s() - t0;
  }

  std::size_t max_iterations() const override {
    return inner_.max_iterations();
  }
  double tolerance() const override { return inner_.tolerance(); }

 private:
  approxit::opt::IterativeMethod& inner_;
  LayerTimes& times_;
};

class TimedStrategy final : public approxit::core::Strategy {
 public:
  TimedStrategy(approxit::core::Strategy& inner, LayerTimes& times)
      : inner_(inner), times_(times) {}

  std::string name() const override { return inner_.name(); }

  void reset(const approxit::core::ModeCharacterization& profile) override {
    const double t0 = wall_s();
    inner_.reset(profile);
    times_.strategy_s += wall_s() - t0;
  }

  approxit::arith::ApproxMode initial_mode() const override {
    return inner_.initial_mode();
  }

  approxit::core::Decision observe(
      approxit::arith::ApproxMode mode,
      const approxit::opt::IterationStats& stats) override {
    const double t0 = wall_s();
    approxit::core::Decision decision = inner_.observe(mode, stats);
    times_.strategy_s += wall_s() - t0;
    return decision;
  }

 private:
  approxit::core::Strategy& inner_;
  LayerTimes& times_;
};

}  // namespace perfbench
