// Shared plumbing for the end-to-end benchmark: options, the metric report,
// timing helpers, and the span wrapper used on traced passes.
//
// Every workload follows the same shape:
//   1. set-up (compiles, JIT, engine build, schedule registration), ending
//      at the first timed operation, which stamps setup_s;
//   2. an untraced pass over the whole workload, which yields the step log
//      (run.py turns the logs of a run's processes into ops_per_s and
//      step_ms_*) and every per-layer figure;
//   3. reference checks against an independent oracle (never timed);
//   4. with --trace 1, a subset of the same inputs run alternately untraced
//      and with obs::Tracer on (measure_traced), whose Chrome JSON run.py
//      folds into per-layer self times.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
  /// CLOCK_MONOTONIC ns at which the launcher spawned this process (0: use
  /// the first instruction of main instead). steady_clock is CLOCK_MONOTONIC
  /// on Linux, so the two clocks agree across processes.
  std::int64_t spawn_ns = 0;
  std::string trace_out;  // Chrome JSON path for the traced pass
  std::string steps_out;  // step log path (see StepLog)
  /// The emitter goldens compile-edit compares against (read-only).
  std::string golden_dir = "tests/golden";
};

/// How a metric compares across runs: host wall time (compared within the
/// benchmark's bounds) or a simulated-time value / count (exact repeats for
/// one seed).
enum class Kind { Host, Sim, Count };

struct Metric {
  double value = 0.0;
  std::string unit;
  Kind kind = Kind::Host;
};

class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit,
           Kind kind = Kind::Host) {
    if (!std::isfinite(value)) {
      fail("metric " + name + " is not finite");
      value = 0.0;
    }
    metrics_[name] = Metric{value, unit, kind};
  }
  void count(const std::string& name, double value) {
    set(name, value, "count", Kind::Count);
  }
  /// A workload parameter. The record carries every one, and run.py checks
  /// them against perfbench/workloads.json, so the two cannot drift apart.
  void param(const std::string& name, double value) { params_[name] = value; }
  /// One attempted operation; `error` non-empty marks it failed.
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  void fail(const std::string& error) {
    ++failed_;
    if (errors_.size() < 20) errors_.push_back(error);
    std::fprintf(stderr, "perfbench: FAIL: %s\n", error.c_str());
  }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }

  /// Prints the one-line JSON record run.py consumes.
  void print(const Options& opt) const;

 private:
  std::map<std::string, Metric> metrics_;
  std::map<std::string, double> params_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> errors_;
};

/// Nearest-rank percentile (q in [0,1]) of `v`; 0 for an empty sample.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

inline double median(std::vector<double> v) { return percentile(v, 0.5); }

/// The host's speed now: iterations per microsecond of a fixed integer
/// kernel over a 1 MiB table, run for a few milliseconds at most. It
/// depends on the host (clock, and what else the host runs meanwhile), never
/// on the program under test; run.py scales each step's time by it.
double host_speed();

/// The benchmark's span around one call into a layer: `cat` is the layer
/// (module) name, `name` the call. It records through obs::Tracer exactly
/// like obs::ScopedSpan, except that it is never sampled out: the traced
/// run sets the tracer's sampling so sparse that the library's own per-event
/// spans (one per interpreted handler, one per Sema decl, one per driver
/// stage) stay off. At ~200 ns each, one per interpreted handler would cost
/// the interpreter more than the 10% a traced run may add; the benchmark's
/// spans wrap the same calls from outside.
class Span {
 public:
  Span(std::string_view cat, std::string_view name) {
    if (!lucid::obs::Tracer::global().enabled()) return;
    live_ = true;
    cat_ = cat;
    name_ = name;
    start_ = lucid::obs::Tracer::now_ns();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() {
    if (!live_) return;
    lucid::obs::Tracer::global().complete(
        cat_, name_, start_, lucid::obs::Tracer::now_ns() - start_);
  }

 private:
  bool live_ = false;
  std::string_view cat_;
  std::string_view name_;
  std::uint64_t start_ = 0;
};

/// Per-step log of a timed pass: the group (app) a step belongs to, the
/// operations it completed, its host wall time, the latency a caller waits
/// on (the run_until slice, or the recompile), and the host's speed sampled
/// after the step (0 when not sampled). Every process of a run does the
/// same steps; run.py turns their logs into the end-to-end figures
/// (ops_per_s and step_ms_*; see repeat_stats there).
struct StepLog {
  std::vector<int> group;
  std::vector<double> ops;
  std::vector<double> ms;
  std::vector<double> latency_ms;
  std::vector<double> speed;
  /// The host's speed is sampled after the first step and then after every
  /// kSampleEveryMs of step time.
  static constexpr double kSampleEveryMs = 20.0;

  /// Appends a step. Returns the wall time spent sampling the host's speed,
  /// which the caller leaves out of its timed region (and a traced run out
  /// of every layer, under a bench.excluded span).
  double add(int g, double o, double m, double latency) {
    group.push_back(g);
    ops.push_back(o);
    ms.push_back(m);
    latency_ms.push_back(latency);
    since_sample_ms_ += m;
    if (ms.size() > 1 && since_sample_ms_ < kSampleEveryMs) {
      speed.push_back(0.0);
      return 0.0;
    }
    const Clock::time_point t0 = Clock::now();
    {
      Span s("bench", "excluded");
      speed.push_back(host_speed());
    }
    since_sample_ms_ = 0.0;
    return ms_between(t0, Clock::now());
  }

  /// Mean of the speed samples (0 when there are none).
  [[nodiscard]] double mean_speed() const {
    double sum = 0;
    int n = 0;
    for (const double v : speed) {
      if (v > 0) {
        sum += v;
        ++n;
      }
    }
    return n > 0 ? sum / n : 0.0;
  }

 private:
  double since_sample_ms_ = 0.0;
};

/// Writes `log` to --steps-out (if given) as native-endian doubles, five
/// per step: group, ops, ms, latency_ms, speed.
void write_steps(const Options& opt, const StepLog& log, Report& rep);

/// Fills in setup_s: process spawn (or main) to the first timed operation.
void mark_setup_done(const Options& opt, Report& rep);

/// Wall clock of main()'s first instruction (the setup_s fallback origin).
Clock::time_point process_origin();

/// One run of the part of a workload the traced run repeats.
struct SubsetRun {
  double wall_ms = 0;
  std::uint64_t ops = 0;  // must be the same on every run
  double speed = 0;       // the host's mean speed over the run (StepLog)
};

/// The traced run: the workload's subset is run four times untraced and four
/// times with obs::Tracer on, alternating. Each run's wall is weighed by the
/// host's speed during it, so host drift between the runs cancels: the
/// traced run with the least wall x speed gives the Chrome JSON for
/// --trace-out (run.py folds it into per-layer self times) and
/// bench.traced_wall_ms; bench.trace_base_ms is the untraced run with the
/// least wall x speed, scaled to the chosen traced run's host speed;
/// obs.trace_overhead is the ratio of the two.
void measure_traced(const Options& opt, Report& rep,
                    const std::function<SubsetRun()>& subset);

/// Peak resident set of this process, MiB.
double peak_rss_mb();

// Workload entry points (one translation unit each).
void run_native_workload(const Options& opt, Report& rep, bool fleet);
void run_sfw_control(const Options& opt, Report& rep);
void run_compile_edit(const Options& opt, Report& rep);

}  // namespace perfbench
