// lucid_perfbench: runs one named workload from a seed and prints one JSON
// record (every metric with its unit and kind, plus attempted/failed
// counts) as the last line of stdout, and writes the timed pass's step log
// to --steps-out. perfbench/run.py builds this binary, launches it a few
// times, and turns the records and step logs into the benchmark's result
// line.
//
//   lucid_perfbench --workload <name> --seed <n> --seconds <s>
//                   [--trace <0|1>] [--trace-out <file>]
//                   [--steps-out <file>]
//                   [--golden-dir <dir>] [--setup-only]
//                   [--spawn-ns <CLOCK_MONOTONIC ns>]
#include <sys/resource.h>

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "support/json.hpp"

namespace perfbench {

Clock::time_point process_origin() {
  static const Clock::time_point origin = Clock::now();
  return origin;
}

void mark_setup_done(const Options& opt, Report& rep) {
  const Clock::time_point now = Clock::now();
  double s;
  if (opt.spawn_ns > 0) {
    const auto now_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            now.time_since_epoch())
                            .count();
    s = static_cast<double>(now_ns - opt.spawn_ns) / 1e9;
  } else {
    s = ms_between(process_origin(), now) / 1000.0;
  }
  rep.set("setup_s", s, "s");
  // The host's speed right after set-up, outside every timed region: run.py
  // scales setup_s by it.
  rep.set("bench.setup_host_speed", host_speed(), "1/us");
}

void measure_traced(const Options& opt, Report& rep,
                    const std::function<SubsetRun()>& subset) {
  auto& tracer = lucid::obs::Tracer::global();
  double base_work = 0, traced_work = 0, traced_speed = 0;  // ms x speed
  std::uint64_t dropped = 0;
  std::string json;
  std::uint64_t ops = 0;
  auto work = [](const SubsetRun& run) {
    return run.wall_ms * (run.speed > 0 ? run.speed : 1.0);
  };
  constexpr int kRounds = 4;
  for (int r = 0; r < kRounds; ++r) {
    const SubsetRun u = subset();
    tracer.disable();
    tracer.clear();
    lucid::obs::TracerConfig cfg;
    cfg.ring_capacity = std::size_t{1} << 21;
    cfg.sample_every = ~std::uint32_t{0};  // library spans off (see Span)
    tracer.enable(cfg);
    const SubsetRun t = subset();
    tracer.disable();
    dropped += tracer.dropped();
    if (r == 0 || work(u) < base_work) base_work = work(u);
    if (r == 0 || work(t) < traced_work) {
      traced_work = work(t);
      traced_speed = t.speed > 0 ? t.speed : 1.0;
      json = tracer.chrome_json();
    }
    tracer.clear();
    if (r == 0) ops = u.ops;
    if (u.ops != ops || t.ops != ops) {
      rep.fail("the traced subset did different work on different runs");
    }
  }
  const double base_ms = base_work / traced_speed;
  const double traced_ms = traced_work / traced_speed;
  rep.count("obs.spans_dropped", static_cast<double>(dropped));
  rep.set("bench.trace_base_ms", base_ms, "ms");
  rep.set("bench.traced_wall_ms", traced_ms, "ms");
  rep.set("obs.trace_overhead", traced_ms / base_ms, "ratio");
  if (!opt.trace_out.empty()) {
    std::ofstream out(opt.trace_out);
    out << json;
    if (!out) rep.fail("cannot write trace to " + opt.trace_out);
  }
}

namespace {

// A splitmix64 chain with a data-dependent read-modify-write per step: no
// vectorization, so compiler flags barely move it.
std::uint64_t speed_kernel(std::vector<std::uint64_t>& table, std::uint64_t x,
                           int iters) {
  for (int i = 0; i < iters; ++i) {
    x += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z ^= z >> 27;
    std::uint64_t& c = table[z & (table.size() - 1)];
    if (c & 1) {
      c += z;
    } else {
      c ^= z >> 3;
    }
  }
  return x;
}

}  // namespace

double host_speed() {
  constexpr int kIters = 1 << 18;
  static std::vector<std::uint64_t> table(std::size_t{1} << 17);
  // The first pass fills the table and trains the branch predictor, untimed.
  static std::uint64_t x = speed_kernel(table, 1, 4 * kIters);
  const Clock::time_point t0 = Clock::now();
  x = speed_kernel(table, x, kIters);
  return kIters / (ns_between(t0, Clock::now()) / 1000.0);
}

void write_steps(const Options& opt, const StepLog& log, Report& rep) {
  if (opt.steps_out.empty()) return;
  std::ofstream out(opt.steps_out, std::ios::binary);
  for (std::size_t i = 0; i < log.group.size(); ++i) {
    const double rec[5] = {static_cast<double>(log.group[i]), log.ops[i],
                           log.ms[i], log.latency_ms[i], log.speed[i]};
    out.write(reinterpret_cast<const char*>(rec), sizeof(rec));
  }
  if (!out) rep.fail("cannot write the step log to " + opt.steps_out);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void Report::print(const Options& opt) const {
  lucid::support::JsonWriter j;
  j.obj_open()
      .field("workload", opt.workload)
      .field("seed", static_cast<std::int64_t>(opt.seed))
      .field("correct", failed_ == 0)
      .field("attempted", static_cast<std::int64_t>(attempted_))
      .field("failed", static_cast<std::int64_t>(failed_));
  j.arr_open("errors");
  for (const auto& e : errors_) j.item(e);
  j.arr_close();
  j.obj_open("params");
  for (const auto& [name, v] : params_) j.field(name, v);
  j.obj_close();
  j.obj_open("metrics");
  for (const auto& [name, m] : metrics_) {
    j.obj_open(name)
        .field("value", m.value)
        .field("unit", m.unit)
        .field("kind", m.kind == Kind::Host  ? "host"
                       : m.kind == Kind::Sim ? "sim"
                                             : "count")
        .obj_close();
  }
  j.obj_close().obj_close();
  std::printf("%s\n", j.str().c_str());
}

}  // namespace perfbench

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "lucid_perfbench: %s\nusage: lucid_perfbench --workload "
               "<replica-stream|fleet-burst|sfw-control|compile-edit> "
               "--seed <n> --seconds <s> [--trace 0|1] [--trace-out f] "
               "[--steps-out f] [--golden-dir d] [--setup-only] "
               "[--spawn-ns ns]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  (void)perfbench::process_origin();
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      opt.workload = value();
    } else if (a == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(value().c_str(), nullptr);
    } else if (a == "--trace") {
      opt.trace = value() != "0";
    } else if (a == "--trace-out") {
      opt.trace_out = value();
    } else if (a == "--steps-out") {
      opt.steps_out = value();
    } else if (a == "--golden-dir") {
      opt.golden_dir = value();
    } else if (a == "--setup-only") {
      opt.setup_only = true;
    } else if (a == "--spawn-ns") {
      opt.spawn_ns = std::strtoll(value().c_str(), nullptr, 10);
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (!(opt.seconds > 0.0)) usage("--seconds must be positive");

  perfbench::Report rep;
  if (opt.workload == "replica-stream") {
    perfbench::run_native_workload(opt, rep, /*fleet=*/false);
  } else if (opt.workload == "fleet-burst") {
    perfbench::run_native_workload(opt, rep, /*fleet=*/true);
  } else if (opt.workload == "sfw-control") {
    perfbench::run_sfw_control(opt, rep);
  } else if (opt.workload == "compile-edit") {
    perfbench::run_compile_edit(opt, rep);
  } else {
    usage(("unknown workload '" + opt.workload + "'").c_str());
  }
  rep.set("peak_rss_mb", perfbench::peak_rss_mb(), "MB");
  if (rep.attempted() > 0) {
    rep.set("error_rate",
            static_cast<double>(rep.failed()) /
                static_cast<double>(rep.attempted()),
            "ratio", perfbench::Kind::Count);
  }
  rep.print(opt);
  return rep.failed() == 0 ? 0 : 1;
}
