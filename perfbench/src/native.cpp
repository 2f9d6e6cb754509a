// replica-stream and fleet-burst: the ten paper apps on the native data
// path, one app after another, driven in fixed sim-time run_until slices.
//
//   replica-stream: one native::Replica per app (batch_loop on); traffic in
//     the diff::make_schedule shape — timers seeded once, then round-robin
//     traffic with strictly increasing arrivals 700-1299 ns apart — so every
//     drain holds one packet.
//   fleet-burst: a 2-shard native::ReplicaFleet per app; traffic in the
//     diff::make_burst_schedule shape — bursts of 64 same-timestamp packets
//     every 2 us — so drains are multi-packet run_batch calls fanned out
//     over the fleet's worker pool.
//
// Arrivals are a pure function of (seed, app): the timeline is generated
// lazily, slice by slice, and registered between slices (open loop in sim
// time — arrivals never wait for the host).
//
// Reference check: at a checkpoint slice (outside the timed region) each
// engine's register cells, RunStats and scheduler counters are snapshotted;
// after the pass an interp::Testbed replays the same registrations up to
// the same slice (per shard: the ReplicaFleet::route-derived subsequence)
// and must agree exactly.
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "apps/apps.hpp"
#include "common.hpp"
#include "core/driver.hpp"
#include "interp/testbed.hpp"
#include "native/differential.hpp"
#include "native/engine.hpp"
#include "native/fleet.hpp"
#include "obs/metrics.hpp"

namespace perfbench {
namespace {

using lucid::sim::Time;
namespace diff = lucid::native::diff;
namespace native = lucid::native;

/// Traffic parameters of one native workload (printed in the record; run.py
/// checks them against perfbench/workloads.json).
struct NativeParams {
  bool fleet = false;
  int shards = 1;
  int burst_size = 1;        // 1: strictly increasing stream arrivals
  Time burst_gap_ns = 2000;  // bursts only
  Time slice_ns = 200 * lucid::sim::kUs;
  /// Traffic packets per host second of --seconds, across all ten apps,
  /// sized so a run measures about --seconds on a 4-thread x86 host.
  double packets_per_second = 0;
  int checkpoint_slice = 25;  // reference check after this slice
  Time settle_ns = 300 * lucid::sim::kUs;
  std::int64_t episode_packets = 250'000;  // traffic per engine, at most
};

NativeParams params_for(bool fleet) {
  NativeParams p;
  p.fleet = fleet;
  if (fleet) {
    p.shards = 2;
    p.burst_size = 64;
    p.packets_per_second = 4.3e6;
    p.checkpoint_slice = 3;
  } else {
    p.packets_per_second = 4.7e6;
  }
  return p;
}

/// Lazily generated arrival timeline in the diff::make_schedule /
/// make_burst_schedule shape: timers first (once each), then `traffic`
/// round-robin traffic arrivals. Deterministic in (ir, seed).
class Timeline {
 public:
  Timeline(const lucid::ir::ProgramIR& ir, std::uint64_t seed,
           std::int64_t traffic, const NativeParams& p)
      : rng_(seed * 0x9E3779B97f4A7C15ull + 1),
        traffic_left_(traffic),
        burst_size_(p.burst_size),
        gap_ns_(p.burst_gap_ns) {
    for (const auto& ev : ir.events) {
      if (!ev.has_handler) continue;
      (diff::is_timer_event(ir, ev.event_id) ? timers_ : traffic_)
          .push_back(&ev);
    }
    if (traffic_.empty()) traffic_left_ = 0;
    traffic_start_ = std::max<Time>(
        t_ + 1000 * static_cast<Time>(timers_.size()), 5000);
    advance();
  }

  /// Arrival time of the first traffic packet (after the timer seeds).
  [[nodiscard]] Time traffic_start() const { return traffic_start_; }

  [[nodiscard]] bool done() const { return done_; }
  [[nodiscard]] const diff::Injection& peek() const { return cur_; }
  void pop() { advance(); }

 private:
  std::vector<std::int64_t> args_for(const lucid::ir::EventInfo& ev) {
    std::vector<std::int64_t> args;
    args.reserve(ev.params.size());
    for (std::size_t i = 0; i < ev.params.size(); ++i) {
      args.push_back(static_cast<std::int64_t>(diff::splitmix64(rng_) % 4096));
    }
    return args;
  }

  void advance() {
    if (timer_i_ < timers_.size()) {
      const auto* ev = timers_[timer_i_++];
      cur_ = diff::Injection{t_, ev->name, args_for(*ev)};
      t_ += 1000;
      return;
    }
    if (traffic_left_ <= 0) {
      done_ = true;
      return;
    }
    if (k_ == 0) t_ = std::max<Time>(t_, 5000);
    const auto* ev = traffic_[static_cast<std::size_t>(k_) % traffic_.size()];
    cur_ = diff::Injection{t_, ev->name, args_for(*ev)};
    ++k_;
    --traffic_left_;
    if (burst_size_ <= 1) {
      t_ += 700 + static_cast<Time>(diff::splitmix64(rng_) % 600);
    } else if (k_ % burst_size_ == 0) {
      t_ += gap_ns_;
    }
  }

  std::uint64_t rng_;
  std::vector<const lucid::ir::EventInfo*> timers_;
  std::vector<const lucid::ir::EventInfo*> traffic_;
  std::size_t timer_i_ = 0;
  std::int64_t traffic_left_ = 0;
  std::int64_t k_ = 0;
  int burst_size_ = 1;
  Time gap_ns_ = 2000;
  Time t_ = 997;
  Time traffic_start_ = 0;
  diff::Injection cur_;
  bool done_ = false;
};

struct App {
  const lucid::apps::AppSpec* spec = nullptr;
  std::shared_ptr<const native::Program> prog;
  std::uint64_t seed = 0;
  /// The app's traffic is split into `episodes` runs of `traffic` packets,
  /// each on a fresh engine, which bounds the per-engine pending backlog
  /// (and so the process footprint) however long --seconds is.
  std::int64_t traffic = 0;
  int episodes = 1;
  [[nodiscard]] std::uint64_t episode_seed(int ep) const {
    return seed + 0x9E3779B97F4A7C15ull * static_cast<std::uint64_t>(ep);
  }
};

/// End of slice `i`: run_until targets on a fixed grid from t = 0.
Time slice_end(const NativeParams& p, int i) {
  return static_cast<Time>(i + 1) * p.slice_ns;
}

/// One app's engine: a single Replica or a fleet, behind one interface.
class Engine {
 public:
  Engine(const App& app, const NativeParams& p) {
    native::ReplicaConfig rc;
    rc.switch_cfg.id = 1;  // mirror the single-node reference testbed
    rc.batch_loop = true;
    if (p.fleet) {
      native::FleetConfig fc;
      fc.shards = p.shards;
      fc.replica = rc;
      fleet_ = std::make_unique<native::ReplicaFleet>(app.prog, fc);
    } else {
      // shard_id 0 turns on the labeled per-drain instruments, the source
      // of native.batch_pkts_mean on both native workloads.
      rc.shard_id = 0;
      rep_ = std::make_unique<native::Replica>(app.prog, rc);
    }
  }
  bool schedule(const diff::Injection& e) {
    return fleet_ ? fleet_->schedule_inject(e.t, e.event, e.args)
                  : rep_->schedule_inject(e.t, e.event, e.args);
  }
  void run_until(Time t) {
    if (fleet_) {
      fleet_->run_until(t);
    } else {
      rep_->run_until(t);
    }
  }
  [[nodiscard]] int shards() const { return fleet_ ? fleet_->shards() : 1; }
  [[nodiscard]] const native::Replica& shard(int s) const {
    return fleet_ ? fleet_->shard(static_cast<std::size_t>(s)) : *rep_;
  }

 private:
  std::unique_ptr<native::Replica> rep_;
  std::unique_ptr<native::ReplicaFleet> fleet_;
};

diff::EngineResult snapshot(const native::Replica& r) {
  diff::EngineResult out;
  out.ok = true;
  for (std::size_t i = 0; i < r.array_count(); ++i) {
    out.arrays.push_back(r.array_cells(i));
  }
  out.stats = r.run_stats();
  out.executed = r.stats().executed;
  out.forwarded = r.stats().forwarded;
  out.delayed_enqueues = r.stats().delayed_enqueues;
  out.recirculations = r.stats().recirculations;
  return out;
}

/// The interpreter replay of one shard's registrations up to the checkpoint
/// slice, registered slice by slice exactly as the timed pass did.
diff::EngineResult interp_reference(const App& app, const NativeParams& p,
                                    int shard, int shards) {
  diff::EngineResult r;
  lucid::interp::TestbedConfig cfg;
  cfg.program_name = app.spec->key;
  cfg.switch_ids = {1};
  lucid::interp::Testbed tb(app.spec->source, cfg);
  if (!tb.ok()) {
    r.error = "reference compile failed: " + tb.diagnostics();
    return r;
  }
  lucid::interp::Runtime& rt = tb.node(1);
  Timeline tl(app.prog->ir(), app.episode_seed(0), app.traffic, p);
  for (int slice = 0; slice <= p.checkpoint_slice; ++slice) {
    const Time end = slice_end(p, slice);
    while (!tl.done() && tl.peek().t <= end) {
      const diff::Injection& e = tl.peek();
      const auto* ev = app.prog->find_event(e.event);
      if (native::ReplicaFleet::route(shards, -1, ev->event_id, e.args) ==
          static_cast<std::size_t>(shard)) {
        tb.sim().at(e.t, [&rt, e] { rt.inject(e.event, e.args); });
      }
      tl.pop();
    }
    tb.sim().run_until(end);
  }
  for (const auto& arr : tb.compilation().ir().arrays) {
    const lucid::pisa::RegisterArray* a = rt.array(arr.name);
    r.arrays.emplace_back(a->data(), a->data() + a->size());
  }
  const lucid::interp::RunStats& st = rt.stats();
  r.stats.executions = st.executions;
  r.stats.generated = st.generated;
  r.stats.total_executions = st.total_executions;
  const auto& ss = tb.sched_at(1).stats();
  r.executed = ss.executed;
  r.forwarded = ss.forwarded;
  r.delayed_enqueues = ss.delayed_enqueues;
  r.recirculations = tb.switch_at(1).recirculations();
  r.ok = true;
  return r;
}

/// Everything one pass over the ten apps measures.
struct PassResult {
  double wall_ms = 0;  // timed region; checkpoints, speed samples excluded
  std::vector<double> slice_ms;
  StepLog steps;  // per slice: packets executed, schedule + run wall
  double run_ns = 0;       // inside run_until
  double schedule_ns = 0;  // inside schedule_inject
  std::uint64_t injections = 0;
  std::vector<double> app_wall_ms;
  std::vector<std::uint64_t> app_executed;
  // Episode 0 of every app: the part of the pass the traced run repeats.
  std::uint64_t ep0_executed = 0;
  std::size_t footprint_max = 0;
  // Per app, per shard: the state at the checkpoint slice.
  std::vector<std::vector<diff::EngineResult>> checkpoints;
  // Totals over apps and shards at the end of the pass.
  std::uint64_t executed = 0, forwarded = 0, recirculations = 0,
                delayed = 0, generated = 0;
};

/// Runs one episode of one app on `eng`: register each slice's arrivals,
/// run_until the slice end, until the timeline is exhausted and settled.
/// Returns the timed wall in ms (checkpoint snapshots excluded).
double run_episode(const App& app, int group, int ep, Engine& eng,
                   const NativeParams& p, bool record, Report& rep,
                   PassResult& out,
                   std::vector<diff::EngineResult>* checkpoint) {
  Timeline tl(app.prog->ir(), app.episode_seed(ep), app.traffic, p);
  Time last_arrival = 0;
  double excluded_ms = 0;
  std::uint64_t executed = 0;
  const Clock::time_point ep0 = Clock::now();
  for (int slice = 0;; ++slice) {
    const Time end = slice_end(p, slice);
    if (tl.done() && end > last_arrival + p.settle_ns) break;
    const Clock::time_point t0 = Clock::now();
    {
      Span s("native", "schedule_inject");
      while (!tl.done() && tl.peek().t <= end) {
        const diff::Injection& e = tl.peek();
        if (record) rep.attempt();
        if (!eng.schedule(e) && record) {
          rep.fail(app.spec->key + ": schedule_inject rejected " + e.event);
        }
        last_arrival = e.t;
        ++out.injections;
        tl.pop();
      }
    }
    const Clock::time_point t1 = Clock::now();
    {
      Span s("native", p.fleet ? "fleet_run_until" : "run_until");
      eng.run_until(end);
    }
    const Clock::time_point t2 = Clock::now();
    out.schedule_ns += ns_between(t0, t1);
    out.run_ns += ns_between(t1, t2);
    out.slice_ms.push_back(ms_between(t1, t2));
    std::uint64_t now_executed = 0;
    for (int s = 0; s < eng.shards(); ++s) {
      out.footprint_max =
          std::max(out.footprint_max, eng.shard(s).pending_footprint());
      now_executed += eng.shard(s).stats().executed;
    }
    excluded_ms +=
        out.steps.add(group, static_cast<double>(now_executed - executed),
                      ms_between(t0, t2), ms_between(t1, t2));
    executed = now_executed;
    if (checkpoint != nullptr && slice == p.checkpoint_slice) {
      const Clock::time_point c0 = Clock::now();
      for (int s = 0; s < eng.shards(); ++s) {
        checkpoint->push_back(snapshot(eng.shard(s)));
      }
      excluded_ms += ms_between(c0, Clock::now());
    }
  }
  return ms_between(ep0, Clock::now()) - excluded_ms;
}

/// One pass over the ten apps: round after round, one episode of each app
/// after another, for `episodes` rounds (capped at each app's own count).
/// Interleaving the apps spreads each app's slices over the whole run, so a
/// stretch of host noise does not land on one app alone. `engines` holds
/// each app's first-episode engine (built during set-up); later episodes
/// build theirs outside the timed region.
void run_pass(const std::vector<App>& apps,
              std::vector<std::unique_ptr<Engine>>& engines,
              const NativeParams& p, int episodes, bool record, Report& rep,
              PassResult& out) {
  out.checkpoints.resize(apps.size());
  out.app_wall_ms.assign(apps.size(), 0.0);
  out.app_executed.assign(apps.size(), 0);
  int rounds = 0;
  for (const App& app : apps) rounds = std::max(rounds, app.episodes);
  rounds = std::min(rounds, episodes);
  Span pass_span("bench", "timed_pass");
  for (int ep = 0; ep < rounds; ++ep) {
    for (std::size_t a = 0; a < apps.size(); ++a) {
      const App& app = apps[a];
      if (ep >= app.episodes) continue;
      Span app_span("bench", "app");
      std::unique_ptr<Engine> eng = std::move(engines[a]);
      if (ep > 0) {
        Span s("bench", "excluded");
        eng = std::make_unique<Engine>(app, p);
      }
      const double ep_ms =
          run_episode(app, static_cast<int>(a), ep, *eng, p, record, rep, out,
                      record && ep == 0 ? &out.checkpoints[a] : nullptr);
      out.app_wall_ms[a] += ep_ms;
      out.wall_ms += ep_ms;
      for (int s = 0; s < eng->shards(); ++s) {
        const native::Replica& r = eng->shard(s);
        out.app_executed[a] += r.stats().executed;
        out.executed += r.stats().executed;
        if (ep == 0) out.ep0_executed += r.stats().executed;
        out.forwarded += r.stats().forwarded;
        out.recirculations += r.stats().recirculations;
        out.delayed += r.stats().delayed_enqueues;
        for (const auto& [name, n] : r.run_stats().generated) {
          out.generated += n;
        }
      }
    }
  }
}

}  // namespace

void run_native_workload(const Options& opt, Report& rep, bool fleet) {
  const NativeParams p = params_for(fleet);
  rep.param("shards", p.shards);
  rep.param("burst_size", p.burst_size);
  if (p.burst_size > 1) rep.param("burst_gap_ns", p.burst_gap_ns);
  rep.param("slice_ns", p.slice_ns);
  rep.param("traffic_packets_per_run_second", p.packets_per_second);
  rep.param("checkpoint_slice", p.checkpoint_slice);
  rep.param("settle_ns", p.settle_ns);
  rep.param("episode_packets", p.episode_packets);
  const auto& specs = lucid::apps::all_apps();

  // --- set-up: compile, JIT, engine build, timer registration ------------
  std::vector<App> apps;
  double compile_ms = 0, jit_ms = 0, jit_cxx_ms = 0;
  const auto traffic_per_app = static_cast<std::int64_t>(std::llround(
      opt.seconds * p.packets_per_second / static_cast<double>(specs.size())));
  const auto episodes = static_cast<int>(
      (traffic_per_app + p.episode_packets - 1) / p.episode_packets);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto& spec = specs[i];
    rep.attempt();
    lucid::DriverOptions dopt;
    dopt.program_name = spec.key;
    const lucid::CompilerDriver driver(dopt);
    Clock::time_point t0 = Clock::now();
    lucid::CompilationPtr comp;
    {
      Span s("core", "compile_app");
      comp = driver.run(spec.source);
    }
    compile_ms += ms_between(t0, Clock::now());
    if (!comp->ok()) {
      rep.fail(spec.key + ": compile failed: " + comp->diags().render());
      continue;
    }
    rep.attempt();
    std::string err;
    t0 = Clock::now();
    std::shared_ptr<const native::Program> prog;
    {
      Span s("native", "program_build");
      prog = native::Program::build(comp, &err);
    }
    jit_ms += ms_between(t0, Clock::now());
    if (prog == nullptr) {
      rep.fail(spec.key + ": native build failed: " + err);
      continue;
    }
    jit_cxx_ms += prog->module().compile_ms();
    App app;
    app.spec = &spec;
    app.prog = prog;
    app.seed = opt.seed * 1000003ull + i;
    app.episodes = std::max(episodes, 1);
    app.traffic = traffic_per_app / app.episodes;
    apps.push_back(std::move(app));
  }
  auto build_engines = [&] {
    std::vector<std::unique_ptr<Engine>> engines;
    for (const App& app : apps) {
      engines.push_back(std::make_unique<Engine>(app, p));
    }
    return engines;
  };
  auto engines = build_engines();
  mark_setup_done(opt, rep);
  rep.set("core.apps_compile_ms", compile_ms, "ms");
  rep.set("native.jit_ms", jit_ms, "ms");
  rep.set("native.jit_cxx_ms", jit_cxx_ms, "ms");
  if (opt.setup_only) return;

  // --- untraced pass: every end-to-end metric ----------------------------
  lucid::obs::Registry::global().reset();
  PassResult res;
  run_pass(apps, engines, p, std::numeric_limits<int>::max(),
           /*record=*/true, rep, res);

  // Layer numbers read off the obs registry before anything else runs.
  auto& reg = lucid::obs::Registry::global();
  double batch_sum = 0, batch_count = 0;
  std::vector<double> shard_pkts;
  for (int s = 0; s < p.shards; ++s) {
    const lucid::obs::Labels labels = {{"shard", std::to_string(s)}};
    const auto& h = reg.histogram("lucid_native_shard_batch_size", labels);
    batch_sum += static_cast<double>(h.sum());
    batch_count += static_cast<double>(h.count());
    shard_pkts.push_back(static_cast<double>(
        reg.counter("lucid_native_shard_packets_total", labels).value()));
  }
  engines.clear();

  const double wall_s = res.wall_ms / 1000.0;
  const double exec = static_cast<double>(res.executed);
  write_steps(opt, res.steps, rep);
  rep.set("pkt_per_s", exec / wall_s, "1/s");
  rep.set("slice_ms_p50", median(res.slice_ms), "ms");
  rep.set("slice_ms_p99", percentile(res.slice_ms, 0.99), "ms");
  rep.count("bench.step_samples", static_cast<double>(res.slice_ms.size()));
  rep.set("bench.untraced_wall_ms", res.wall_ms, "ms");
  rep.set("native.schedule_ns_per_inject",
          res.schedule_ns / static_cast<double>(res.injections), "ns");
  const double loop_ns = res.run_ns / exec;
  rep.set("native.loop_ns_per_pkt", loop_ns, "ns");
  rep.set("native.batch_pkts_mean",
          batch_count > 0 ? batch_sum / batch_count : 0.0, "pkts",
          Kind::Count);
  rep.count("native.pending_footprint_max",
            static_cast<double>(res.footprint_max));
  rep.count("native.executed", exec);
  rep.count("native.forwarded", static_cast<double>(res.forwarded));
  rep.count("native.recirculations", static_cast<double>(res.recirculations));
  rep.count("native.delayed_enqueues", static_cast<double>(res.delayed));
  rep.count("native.generated", static_cast<double>(res.generated));
  for (int s = 0; s < 2; ++s) {
    rep.count("fleet.shard" + std::to_string(s) + "_pkts",
              s < static_cast<int>(shard_pkts.size()) ? shard_pkts[s] : 0.0);
  }
  double shard_max = 0, shard_total = 0;
  for (const double v : shard_pkts) {
    shard_max = std::max(shard_max, v);
    shard_total += v;
  }
  rep.set("fleet.shard_pkts_max_over_mean",
          shard_total > 0
              ? shard_max / (shard_total / static_cast<double>(p.shards))
              : 0.0,
          "ratio", Kind::Count);

  // Raw pipeline cost: the public micro-measure on each app's own module,
  // weighted by the packets each app executed in the pass.
  double pipeline_ns_total = 0;
  for (std::size_t a = 0; a < apps.size(); ++a) {
    const auto& prog = *apps[a].prog;
    const double pps =
        native::measure_raw_batch_pps(prog.ir(), prog.module(), 0.02);
    if (pps > 0) {
      pipeline_ns_total +=
          1e9 / pps * static_cast<double>(res.app_executed[a]);
    }
    rep.set("apps." + apps[a].spec->key + ".pkt_per_s",
            static_cast<double>(res.app_executed[a]) /
                (res.app_wall_ms[a] / 1000.0),
            "1/s");
  }
  const double pipeline_ns = pipeline_ns_total / exec;
  rep.set("native.pipeline_ns_per_pkt", pipeline_ns, "ns");
  rep.set("native.core_ns_per_pkt", loop_ns - pipeline_ns, "ns");

  // --- reference checks (never timed) ------------------------------------
  for (std::size_t a = 0; a < apps.size(); ++a) {
    const auto& snaps = res.checkpoints[a];
    for (int s = 0; s < static_cast<int>(snaps.size()); ++s) {
      rep.attempt();
      const diff::EngineResult ref =
          interp_reference(apps[a], p, s, p.fleet ? p.shards : 1);
      const std::string why = diff::compare(
          apps[a].prog->ir(), ref, snaps[static_cast<std::size_t>(s)]);
      if (!why.empty()) {
        rep.fail(apps[a].spec->key + " shard " + std::to_string(s) +
                 " at checkpoint slice: " + why);
      }
    }
    if (snaps.empty()) {
      rep.attempt();
      rep.fail(apps[a].spec->key + ": run ended before the checkpoint slice");
    }
  }

  // --- traced run: episode 0 of every app, fresh engines each time -----
  if (opt.trace) {
    measure_traced(opt, rep, [&] {
      auto fresh = build_engines();
      PassResult sub;
      run_pass(apps, fresh, p, /*episodes=*/1, /*record=*/false, rep, sub);
      if (sub.executed != res.ep0_executed) {
        rep.fail("the traced subset executed a different packet count");
      }
      return SubsetRun{sub.wall_ms, sub.executed, sub.steps.mean_speed()};
    });
  }
}

}  // namespace perfbench
