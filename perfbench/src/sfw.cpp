// sfw-control: the paper's stateful firewall (SFW) on the reference stack
// (interp::Testbed -> sim / sched / pisa) with a control plane beside it.
//
// Traffic: Poisson new flows from workload::FlowGenerator, each a long train
// of alternating outbound (pkt_out) and return (pkt_in) packets. A flow's
// first packet installs it in the data-plane cuckoo table — in the pass
// itself when a slot is free, otherwise through a chain of cuckoo_insert
// recirculations. The new-flow rate is set so the scan's idle eviction
// holds the 2048-entry table near Fig 17's 0.3125 load factor.
//
// Control: remote installs arrive at a fixed mean rate (seeded jitter) at a
// Mantis-style switch CPU whose service loop wakes every 35 us (Fig 17's
// tick) and submits everything queued as one ctrl::ControlPlane batch:
// register writes plus read-backs of the written cells and the firewall's
// counters. Remote install latency is the batch's apply time minus the
// request's arrival; inline install latency is the time from a flow's first
// pass to the last pass of the cuckoo chain it started.
//
// Checks: no batch rejected, every read-back equals the value written, the
// firewall counters never go backwards, and the Fig 17 gate — remote mean
// within 10-40 us and at least 100x the inline mean.
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/apps.hpp"
#include "common.hpp"
#include "ctrl/interp_bridge.hpp"
#include "interp/testbed.hpp"
#include "sim/rng.hpp"
#include "support/hash.hpp"
#include "workload/workload.hpp"

namespace perfbench {
namespace {

using lucid::sim::Time;
using lucid::sim::kUs;

/// Traffic parameters (printed in the record; run.py checks them against
/// perfbench/workloads.json).
struct SfwParams {
  double new_flows_per_s = 620;  // sim time
  int packets_per_flow = 64;      // alternating pkt_out / pkt_in
  Time inter_packet_ns = 5 * kUs;
  std::int64_t hosts = 1 << 16;
  double remote_installs_per_s = 310;  // sim time, mean
  Time cpu_tick_ns = 35 * kUs;            // Fig 17's service loop
  Time slice_ns = 1000 * kUs;
  Time feed_window_ns = 10'000 * kUs;  // arrivals registered this far ahead
  Time episode_sim_ns = 8'000'000'000;  // sim time per fresh testbed
  /// Sim seconds per host second of --seconds (sizes the run so it measures
  /// about --seconds on a 4-thread x86 host).
  double sim_s_per_host_s = 7.0;
  int table_slots = 2048;
  int load_sample_every = 100;  // slices between table-occupancy samples
  /// The traced run repeats this many slices of the first episode (the
  /// interpreter's per-handler spans make a full traced pass too big).
  int trace_slices = 6000;
};

/// Mirrors SFW's handlers (src/apps/apps.cpp) through the one modeled hash
/// (support/hash.hpp): the flow key and the two bank indexes.
std::int64_t flowkey(std::int64_t src, std::int64_t dst) {
  return static_cast<std::int64_t>(
      lucid::support::model_hash32(77, {src, dst}) | 1u);
}
std::int64_t bank_index(int bank, std::int64_t key) {
  return lucid::support::model_hash32(bank, {key}) & 1023;
}

/// Tracks in-data-plane installs from the runtime's pre-execution trace
/// hook. Cuckoo chains are linear (each cuckoo_insert generates at most one
/// successor), and the hook sees the registers the handler is about to
/// read, so it predicts each chain's next (key, depth) exactly and charges
/// the chain to the flow whose first packet started it.
class InstallTracker {
 public:
  explicit InstallTracker(lucid::interp::Runtime& rt)
      : key1_(rt.array("key1")), key2_(rt.array("key2")) {}

  void expect_first_packet(std::int64_t key) { first_pending_[key] += 1; }

  void on_exec(const std::string& ev, const lucid::pisa::Packet& p,
               Time now) {
    if (ev == "pkt_out") {
      on_pkt_out(p.args.at(0), p.args.at(1), now);
    } else if (ev == "cuckoo_insert") {
      ++cuckoo_execs_;
      on_cuckoo(p.args.at(0), p.args.at(1), now);
    }
  }

  /// Closes chains still open at the end of the run (their last pass so far
  /// is the install time).
  void finish() {
    for (auto& [k, c] : chains_) samples_ns_.push_back(c.last - c.start);
    chains_.clear();
  }

  [[nodiscard]] const std::vector<double>& samples_ns() const {
    return samples_ns_;
  }
  [[nodiscard]] std::uint64_t cuckoo_execs() const { return cuckoo_execs_; }
  [[nodiscard]] std::uint64_t new_flows() const { return new_flows_; }

 private:
  struct Chain {
    Time start = 0;
    Time last = 0;
  };
  using ChainKey = std::pair<std::int64_t, std::int64_t>;  // (key, depth)

  void on_pkt_out(std::int64_t src, std::int64_t dst, Time now) {
    const std::int64_t k = flowkey(src, dst);
    auto it = first_pending_.find(k);
    if (it == first_pending_.end()) return;  // not a first packet
    if (--it->second == 0) first_pending_.erase(it);
    ++new_flows_;
    const std::int64_t v1 = key1_->get(bank_index(1, k));
    if (v1 == 0 || v1 == k) {
      samples_ns_.push_back(0.0);
      return;
    }
    const std::int64_t v2 = key2_->get(bank_index(2, k));
    if (v2 == 0 || v2 == k) {
      samples_ns_.push_back(0.0);
      return;
    }
    chains_.emplace(ChainKey{k, 0}, Chain{now, now});
  }

  void on_cuckoo(std::int64_t key, std::int64_t depth, Time now) {
    auto it = chains_.find(ChainKey{key, depth});
    if (it == chains_.end()) return;  // displaced by another chain's write
    Chain c = it->second;
    chains_.erase(it);
    c.last = now;
    // The handler's own logic: displace bank 1, re-home the victim in bank
    // 2, recurse on bank 2's victim; chains end past depth 8.
    if (depth <= 8) {
      const std::int64_t v1 = key1_->get(bank_index(1, key));
      if (v1 != 0 && v1 != key) {
        const std::int64_t v2 = key2_->get(bank_index(2, v1));
        if (v2 != 0 && v2 != v1) {
          chains_.emplace(ChainKey{v2, depth + 1}, c);
          return;
        }
      }
    }
    samples_ns_.push_back(static_cast<double>(c.last - c.start));
  }

  lucid::pisa::RegisterArray* key1_ = nullptr;
  lucid::pisa::RegisterArray* key2_ = nullptr;
  std::map<std::int64_t, int> first_pending_;
  std::multimap<ChainKey, Chain> chains_;
  std::vector<double> samples_ns_;
  std::uint64_t cuckoo_execs_ = 0;
  std::uint64_t new_flows_ = 0;
};

/// What every episode of a pass adds up to.
struct SfwTotals {
  double wall_ms = 0, run_ns = 0, schedule_ns = 0, submit_ns = 0;
  // Passes executed in the first episode's first trace_slices slices: what
  // the traced run repeats.
  std::uint64_t prefix_executed = 0;
  std::uint64_t registered = 0, submits = 0;
  std::vector<double> slice_ms;
  StepLog steps;  // per slice: passes executed, feed + run wall
  std::vector<double> remote_us;
  std::vector<double> inline_ns;
  std::vector<double> load;  // table occupancy samples
  std::size_t pending_max = 0;
  std::uint64_t executed = 0, forwarded = 0, delayed = 0, control_injected = 0;
  std::uint64_t recirculations = 0, stalled = 0, cuckoo_execs = 0;
  std::uint64_t new_flows = 0, install_failures = 0, leaked = 0;
  std::int64_t stall_ns = 0;
  lucid::ctrl::ControlPlaneStats ctrl;  // summed counters
};

/// One episode: a fresh testbed, control plane and generators, run for a
/// fixed number of sim-time slices. Episodes bound how far SFW's table can
/// drift: cuckoo_insert re-homes keys into bank 2 without writing ts2, so
/// an entry moved into a never-stamped slot is never aged out and the load
/// creeps up with sim time (apps.SFW.leaked_entries counts them).
class SfwRun {
 public:
  SfwRun(const Options& opt, const SfwParams& p, int episode,
         SfwTotals& totals, Report& rep, bool record)
      : p_(p), totals_(totals), rep_(rep), record_(record) {
    lucid::interp::TestbedConfig cfg;
    cfg.program_name = "SFW";
    cfg.switch_ids = {1};
    const Clock::time_point t0 = Clock::now();
    {
      Span s("core", "compile_app");
      tb_ = std::make_unique<lucid::interp::Testbed>(
          lucid::apps::app("SFW").source, cfg);
    }
    compile_ms_ = ms_between(t0, Clock::now());
    if (record_) rep_.attempt();
    if (!tb_->ok()) {
      if (record_) rep_.fail("SFW failed to compile: " + tb_->diagnostics());
      return;
    }
    // The CPU loop is armed before the plane's own apply tick, so at every
    // 35 us boundary the CPU submits first and the plane applies that batch
    // in the same instant: a request waits exactly until the next tick.
    arm_cpu_tick();
    lucid::ctrl::ControlPlaneConfig cc;
    cc.tick_ns = p_.cpu_tick_ns;
    rc_ = std::make_unique<lucid::ctrl::RuntimeControl>(tb_->node(1), cc);
    tracker_ = std::make_unique<InstallTracker>(tb_->node(1));
    tb_->node(1).set_trace(
        [this](const std::string& ev, const lucid::pisa::Packet& pkt) {
          tracker_->on_exec(ev, pkt, tb_->sim().now());
        });
    lucid::workload::FlowGenConfig fc;
    fc.flows_per_sec = p_.new_flows_per_s;
    fc.poisson = true;
    fc.packets_per_flow = p_.packets_per_flow;
    fc.inter_packet_ns = p_.inter_packet_ns;
    fc.hosts = p_.hosts;
    const std::uint64_t seed = opt.seed * 1000003ull + episode;
    flows_ = std::make_unique<lucid::workload::FlowGenerator>(
        tb_->sim(), fc, seed * 7919 + 17);
    ctrl_rng_ = std::make_unique<lucid::sim::Rng>(seed * 104729 + 3);
    // The idle-eviction scans run forever once seeded (one per bank).
    for (const char* scan : {"scan1", "scan2"}) {
      if (record_) rep_.attempt();
      if (!tb_->node(1).inject(scan, {0}) && record_) {
        rep_.fail(std::string("testbed rejected ") + scan);
      }
    }
  }

  // Simulator callbacks and the trace hook hold `this`.
  SfwRun(const SfwRun&) = delete;
  SfwRun& operator=(const SfwRun&) = delete;

  [[nodiscard]] bool ok() const { return tb_ != nullptr && tb_->ok(); }
  [[nodiscard]] double compile_ms() const { return compile_ms_; }

  /// Runs `slices` fixed sim-time slices; arrivals are registered one feed
  /// window ahead of the slice being run. Adds the episode to the totals;
  /// `prefix` > 0 also records the passes executed after that many slices.
  void run(int slices, int prefix) {
    SfwTotals& t = totals_;
    double excluded_ms = 0;
    std::uint64_t last_executed = 0;
    const Clock::time_point pass0 = Clock::now();
    for (int i = 0; i < slices; ++i) {
      const Time end = static_cast<Time>(i + 1) * p_.slice_ns;
      const Clock::time_point t0 = Clock::now();
      if (end > fed_until_) feed(fed_until_ + p_.feed_window_ns);
      const Clock::time_point t1 = Clock::now();
      {
        Span s("sim", "run_until");
        tb_->sim().run_until(end);
      }
      const Clock::time_point t2 = Clock::now();
      t.schedule_ns += ns_between(t0, t1);
      t.run_ns += ns_between(t1, t2);
      t.slice_ms.push_back(ms_between(t1, t2));
      const std::uint64_t executed = tb_->sched_at(1).stats().executed;
      excluded_ms +=
          t.steps.add(0, static_cast<double>(executed - last_executed),
                      ms_between(t0, t2), ms_between(t1, t2));
      last_executed = executed;
      t.pending_max = std::max(t.pending_max, tb_->sim().pending());
      if (i + 1 == prefix) t.prefix_executed = executed;
      if (i % p_.load_sample_every == p_.load_sample_every - 1) {
        Span s("bench", "excluded");
        const Clock::time_point c0 = Clock::now();
        t.load.push_back(static_cast<double>(live_entries()) /
                         p_.table_slots);
        excluded_ms += ms_between(c0, Clock::now());
      }
    }
    t.wall_ms += ms_between(pass0, Clock::now()) - excluded_ms;
    absorb();
  }

 private:
  /// Adds this episode's end-of-run counters to the totals.
  void absorb() {
    SfwTotals& t = totals_;
    tracker_->finish();
    t.inline_ns.insert(t.inline_ns.end(), tracker_->samples_ns().begin(),
                       tracker_->samples_ns().end());
    t.cuckoo_execs += tracker_->cuckoo_execs();
    t.new_flows += tracker_->new_flows();
    const auto& sched = tb_->sched_at(1).stats();
    t.executed += sched.executed;
    t.forwarded += sched.forwarded;
    t.delayed += sched.delayed_enqueues;
    t.control_injected += sched.control_injected;
    const auto& sw = tb_->switch_at(1);
    t.recirculations += sw.recirculations();
    t.stall_ns += sw.stall_ns_total();
    t.stalled += sw.stalled_deliveries();
    t.install_failures += static_cast<std::uint64_t>(
        tb_->node(1).array("failures")->get(0));
    // Occupied bank-2 slots no scan can ever age out (ts2 never written).
    const lucid::pisa::RegisterArray* key2 = tb_->node(1).array("key2");
    const lucid::pisa::RegisterArray* ts2 = tb_->node(1).array("ts2");
    for (std::int64_t i = 0; i < key2->size(); ++i) {
      t.leaked += key2->get(i) != 0 && ts2->get(i) == 0;
    }
    const auto snap = rc_->plane().snapshot();
    t.ctrl.batches_applied += snap.batches_applied;
    t.ctrl.batches_rejected += snap.batches_rejected;
    t.ctrl.writes_applied += snap.writes_applied;
    t.ctrl.reads_served += snap.reads_served;
    t.ctrl.apply_points += snap.apply_points;
    t.ctrl.max_queue_depth =
        std::max(t.ctrl.max_queue_depth, snap.max_queue_depth);
    t.ctrl.update_path_busy_ns += snap.update_path_busy_ns;
  }

  /// Registers flow packets and remote-install requests for sim time up to
  /// `until` (both generators are seeded, so arrivals depend only on the
  /// seed, never on host speed).
  void feed(Time until) {
    Span s("workload", "register_arrivals");
    lucid::interp::Runtime& rt = tb_->node(1);
    const std::uint64_t before = tb_->sim().pending();
    flows_->start(until, [this, &rt](const lucid::workload::Flow& f,
                                     int seq) {
      if (seq == 0) tracker_->expect_first_packet(flowkey(f.src, f.dst));
      const bool out = seq % 2 == 0;
      if (record_) rep_.attempt();
      if (!rt.inject(out ? "pkt_out" : "pkt_in",
                     out ? std::vector<std::int64_t>{f.src, f.dst}
                         : std::vector<std::int64_t>{f.dst, f.src}) &&
          record_) {
        rep_.fail("testbed rejected a flow packet");
      }
    });
    const double mean_gap_ns = 1e9 / p_.remote_installs_per_s;
    Time t = std::max(next_request_, fed_until_);
    while (t <= until) {
      tb_->sim().at(t, [this, t] { requests_.push_back(t); });
      t += static_cast<Time>(ctrl_rng_->uniform(
          static_cast<std::int64_t>(mean_gap_ns / 2),
          static_cast<std::int64_t>(mean_gap_ns * 3 / 2)));
    }
    next_request_ = t;
    totals_.registered += tb_->sim().pending() - before;
    fed_until_ = until;
  }

  void arm_cpu_tick() {
    tb_->sim().after(p_.cpu_tick_ns, [this] {
      if (!requests_.empty()) submit_batch();
      arm_cpu_tick();
    });
  }

  /// The switch CPU's service loop: one batch with a write pair per queued
  /// request (key + timestamp into bank 1, like the data plane's install),
  /// read-backs of every written cell, and the three firewall counters.
  void submit_batch() {
    lucid::ctrl::UpdateBatch b;
    std::map<std::pair<std::string, std::int64_t>, std::int64_t> last;
    const Time now = tb_->sim().now();
    for (std::size_t i = 0; i < requests_.size(); ++i) {
      const std::int64_t src = ctrl_rng_->uniform(1, p_.hosts);
      const std::int64_t dst = ctrl_rng_->uniform(1, p_.hosts);
      const std::int64_t k = flowkey(src, dst);
      const std::int64_t i1 = bank_index(1, k);
      b.writes.push_back({"key1", i1, k});
      b.writes.push_back({"ts1", i1, now & 0xFFFFFFFF});
      last[{"key1", i1}] = k;
      last[{"ts1", i1}] = now & 0xFFFFFFFF;
    }
    std::vector<std::int64_t> expect;
    for (const auto& [cell, v] : last) {
      b.reads.push_back({cell.first, cell.second});
      expect.push_back(v);
    }
    for (const char* counter : {"allowed", "denied", "failures"}) {
      b.reads.push_back({counter, 0});
    }
    b.on_done = [this, reqs = std::move(requests_),
                 expect = std::move(expect)](
                    const lucid::ctrl::BatchResult& r) {
      check_batch(r, reqs, expect);
    };
    requests_.clear();
    const Clock::time_point t0 = Clock::now();
    {
      Span s("ctrl", "submit");
      rc_->plane().submit(std::move(b));
    }
    totals_.submit_ns += ns_between(t0, Clock::now());
    ++totals_.submits;
  }

  void check_batch(const lucid::ctrl::BatchResult& r,
                   const std::vector<Time>& reqs,
                   const std::vector<std::int64_t>& expect) {
    for (const Time t : reqs) {
      totals_.remote_us.push_back(static_cast<double>(r.applied_ns - t) /
                                  1000.0);
    }
    if (!record_) return;
    rep_.attempt();
    if (!r.applied) {
      rep_.fail("control batch rejected: " + r.error);
      return;
    }
    for (std::size_t i = 0; i < expect.size(); ++i) {
      if (r.reads.at(i) != expect[i]) {
        rep_.fail("read-back " + std::to_string(r.reads.at(i)) +
                  " != written " + std::to_string(expect[i]));
        return;
      }
    }
    for (std::size_t c = 0; c < 3; ++c) {
      const std::int64_t v = r.reads.at(expect.size() + c);
      if (v < counters_[c]) rep_.fail("firewall counter went backwards");
      counters_[c] = v;
    }
  }

  [[nodiscard]] int live_entries() const {
    int live = 0;
    for (const char* bank : {"key1", "key2"}) {
      const lucid::pisa::RegisterArray* a = tb_->node(1).array(bank);
      for (std::int64_t i = 0; i < a->size(); ++i) live += a->get(i) != 0;
    }
    return live;
  }

  SfwParams p_;
  SfwTotals& totals_;
  Report& rep_;
  bool record_;  // count attempts / failures (the untraced pass only)
  std::unique_ptr<lucid::interp::Testbed> tb_;
  std::unique_ptr<lucid::ctrl::RuntimeControl> rc_;
  std::unique_ptr<InstallTracker> tracker_;
  std::unique_ptr<lucid::workload::FlowGenerator> flows_;
  std::unique_ptr<lucid::sim::Rng> ctrl_rng_;
  double compile_ms_ = 0;
  Time fed_until_ = 0;
  Time next_request_ = 0;
  std::vector<Time> requests_;
  std::int64_t counters_[3] = {0, 0, 0};
};

/// Runs every episode of one pass. The first episode's run was built during
/// set-up; later ones are built outside the timed region.
void run_pass(const Options& opt, const SfwParams& p,
              std::unique_ptr<SfwRun> first, int episodes,
              int slices_per_episode, SfwTotals& totals, Report& rep,
              bool record) {
  Span pass_span("bench", "timed_pass");
  for (int ep = 0; ep < episodes; ++ep) {
    std::unique_ptr<SfwRun> run = std::move(first);
    if (ep > 0) {
      Span s("bench", "excluded");
      run = std::make_unique<SfwRun>(opt, p, ep, totals, rep, record);
    }
    if (!run->ok()) return;
    run->run(slices_per_episode,
             ep == 0 ? std::min(p.trace_slices, slices_per_episode) : 0);
  }
}

void report(const SfwTotals& t, Report& rep) {
  const double exec = static_cast<double>(t.executed);
  const double wall_s = t.wall_ms / 1000.0;
  rep.set("pkt_per_s", exec / wall_s, "1/s");
  rep.set("slice_ms_p50", median(t.slice_ms), "ms");
  rep.set("slice_ms_p99", percentile(t.slice_ms, 0.99), "ms");
  rep.count("bench.step_samples", static_cast<double>(t.slice_ms.size()));
  rep.set("bench.untraced_wall_ms", t.wall_ms, "ms");
  rep.set("apps.SFW.pkt_per_s", exec / wall_s, "1/s");

  const double ctrl_ops =
      static_cast<double>(t.ctrl.writes_applied + t.ctrl.reads_served);
  rep.set("ctrl_ops_per_s", ctrl_ops / wall_s, "1/s");
  rep.set("remote_install_sim_us_p50", median(t.remote_us), "us", Kind::Sim);
  rep.set("remote_install_sim_us_p99", percentile(t.remote_us, 0.99), "us",
          Kind::Sim);
  rep.set("inline_install_sim_ns_p99", percentile(t.inline_ns, 0.99), "ns",
          Kind::Sim);
  rep.count("bench.remote_installs", static_cast<double>(t.remote_us.size()));
  rep.count("bench.inline_installs", static_cast<double>(t.inline_ns.size()));

  rep.set("native.schedule_ns_per_inject",
          t.schedule_ns / static_cast<double>(std::max<std::uint64_t>(
                              t.registered, 1)),
          "ns");
  rep.set("interp.ns_per_pkt", t.run_ns / exec, "ns");
  rep.count("sim.pending_max", static_cast<double>(t.pending_max));
  rep.count("sched.executed", exec);
  rep.count("sched.forwarded", static_cast<double>(t.forwarded));
  rep.count("sched.delayed_enqueues", static_cast<double>(t.delayed));
  rep.count("sched.control_injected",
            static_cast<double>(t.control_injected));
  rep.count("pisa.recirculations", static_cast<double>(t.recirculations));
  rep.set("pisa.stall_ns_total", static_cast<double>(t.stall_ns), "ns",
          Kind::Sim);
  rep.count("pisa.stalled_deliveries", static_cast<double>(t.stalled));
  const double flows =
      static_cast<double>(std::max<std::uint64_t>(t.new_flows, 1));
  rep.set("apps.SFW.cuckoo_recircs_per_flow",
          static_cast<double>(t.cuckoo_execs) / flows, "ratio", Kind::Count);
  rep.count("apps.SFW.install_failures",
            static_cast<double>(t.install_failures));
  rep.count("apps.SFW.leaked_entries", static_cast<double>(t.leaked));
  double load = 0;
  for (const double l : t.load) load += l;
  rep.set("apps.SFW.load_factor",
          t.load.empty() ? 0.0 : load / static_cast<double>(t.load.size()),
          "ratio", Kind::Count);

  rep.set("ctrl.submit_ns_per_batch",
          t.submit_ns / static_cast<double>(std::max<std::uint64_t>(
                            t.submits, 1)),
          "ns");
  rep.count("ctrl.batches_applied",
            static_cast<double>(t.ctrl.batches_applied));
  rep.count("ctrl.batches_rejected",
            static_cast<double>(t.ctrl.batches_rejected));
  rep.count("ctrl.apply_points", static_cast<double>(t.ctrl.apply_points));
  rep.set("ctrl.ops_per_apply_point",
          ctrl_ops / static_cast<double>(
                         std::max<std::uint64_t>(t.ctrl.apply_points, 1)),
          "ratio", Kind::Count);
  rep.count("ctrl.max_queue_depth",
            static_cast<double>(t.ctrl.max_queue_depth));
  rep.set("ctrl.update_path_busy_ns",
          static_cast<double>(t.ctrl.update_path_busy_ns), "ns", Kind::Sim);
}

/// The whole-run checks (the per-batch ones run in the completion
/// callback): no batch rejected, and the Fig 17 gate.
void check(const SfwTotals& t, Report& rep) {
  rep.attempt();
  if (t.ctrl.batches_rejected != 0) {
    rep.fail("control plane rejected " +
             std::to_string(t.ctrl.batches_rejected) + " batches");
  }
  rep.attempt();
  if (t.remote_us.size() < 100 || t.inline_ns.size() < 100) {
    rep.fail("too few install samples for the Fig 17 comparison");
    return;
  }
  double remote = 0;
  for (const double v : t.remote_us) remote += v * 1000.0;
  remote /= static_cast<double>(t.remote_us.size());
  double inline_ns = 0;
  for (const double v : t.inline_ns) inline_ns += v;
  inline_ns /= static_cast<double>(t.inline_ns.size());
  const double ratio = remote / std::max(inline_ns, 1.0);
  rep.set("bench.remote_over_inline", ratio, "ratio", Kind::Sim);
  rep.attempt();
  if (remote < 10'000.0 || remote > 40'000.0 || ratio < 100.0) {
    rep.fail("Fig 17 gate: remote mean " + std::to_string(remote) +
             " ns, integrated/remote " + std::to_string(ratio) + "x");
  }
}

}  // namespace

void run_sfw_control(const Options& opt, Report& rep) {
  const SfwParams p;
  rep.param("new_flows_per_s", p.new_flows_per_s);
  rep.param("packets_per_flow", p.packets_per_flow);
  rep.param("inter_packet_ns", p.inter_packet_ns);
  rep.param("hosts", p.hosts);
  rep.param("remote_installs_per_s", p.remote_installs_per_s);
  rep.param("cpu_tick_ns", p.cpu_tick_ns);
  rep.param("slice_ns", p.slice_ns);
  rep.param("feed_window_ns", p.feed_window_ns);
  rep.param("episode_sim_ns", p.episode_sim_ns);
  rep.param("sim_s_per_run_second", p.sim_s_per_host_s);
  rep.param("table_slots", p.table_slots);
  rep.param("load_sample_every", p.load_sample_every);
  rep.param("trace_slices", p.trace_slices);
  const double sim_ns = opt.seconds * p.sim_s_per_host_s * 1e9;
  const int episodes = std::max(
      1, static_cast<int>(std::ceil(sim_ns / static_cast<double>(
                                                 p.episode_sim_ns))));
  const int slices_per_episode = std::max(
      1, static_cast<int>(std::lround(sim_ns / episodes /
                                      static_cast<double>(p.slice_ns))));

  SfwTotals totals;
  auto first =
      std::make_unique<SfwRun>(opt, p, 0, totals, rep, /*record=*/true);
  mark_setup_done(opt, rep);
  rep.set("core.apps_compile_ms", first->compile_ms(), "ms");
  if (!first->ok() || opt.setup_only) return;

  run_pass(opt, p, std::move(first), episodes, slices_per_episode, totals,
           rep, /*record=*/true);
  report(totals, rep);
  write_steps(opt, totals.steps, rep);
  check(totals, rep);

  if (opt.trace) {
    // The first episode's first trace_slices slices.
    const int slices = std::min(p.trace_slices, slices_per_episode);
    measure_traced(opt, rep, [&] {
      SfwTotals sub;
      std::unique_ptr<SfwRun> run;
      {
        Span s("bench", "excluded");
        run = std::make_unique<SfwRun>(opt, p, 0, sub, rep, /*record=*/false);
      }
      run_pass(opt, p, std::move(run), 1, slices, sub, rep,
               /*record=*/false);
      if (sub.executed != totals.prefix_executed) {
        rep.fail("the traced subset executed a different packet count");
      }
      return SubsetRun{sub.wall_ms, sub.executed, sub.steps.mean_speed()};
    });
  }
}

}  // namespace perfbench
