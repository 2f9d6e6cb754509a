// compile-edit: the compile path at the size the ROADMAP uses. A seeded
// 512-decl frontend::progen program is cold-compiled through Layout and
// emitted to p4 and ebpf during set-up; then a stream of seeded
// edit_one_handler edits is compiled twice each, both timed:
//
//   edit   — CompilerDriver::recompile from the previous version's
//            compilation, then Layout and both emits;
//   cold   — a fresh compile of the same source, one run_until per stage,
//            then both emits.
//
// Checks: every recompile's artifacts and diagnostics are byte-equal to the
// cold compile of the same source, and (after the timed pass) each paper
// app's p4 and ebpf output is byte-equal to tests/golden/<APP>.{p4,c}.
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "apps/apps.hpp"
#include "common.hpp"
#include "core/backends.hpp"
#include "core/driver.hpp"
#include "frontend/progen.hpp"
#include "sim/rng.hpp"

namespace perfbench {
namespace {

using lucid::CompilationPtr;
using lucid::Stage;

/// Workload parameters (printed in the record; run.py checks them against
/// perfbench/workloads.json).
struct CompileParams {
  // 512 decls: 200 event+handler pairs, 90 consts, 12 arrays, 6 memops and
  // 4 funs. 240 handlers would estimate past eBPF's 65536-instruction
  // program limit, so the count is made up with consts.
  int handlers = 200;
  int consts = 90;
  /// Edits per host second of --seconds (sizes the run so it measures about
  /// --seconds on a 4-thread x86 host).
  double edits_per_s = 13.0;
  /// The program is the same on every seed (progen's own default seed), so
  /// run-to-run differences are the host's; --seed picks the edit stream.
  std::uint64_t program_seed = 0x5eedULL;
  int trace_edits = 40;  // the traced run repeats the first this many edits
};

/// A Tofino-like model with room for the generated program: 12 stages
/// cannot hold 200 handlers, and at 4 stateful ALUs per stage the layout
/// fails to converge for most seeds even with 64 stages, so every per-stage
/// budget is doubled.
lucid::opt::ResourceModel roomy_model() {
  lucid::opt::ResourceModel m;
  m.max_stages = 64;
  m.tables_per_stage = 16;
  m.salus_per_stage = 8;
  m.members_per_table = 24;
  m.alu_ops_per_stage = 28;
  return m;
}

/// Per-layer sample sinks, one set for cold compiles and one for edits.
struct LayerSamples {
  std::map<std::string, std::vector<double>> ms;      // layer -> ms samples
  std::map<std::string, std::vector<double>> counts;  // layer -> values
  std::vector<double> total_ms;                       // one compile + emit
};

struct CompileOut {
  std::string p4, ebpf, diags;
  bool ok = false;
};

/// The workload's compiler: the staged driver over a private backend
/// registry, timed per stage from outside, every StageRecord cross-checked
/// against that timing.
class Bench {
 public:
  explicit Bench(Report& rep) : rep_(rep) {
    lucid::register_default_backends(registry_);
    lucid::DriverOptions dopt;
    dopt.program_name = "progen";
    dopt.model = roomy_model();
    driver_ = std::make_unique<lucid::CompilerDriver>(dopt, &registry_);
  }

  /// Cold compile through Layout, one timed run_until per stage, then both
  /// emits. Stage times go to `s` (if given).
  CompilationPtr cold(const std::string& src, LayerSamples* s,
                      CompileOut* out) {
    const Clock::time_point c0 = Clock::now();
    CompilationPtr comp = driver_->start(src);
    static constexpr struct {
      Stage stage;
      const char* cat;
      const char* name;
    } kStages[] = {{Stage::Parse, "frontend", "parse"},
                   {Stage::Sema, "sema", "check"},
                   {Stage::Lower, "ir", "lower"},
                   {Stage::Layout, "opt", "layout"}};
    for (const auto& st : kStages) {
      const Clock::time_point t0 = Clock::now();
      {
        Span span(st.cat, st.name);
        driver_->run_until(comp, st.stage);
      }
      const double ms = ms_between(t0, Clock::now());
      if (s != nullptr) {
        const std::string layer = std::string(st.cat) + "." + st.name;
        s->ms[layer].push_back(ms);
        cross_check(layer, ms, comp->record(st.stage).wall_ms);
      }
    }
    emit_both(comp, s, out);
    if (s != nullptr) {
      s->total_ms.push_back(ms_between(c0, Clock::now()));
      record_counts(comp, *s, *out);
    }
    return comp;
  }

  /// Incremental recompile from `prev` (Parse..Lower inside the driver,
  /// split per stage by its StageRecords), then Layout and both emits.
  CompilationPtr edit(const lucid::ConstCompilationPtr& prev,
                      const std::string& src, LayerSamples& s,
                      CompileOut* out) {
    const Clock::time_point c0 = Clock::now();
    CompilationPtr comp;
    {
      Span span("core", "recompile");
      comp = driver_->recompile(prev, src);
    }
    const double front_ms = ms_between(c0, Clock::now());
    double records_ms = 0;
    static constexpr struct {
      Stage stage;
      const char* layer;
    } kFront[] = {{Stage::Parse, "frontend.parse"},
                  {Stage::Sema, "sema.check"},
                  {Stage::Lower, "ir.lower"}};
    for (const auto& st : kFront) {
      const double ms = comp->record(st.stage).wall_ms;
      s.ms[st.layer].push_back(ms);
      records_ms += ms;
    }
    cross_check("core.recompile", front_ms, records_ms);
    const Clock::time_point t0 = Clock::now();
    {
      Span span("opt", "layout");
      driver_->run_until(comp, Stage::Layout);
    }
    const double layout_ms = ms_between(t0, Clock::now());
    s.ms["opt.layout"].push_back(layout_ms);
    cross_check("opt.layout", layout_ms, comp->record(Stage::Layout).wall_ms);
    emit_both(comp, &s, out);
    s.total_ms.push_back(ms_between(c0, Clock::now()));
    record_counts(comp, s, *out);
    return comp;
  }

 private:
  void emit_both(const CompilationPtr& comp, LayerSamples* s,
                 CompileOut* out) {
    out->ok = true;
    for (const char* backend : {"p4", "ebpf"}) {
      const Clock::time_point t0 = Clock::now();
      lucid::BackendArtifact art;
      {
        Span span(backend, "emit");
        art = driver_->emit(comp, backend);
      }
      if (s != nullptr) {
        s->ms[std::string(backend) + ".emit"].push_back(
            ms_between(t0, Clock::now()));
      }
      out->ok = out->ok && art.ok;
      (std::string(backend) == "p4" ? out->p4 : out->ebpf) = art.text;
    }
    out->diags = comp->diags().render();
  }

  void record_counts(const CompilationPtr& comp, LayerSamples& s,
                     const CompileOut& out) {
    s.counts["frontend.decls_reused"].push_back(
        comp->record(Stage::Parse).decls_reused);
    s.counts["sema.decls_reused"].push_back(
        comp->record(Stage::Sema).decls_reused);
    s.counts["ir.decls_reused"].push_back(
        comp->record(Stage::Lower).decls_reused);
    s.counts["opt.handlers_reused"].push_back(
        comp->record(Stage::Layout).decls_reused);
    s.counts["opt.stages"].push_back(comp->pipeline().stage_count());
    s.counts["p4.bytes"].push_back(static_cast<double>(out.p4.size()));
    s.counts["ebpf.bytes"].push_back(static_cast<double>(out.ebpf.size()));
  }

  /// A stage record can never exceed the benchmark's timing of the call
  /// that ran it (small slack for clock reads inside the driver).
  void cross_check(const std::string& layer, double bench_ms,
                   double record_ms) {
    rep_.attempt();
    if (record_ms > bench_ms * 1.02 + 0.05) {
      rep_.fail(layer + ": StageRecord wall_ms " + std::to_string(record_ms) +
                " exceeds the enclosing call's " + std::to_string(bench_ms));
    }
  }

  Report& rep_;
  lucid::BackendRegistry registry_;
  std::unique_ptr<lucid::CompilerDriver> driver_;
};

std::string read_file(const std::string& path, bool* ok) {
  std::ifstream in(path, std::ios::binary);
  *ok = static_cast<bool>(in);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Each paper app through the default driver options, byte-compared with
/// the checked-in goldens (read-only).
void check_goldens(const std::string& dir, Report& rep) {
  lucid::BackendRegistry registry;
  lucid::register_default_backends(registry);
  for (const auto& spec : lucid::apps::all_apps()) {
    lucid::DriverOptions dopt;
    dopt.program_name = spec.key;
    const lucid::CompilerDriver driver(dopt, &registry);
    const CompilationPtr comp = driver.start(spec.source);
    for (const auto& [backend, ext] :
         std::vector<std::pair<std::string, std::string>>{{"p4", ".p4"},
                                                          {"ebpf", ".c"}}) {
      rep.attempt();
      const lucid::BackendArtifact art = driver.emit(comp, backend);
      bool ok = false;
      const std::string path = dir + "/" + spec.key + ext;
      const std::string want = read_file(path, &ok);
      if (!ok) {
        rep.fail("cannot read golden " + path);
      } else if (!art.ok || art.text != want) {
        rep.fail(spec.key + " " + backend + " differs from " + path);
      }
    }
  }
}

void report_layers(const LayerSamples& s, const char* suffix, Report& rep) {
  for (const auto& [layer, v] : s.ms) {
    rep.set(layer + "_ms." + suffix, median(v), "ms");
  }
  for (const auto& [layer, v] : s.counts) {
    double sum = 0;
    for (const double x : v) sum += x;
    rep.count(layer + "." + suffix,
              v.empty() ? 0.0 : sum / static_cast<double>(v.size()));
  }
}

}  // namespace

void run_compile_edit(const Options& opt, Report& rep) {
  const CompileParams p;
  const lucid::opt::ResourceModel model = roomy_model();
  rep.param("handlers", p.handlers);
  rep.param("consts", p.consts);
  rep.param("edits_per_run_second", p.edits_per_s);
  rep.param("program_seed", static_cast<double>(p.program_seed));
  rep.param("trace_edits", p.trace_edits);
  rep.param("max_stages", model.max_stages);
  rep.param("tables_per_stage", model.tables_per_stage);
  rep.param("salus_per_stage", model.salus_per_stage);
  rep.param("members_per_table", model.members_per_table);
  rep.param("alu_ops_per_stage", model.alu_ops_per_stage);
  lucid::frontend::ProgenConfig cfg;
  cfg.handlers = p.handlers;
  cfg.consts = p.consts;
  cfg.seed = p.program_seed;
  rep.param("decls", cfg.decl_count());
  rep.param("stmts_per_handler", cfg.stmts_per_handler);
  const std::string base = lucid::frontend::generate_program(cfg);
  const int edits = std::max(
      1, static_cast<int>(std::lround(opt.seconds * p.edits_per_s)));

  // The edit stream: each edit inserts a fresh statement at the top of a
  // seeded handler of the previous version.
  lucid::sim::Rng rng(opt.seed * 2654435761u + 7);
  std::vector<std::string> sources;
  sources.reserve(static_cast<std::size_t>(edits));
  std::string cur = base;
  for (int e = 0; e < edits; ++e) {
    const int which = static_cast<int>(rng.uniform(0, p.handlers - 1));
    cur = lucid::frontend::edit_one_handler(
        cur, which, " int __e" + std::to_string(e) + " = " +
                        std::to_string(e) + " + 1; ");
    sources.push_back(cur);
  }

  // --- set-up: the base program's cold compile ---------------------------
  Bench bench(rep);
  CompileOut base_out;
  rep.attempt();
  const Clock::time_point s0 = Clock::now();
  lucid::ConstCompilationPtr prev = bench.cold(base, nullptr, &base_out);
  rep.set("core.apps_compile_ms", ms_between(s0, Clock::now()), "ms");
  if (!prev->ok() || !base_out.ok) {
    rep.fail("base program failed to compile:\n" + base_out.diags);
    return;
  }
  mark_setup_done(opt, rep);
  if (opt.setup_only) return;

  auto pass = [&](int count, bool record, LayerSamples& cold_s,
                  LayerSamples& edit_s, StepLog& steps, double* wall_ms) {
    lucid::ConstCompilationPtr from = prev;
    double excluded_ms = 0;
    Span pass_span("bench", "timed_pass");
    const Clock::time_point w0 = Clock::now();
    for (int e = 0; e < count; ++e) {
      const std::string& src = sources[static_cast<std::size_t>(e)];
      CompileOut rec_out, cold_out;
      const Clock::time_point e0 = Clock::now();
      CompilationPtr rec;
      {
        Span span("bench", "edit");
        rec = bench.edit(from, src, edit_s, &rec_out);
      }
      CompilationPtr cold;
      {
        Span span("bench", "cold");
        cold = bench.cold(src, &cold_s, &cold_out);
      }
      excluded_ms += steps.add(0, 2.0, ms_between(e0, Clock::now()),
                               edit_s.total_ms.back());
      if (record) {
        const Clock::time_point c0 = Clock::now();
        rep.attempt(2);
        if (!rec_out.ok || !cold_out.ok) {
          rep.fail("edit " + std::to_string(e) + " failed to compile:\n" +
                   cold_out.diags);
        }
        if (rec_out.p4 != cold_out.p4 || rec_out.ebpf != cold_out.ebpf ||
            rec_out.diags != cold_out.diags) {
          rep.fail("edit " + std::to_string(e) +
                   ": recompile differs from the cold compile");
        }
        excluded_ms += ms_between(c0, Clock::now());
      }
      from = cold;
    }
    *wall_ms = ms_between(w0, Clock::now()) - excluded_ms;
  };

  LayerSamples cold_s, edit_s;
  StepLog steps;
  double wall_ms = 0;
  pass(edits, /*record=*/true, cold_s, edit_s, steps, &wall_ms);

  write_steps(opt, steps, rep);
  rep.set("compile_ms_p50", median(cold_s.total_ms), "ms");
  rep.set("compile_ms_p90", percentile(cold_s.total_ms, 0.90), "ms");
  rep.set("recompile_ms_p50", median(edit_s.total_ms), "ms");
  rep.set("recompile_ms_p99", percentile(edit_s.total_ms, 0.99), "ms");
  rep.count("bench.step_samples", static_cast<double>(edits));
  rep.set("bench.untraced_wall_ms", wall_ms, "ms");
  report_layers(cold_s, "cold", rep);
  report_layers(edit_s, "edit", rep);

  check_goldens(opt.golden_dir, rep);

  if (opt.trace) {
    measure_traced(opt, rep, [&] {
      LayerSamples tc, te;
      StepLog ts;
      double ms = 0;
      const int count = std::min(edits, p.trace_edits);
      pass(count, /*record=*/false, tc, te, ts, &ms);
      return SubsetRun{ms, static_cast<std::uint64_t>(count),
                       ts.mean_speed()};
    });
  }
}

}  // namespace perfbench
