#!/usr/bin/env python3
r"""End-to-end benchmark for the Lucid compiler, data paths and control plane.

Run from the root of a source tree:

    python3 perfbench/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1>

It builds perfbench/ (a CMake project over the tree's libraries) into
.bench_build/, runs the named workload from the seed, checks the outputs
against independent references, and prints as its last stdout line one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are every end_to_end metric of BENCHMARK.json, with --trace 1 every
per_layer metric (layers a workload does not exercise read 0). End-to-end
times are scaled to a reference host speed (repeat_stats). The line
before it, prefixed "# meta ", carries host metadata and each metric's kind
(host time, compared within bounds; sim time or count, compared exactly).
The full record, and on traced runs the Chrome trace, are kept under
.bench_build/results/.

Exit codes: 0 success, 1 a check failed (the result line says so),
2 usage or environment error (no result line).
"""

import argparse
import array
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
DEADLINE_S = 170  # every run must end within 180 s, build excluded
# A run is split over this many processes that each do the same work.
PROCESSES = 2
# The host speed (host_speed() iterations per microsecond) that the
# end-to-end times are scaled to (repeat_stats).
REFERENCE_SPEED = 100.0
# setup_s is the median over at least SETUP_SAMPLES processes (the
# measuring ones plus set-up-only ones); cheap set-ups get more, up to
# SETUP_SAMPLES_MAX while the set-up-only processes take under
# SETUP_SAMPLING_S.
SETUP_SAMPLES = 5
SETUP_SAMPLES_MAX = 15
SETUP_SAMPLING_S = 2.0

# Library spans (sampled almost entirely away in traced runs, but the first
# one on each thread is recorded) folded into the benchmark's layer names.
COMPILER_STAGE_LAYER = {
    "parse": "frontend.parse",
    "sema": "sema.check",
    "lower": "ir.lower",
    "layout": "opt.layout",
}
EXCLUDED_LAYER = "bench.excluded"  # untimed work inside a traced pass


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    """Configures (once) and builds the benchmark binary; returns its path."""
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "lucid_perfbench",
                  "-j", jobs])
    with open(log_path, "w", encoding="utf-8") as log:
        for cmd in steps:
            rc = subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT)
            if rc != 0:
                with open(log_path, encoding="utf-8") as f:
                    tail = f.read()[-4000:]
                print(tail, file=sys.stderr)
                die(f"build step failed: {' '.join(cmd)}")
    return os.path.join(bdir, "lucid_perfbench")


def cmake_cache(bdir, key):
    try:
        with open(os.path.join(bdir, "CMakeCache.txt"), encoding="utf-8") as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def host_metadata(bdir, seed):
    cxx = cmake_cache(bdir, "CMAKE_CXX_COMPILER")
    try:
        cxx_version = subprocess.run([cxx, "--version"], capture_output=True,
                                     text=True, timeout=10).stdout
        cxx_version = cxx_version.splitlines()[0] if cxx_version else ""
    except (OSError, subprocess.SubprocessError):
        cxx_version = ""
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            commit = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor(),
        "compiler": cxx,
        "compiler_version": cxx_version,
        "build_type": cmake_cache(bdir, "CMAKE_BUILD_TYPE"),
        "jit_compiler": os.environ.get("LUCID_NATIVE_CXX", cxx),
        "seed": seed,
        "git_commit": commit,
    }


def run_child(binary, args, tmp_root, deadline):
    """Runs the benchmark binary once with a fresh TMPDIR (removed after)
    and returns its last-line JSON record."""
    tmp = tempfile.mkdtemp(prefix="run-", dir=tmp_root)
    env = dict(os.environ, TMPDIR=tmp)
    try:
        spawn_ns = time.monotonic_ns()
        proc = subprocess.Popen([binary, *args, "--spawn-ns", str(spawn_ns)],
                                stdout=subprocess.PIPE, env=env, text=True)
        try:
            out, _ = proc.communicate(
                timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            die("benchmark process timed out")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        die(f"benchmark process printed no record (exit {proc.returncode})")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        die("benchmark process printed a malformed record")
    return None


def layer_of(ev, parent_layer):
    cat, name = ev.get("cat", ""), ev.get("name", "")
    if parent_layer == EXCLUDED_LAYER:
        return EXCLUDED_LAYER  # everything under an untimed span
    if cat == "compiler":
        return COMPILER_STAGE_LAYER.get(name, parent_layer or "core.driver")
    if cat == "interp":
        return "interp.handlers"
    if cat == "sema":
        return "sema.check"
    return f"{cat}.{name}"


def self_times(trace_path):
    """Per-layer self time (ms): span duration minus the part its child spans
    cover, with children found by nesting on each thread."""
    events = load_json(trace_path).get("traceEvents", [])
    spans = [e for e in events if e.get("ph") == "X"]
    by_tid = {}
    for e in spans:
        by_tid.setdefault(e.get("tid"), []).append(e)
    totals = {}
    for evs in by_tid.values():
        evs.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # entries: [end, layer, dur, child_sum]
        def close(entry):
            totals[entry[1]] = totals.get(entry[1], 0.0) + entry[2] - entry[3]
        for e in evs:
            start, dur = e["ts"], e["dur"]
            while stack and stack[-1][0] <= start:
                close(stack.pop())
            parent = stack[-1] if stack else None
            layer = layer_of(e, parent[1] if parent else None)
            if parent:
                parent[3] += dur
            stack.append([start + dur, layer, dur, 0.0])
        while stack:
            close(stack.pop())
    return {k: v / 1000.0 for k, v in totals.items()}  # us -> ms


def percentile(values, q):
    """Nearest-rank percentile, as the benchmark binary computes it."""
    if not values:
        return 0.0
    v = sorted(values)
    return v[min(len(v) - 1, int(q * (len(v) - 1) + 0.5))]


def read_steps(path):
    """A process's step log: (group, ops, ms, latency_ms, speed) per step."""
    data = array.array("d")
    with open(path, "rb") as f:
        data.frombytes(f.read())
    return [tuple(data[i:i + 5]) for i in range(0, len(data), 5)]


def at_reference_speed(log):
    """The step log with every time scaled to REFERENCE_SPEED by the host's
    speed sampled next to it: the first sample taken after the step, or for
    the steps after the last sample, that one."""
    speed = next((step[4] for step in reversed(log) if step[4] > 0),
                 REFERENCE_SPEED)
    out = []
    for group, ops, ms, latency, sample in reversed(log):
        if sample > 0:
            speed = sample
        f = speed / REFERENCE_SPEED
        out.append((group, ops, ms * f, latency * f))
    out.reverse()
    return out


def repeat_stats(logs):
    """End-to-end figures from the step logs of a run's processes.

    The host's speed drifts by up to ~1.8x, in phases of seconds to minutes,
    with what else it runs. So every step's time is first scaled to
    REFERENCE_SPEED by the speed of a fixed kernel that the program under
    test never touches (host_speed() in the binary, sampled every ~20 ms of
    steps). Then every step of every process counts, none is dropped:
    ops_per_s is all operations over all scaled time, and the step
    percentiles are over the steps, each the mean of its repeats (every
    process runs the same steps). Returns None if the processes did not run
    the same steps."""
    first = logs[0]
    for other in logs[1:]:
        if len(other) != len(first) or any(
                a[0] != b[0] or a[1] != b[1] for a, b in zip(first, other)):
            return None
    scaled = [at_reference_speed(log) for log in logs]
    ops = sum(step[1] for log in scaled for step in log)
    ms = sum(step[2] for log in scaled for step in log)
    latencies = [sum(col) / len(col) for col in zip(*(
        [step[3] for step in log] for log in scaled))]
    return {
        "ops_per_s": ops / (ms / 1000.0) if ms > 0 else 0.0,
        "step_ms_p50": percentile(latencies, 0.5),
        "step_ms_p90": percentile(latencies, 0.9),
    }


def host_speed(logs):
    """Median of the host-speed samples of a run's step logs."""
    samples = [step[4] for log in logs for step in log if step[4] > 0]
    return statistics.median(samples) if samples else 0.0


def setup_at_reference_speed(record):
    """A process's setup_s scaled to REFERENCE_SPEED by the host's speed
    sampled right after its set-up."""
    m = record["metrics"]
    if "setup_s" not in m or "bench.setup_host_speed" not in m:
        die("a benchmark process reported no set-up time")
    return (m["setup_s"]["value"] * m["bench.setup_host_speed"]["value"] /
            REFERENCE_SPEED)


def check_params(record, expected):
    """The binary's own parameters must be the ones workloads.json states."""
    got = record.get("params", {})
    if set(got) != set(expected) or any(
            float(got[k]) != float(v) for k, v in expected.items()):
        return [f"workload parameters {got} differ from perfbench/"
                f"workloads.json {expected}"]
    return []


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    start = time.monotonic()

    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        die(f"no Lucid source tree at {ROOT}")
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    params = load_json(os.path.join(BENCH_DIR, "workloads.json"))
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names or args.workload not in params["workloads"]:
        die(f"unknown workload '{args.workload}' (known: {', '.join(names)})")
    if args.seconds <= 0:
        die("--seconds must be positive")
    wparams = params["workloads"][args.workload]

    bdir = build_dir()
    binary = build(bdir)
    build_s = time.monotonic() - start
    deadline = time.monotonic() + DEADLINE_S
    tmp_root = os.path.join(os.path.dirname(bdir), "tmp")
    results_dir = os.path.join(os.path.dirname(bdir), "results")
    os.makedirs(tmp_root, exist_ok=True)
    os.makedirs(results_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    trace_path = os.path.join(results_dir, stem + ".trace.json")

    # The measurement is split over PROCESSES fresh processes, each doing
    # the same work (same seed, an equal share of --seconds): a process's
    # speed depends on where the host puts its code and memory and on what
    # else the host runs meanwhile. Their step logs give the end-to-end
    # figures (repeat_stats); other host-time figures are the median over
    # the processes; sim-time figures and counts must agree exactly.
    base = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds / PROCESSES),
            "--golden-dir", os.path.join(ROOT, "tests", "golden")]
    records = []
    logs = []
    for k in range(PROCESSES):
        steps_path = os.path.join(tmp_root, f"{stem}-{os.getpid()}-{k}.steps")
        run_args = base + ["--trace", "1" if args.trace and k == 0 else "0",
                           "--steps-out", steps_path]
        if args.trace and k == 0:
            run_args += ["--trace-out", trace_path]
        try:
            records.append(run_child(binary, run_args, tmp_root, deadline))
            if os.path.exists(steps_path):
                logs.append(read_steps(steps_path))
        finally:
            if os.path.exists(steps_path):
                os.remove(steps_path)
    # Set-up time: the median over every process, plus set-up-only ones (the
    # JIT's module cache is per process, so each process pays the full
    # set-up).
    setups = [setup_at_reference_speed(r) for r in records]
    sampling = time.monotonic()
    while len(setups) < SETUP_SAMPLES or (
            len(setups) < SETUP_SAMPLES_MAX and
            time.monotonic() - sampling < SETUP_SAMPLING_S):
        rec = run_child(binary, base + ["--setup-only"], tmp_root, deadline)
        if not rec["correct"]:
            die("set-up-only run failed: " + "; ".join(rec.get("errors", [])))
        setups.append(setup_at_reference_speed(rec))

    problems = []
    for r in records:
        problems += check_params(r, wparams["params"])
    metrics = dict(records[0]["metrics"])
    for name, m in metrics.items():
        values = [r["metrics"][name]["value"] for r in records
                  if name in r["metrics"]]
        if m.get("kind") == "host":
            metrics[name] = dict(m, value=statistics.median(values))
        elif any(v != m["value"] for v in values):
            problems.append(f"{m.get('kind')} metric {name} differs between "
                            f"processes of one seed: {values}")
    if len(logs) == PROCESSES:
        figures = repeat_stats(logs)
        if figures is None:
            problems.append("the processes of one seed ran different steps")
            figures = {}
        for name, value in figures.items():
            unit = "1/s" if name == "ops_per_s" else "ms"
            metrics[name] = {"value": value, "unit": unit, "kind": "host"}
        metrics["bench.host_speed"] = {"value": host_speed(logs),
                                       "unit": "1/us", "kind": "host"}
    if setups:
        metrics["setup_s"] = dict(metrics["setup_s"],
                                  value=statistics.median(setups))

    if args.trace and os.path.exists(trace_path):
        selfs = self_times(trace_path)
        for layer, ms in selfs.items():
            metrics["self_ms." + layer] = {"value": ms, "unit": "ms",
                                           "kind": "host"}
        wall = metrics.get("bench.trace_base_ms", {}).get("value", 0)
        covered = sum(ms for l, ms in selfs.items() if l != EXCLUDED_LAYER)
        if wall > 0:
            metrics["obs.self_sum_over_wall"] = {
                "value": covered / wall, "unit": "ratio", "kind": "host"}

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    out_metrics = {}
    for m in declared:
        got = metrics.get(m["name"])
        if got is None:
            if not args.trace:
                problems.append(f"metric {m['name']} missing")
            got = {"value": 0, "unit": m["unit"]}
        elif got["unit"] != m["unit"]:
            problems.append(f"metric {m['name']} unit {got['unit']} != "
                            f"{m['unit']}")
        out_metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)

    failed = sum(int(r["failed"]) for r in records) + len(problems)
    attempted = max(1, sum(int(r["attempted"]) for r in records) +
                    len(problems))
    result = {
        "correct": all(r["correct"] for r in records) and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": out_metrics,
    }
    meta = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "build_s": round(build_s, 3),
        "setup_s_samples": setups,
        "host": host_metadata(bdir, args.seed),
        "kinds": {k: v.get("kind", "host") for k, v in metrics.items()},
        "processes": PROCESSES,
        "process_ops_per_s": [
            sum(st[1] for st in log) / (sum(st[2] for st in log) / 1000.0)
            for log in logs if sum(st[2] for st in log) > 0],
        "params": wparams["params"],
        "errors": [e for r in records for e in r.get("errors", [])] + problems,
    }
    with open(os.path.join(results_dir, stem + ".json"), "w",
              encoding="utf-8") as f:
        json.dump({"meta": meta, "result": result, "all_metrics": metrics}, f,
                  indent=1, sort_keys=True)
    print("# meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
