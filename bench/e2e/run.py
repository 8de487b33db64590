#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the CRISP flow.

    python3 bench/e2e/run.py --workload flow_all --seed 1 --seconds 15 --trace 0
    python3 bench/e2e/run.py --regen-expected
    python3 bench/e2e/run.py --compare PARENT.jsonl CHANGE.jsonl
    python3 bench/e2e/run.py --smoke

A run builds crisp_sim, crisp_layers and calibrate into
.bench_build/e2e, sets up, then runs passes over the workload's
crisp_sim invocations until --seconds have elapsed. With --trace 0
it reports the end-to-end metrics of BENCHMARK.json, with --trace 1
the per-layer ones. Every invocation's result lines are checked
against expected.json. The last stdout line is the JSON result. See
README.md.
"""

import argparse
import contextlib
import json
import math
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "e2e"
EXPECTED = HERE / "expected.json"

SETUP_REPS = 3
CHILD_TIMEOUT_S = 60
# The calibrate kernel's median time on the reference host (4-core
# Intel Xeon, quiet). End-to-end times are scaled by CAL_REF_S over
# the kernel's median time around them: reported at that host's speed.
CAL_REF_S = 0.04
VARIANTS = ("ooo", "ibda", "crisp")
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
# crisp_sim stdout lines that carry results; the rest is banner text
# or notes about files written.
RESULT_RE = re.compile(
    r"^(analysis:|sampled :|(ooo|ibda|crisp) +IPC |\s+\w+ speedup )")


class BenchError(Exception):
    pass


def nproc():
    return len(os.sched_getaffinity(0))


def load_json(path):
    with open(path) as f:
        return json.load(f)


# ---------------------------------------------------------------- build


def read_cmake_cache():
    cache = {}
    path = BUILD / "CMakeCache.txt"
    if path.exists():
        for line in path.read_text().splitlines():
            m = re.match(r"^([A-Za-z_][A-Za-z0-9_]*):[A-Z]+=(.*)$", line)
            if m:
                cache[m.group(1)] = m.group(2)
    return cache


def build():
    """Builds the tools and returns (crisp_sim, crisp_layers,
    calibrate). Exits 2 on a checked or sanitized build, whose timings
    mean nothing."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no CRISP sources next to {HERE}")
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD.parent / "e2e-build.log"
    build_type = [] if (BUILD / "CMakeCache.txt").exists() \
        else ["-DCMAKE_BUILD_TYPE=Release"]
    with open(log, "w") as f:
        def step(cmd):
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT).returncode:
                tail = log.read_text().splitlines()[-20:]
                raise BenchError("build failed:\n" + "\n".join(tail))

        step(["cmake", "-S", str(HERE), "-B", str(BUILD), *build_type])
        cache = read_cmake_cache()
        if cache.get("CRISP_CHECKED", "OFF").upper() in ("ON", "1", "TRUE", "YES") \
                or cache.get("CRISP_SANITIZE", ""):
            print(f"run.py: {BUILD} is a CRISP_CHECKED or CRISP_SANITIZE "
                  "build; refusing to time it", file=sys.stderr)
            sys.exit(2)
        step(["cmake", "--build", str(BUILD), "--target", "crisp_sim",
              "crisp_layers", "calibrate", "-j", str(min(4, nproc()))])
    return (BUILD / "crisp" / "tools" / "crisp_sim", BUILD / "crisp_layers",
            BUILD / "calibrate")


def provenance(load_before):
    cache = read_cmake_cache()
    prov = {"commit": None, "dirty": None,
            "compiler": cache.get("CMAKE_CXX_COMPILER"),
            "build_type": cache.get("CMAKE_BUILD_TYPE"),
            "compile_command": None, "nproc": nproc(), "cpu_model": None,
            "loadavg_before": load_before,
            "loadavg_after": os.getloadavg()}
    if (ROOT / ".git").exists():
        git = ["git", "-C", str(ROOT)]
        rev = subprocess.run(git + ["rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if rev.returncode == 0:
            prov["commit"] = rev.stdout.strip()
            status = subprocess.run(git + ["status", "--porcelain"],
                                    capture_output=True, text=True)
            prov["dirty"] = bool(status.stdout.strip())
    try:
        for entry in load_json(BUILD / "compile_commands.json"):
            if entry["file"].endswith("src/sim/driver.cc"):
                prov["compile_command"] = entry["command"].replace(
                    str(ROOT) + "/", "")
                break
    except (OSError, ValueError, KeyError):
        pass
    try:
        for line in open("/proc/cpuinfo"):
            if line.startswith("model name"):
                prov["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return prov


# ---------------------------------------------------------- invocations


def invocations(spec, smoke=False):
    """The crisp_sim argument lists of a workload. Smoke shapes keep
    two invocations and shrink every trace to 20k ops."""
    out = []
    for extra in spec["each"][:2] if smoke else spec["each"]:
        args = list(spec["base"]) + list(extra)
        if smoke:
            for flag, value in (("--train", "20000"), ("--ref", "20000"),
                                ("--sample", "5000:2000")):
                if flag in args:
                    args[args.index(flag) + 1] = value
        out.append(args)
    return out


def runnable(args):
    """Caps --jobs at nproc; results are identical at any job count."""
    args = list(args)
    if "--jobs" in args:
        i = args.index("--jobs") + 1
        args[i] = str(min(int(args[i]), nproc()))
    return args


def without_sample(args):
    args = list(args)
    i = args.index("--sample")
    del args[i:i + 2]
    return args


def result_lines(stdout):
    return [l.rstrip() for l in stdout.splitlines() if RESULT_RE.match(l)]


# ---------------------------------------------------------------- children


class Child:
    def __init__(self, rc, wall, rss_mb, stdout, stderr):
        self.rc, self.wall, self.rss_mb = rc, wall, rss_mb
        self.stdout, self.stderr = stdout, stderr


def run_child(argv, cwd):
    """Runs one process to completion with stdout/stderr in files;
    returns its exit code, wall seconds and max RSS (os.wait4)."""
    out, err = cwd / "child.out", cwd / "child.err"
    with open(out, "wb") as fo, open(err, "wb") as fe:
        t0 = time.perf_counter()
        p = subprocess.Popen([str(a) for a in argv], cwd=cwd,
                             stdout=fo, stderr=fe)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, p.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(p.pid, 0)
        except BaseException:
            p.kill()
            p.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return Child(p.returncode, wall, usage.ru_maxrss / 1024.0,
                 out.read_text(), err.read_text())


class Tally:
    """Counts invocations attempted and failed. A failure is a
    non-zero exit or result lines that differ from the golden ones."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, child, what, lines):
        self.attempted += 1
        if child.rc != 0:
            problem = f"exit {child.rc}: {child.stderr.strip()[-300:]}"
        elif result_lines(child.stdout) != lines:
            problem = ("result lines differ:\n  got  " +
                       "\n  got  ".join(result_lines(child.stdout)) +
                       "\n  want " + "\n  want ".join(lines))
        else:
            return True
        self.failed += 1
        print(f"run.py: {what}: {problem}", file=sys.stderr)
        return False


# ------------------------------------------------------------- golden file


def golden_entry(sim, args, tmp):
    """Result lines and retired-op counts of one invocation, plus the
    full-run IPCs that a sampled invocation is measured against."""
    child = run_child([sim, *runnable(args), "--stats-json", "golden.json"], tmp)
    if child.rc != 0:
        raise BenchError(f"{' '.join(args)}: exit {child.rc}: {child.stderr}")
    stats = load_json(tmp / "golden.json")
    entry = {"args": args, "lines": result_lines(child.stdout),
             "retired": {v: stats[v]["core"]["retired"]
                         for v in VARIANTS if v in stats}}
    if "--sample" in args:
        full = run_child([sim, *runnable(without_sample(args)),
                          "--stats-json", "full.json"], tmp)
        if full.rc != 0:
            raise BenchError(f"full run of {' '.join(args)}: exit {full.rc}")
        stats = load_json(tmp / "full.json")
        entry["full_ipc"] = {v: stats[v]["core"]["ipc"]
                             for v in VARIANTS if v in stats}
    return entry


def golden(sim, workloads, smoke, tmp):
    done = {}
    out = {}
    for name, spec in workloads.items():
        out[name] = []
        for args in invocations(spec, smoke):
            key = tuple(args)
            if key not in done:
                done[key] = golden_entry(sim, args, tmp)
            out[name].append(done[key])
    return out


def expected_for(name, invs):
    if not EXPECTED.exists():
        raise BenchError(f"{EXPECTED} missing; run --regen-expected")
    entries = load_json(EXPECTED).get(name)
    if entries is None or [e["args"] for e in entries] != invs:
        raise BenchError(f"{EXPECTED} does not match workloads.json for "
                         f"{name}; run --regen-expected")
    return entries


# ------------------------------------------------------------ trace files


def load_events(path):
    return load_json(path)["traceEvents"]


def nest(events):
    """Checks that the 'X' spans of every thread nest properly and
    returns them as (event, parent event or None) pairs."""
    eps = 1e-3  # us; timestamps are printed in fractional us
    by_tid = defaultdict(list)
    for ev in events:
        if ev["ph"] == "X":
            by_tid[ev["tid"]].append(ev)
    out = []
    for spans in by_tid.values():
        spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []
        for ev in spans:
            while stack and stack[-1]["ts"] + stack[-1]["dur"] <= ev["ts"] + eps:
                stack.pop()
            parent = stack[-1] if stack else None
            if parent and ev["ts"] + ev["dur"] > parent["ts"] + parent["dur"] + eps:
                raise BenchError(f"span {ev['name']} overlaps {parent['name']} "
                                 "without nesting")
            out.append((ev, parent))
            stack.append(ev)
    return out


def summarize_layers(events, wall):
    """Per-layer totals from one crisp_layers trace. Benchmark spans
    (category 'bench') never nest in one another outside 'probe', so
    each one's self time is its duration."""
    s = {"dur": defaultdict(float), "ops": 0, "roots": 0, "reads": 0,
         "hits": 0, "bytes": 0, "intervals": 0}
    attributed = probe = 0.0
    for ev, parent in nest(events):
        if ev["name"] == "sampled.interval":
            s["intervals"] += 1
        if ev["cat"] != "bench":
            continue
        dur = ev["dur"] / 1e6
        arg = int(next(iter(ev.get("args", {}).values()), 0))
        s["dur"][ev["name"]] += dur
        if ev["name"] == "probe":
            probe += dur
        elif parent is None:
            attributed += dur
        if ev["name"] == "vm.trace":
            s["ops"] += arg
        elif ev["name"] == "core.slice":
            s["roots"] += arg
        elif ev["name"] == "sim.warmstore.read":
            s["reads"] += 1
            s["hits"] += arg > 0
            s["bytes"] += arg
    s["replay_wall"] = wall - probe
    s["unattributed"] = wall - probe - attributed
    return s


def summarize_runtime(events, wall):
    """Pool, cache and coverage totals from crisp_sim --trace-runtime."""
    s = {"busy": 0.0, "queue_wait": 0.0, "cache_wait": 0.0,
         "cache_hits": 0, "cache_misses": 0}
    begins = {}
    intervals = []
    for ev, _ in nest(events):
        dur = ev["dur"] / 1e6
        intervals.append((ev["ts"], ev["ts"] + ev["dur"]))
        if ev["name"] in ("pool.task", "pool.stream_task"):
            s["busy"] += dur
        elif ev["name"] == "cache.wait":
            s["cache_wait"] += dur
            s["cache_hits"] += 1
        elif ev["name"] == "cache.compute":
            s["cache_misses"] += 1
    for ev in events:
        if ev["ph"] == "b":
            begins[ev["id"]] = ev["ts"]
        elif ev["ph"] == "e" and ev["id"] in begins:
            s["queue_wait"] += (ev["ts"] - begins.pop(ev["id"])) / 1e6
    covered, end = 0.0, -math.inf
    for lo, hi in sorted(intervals):
        lo = max(lo, end)
        if hi > lo:
            covered += hi - lo
        end = max(end, hi)
    s["uncovered"] = max(0.0, wall - covered / 1e6)
    return s


# ------------------------------------------------------------ measurement


def calibrate(kernel, tmp, cal):
    child = run_child([kernel], tmp)
    if child.rc != 0:
        raise BenchError(f"calibrate: exit {child.rc}")
    cal.append(float(child.stdout.split()[0]))


def measure(spec, invs, expected, seed, seconds, trace, tools, tmp,
            setup_reps):
    """Set-up, then passes until `seconds` have elapsed. Returns the
    set-up times, the per-pass samples and the tally.

    Untraced runs time the calibration kernel after each set-up and
    each invocation, and scale the set-up times by the set-up's median
    calibration and each pass's times (as 'norm') by that pass's, to
    the reference host speed CAL_REF_S."""
    sim, layers, kernel = tools
    tally = Tally()
    store = tmp / "store" if spec.get("store") else None
    extra = ["--artifact-dir", str(store)] if store else []

    setup, setup_cal = [], []
    for _ in range(setup_reps):
        t0 = time.perf_counter()
        if store:
            # Populating the store is the set-up; each repetition
            # starts empty and the last one serves the timed passes.
            shutil.rmtree(store, ignore_errors=True)
            for args, exp in zip(invs, expected):
                tally.check(run_child([sim, *runnable(args), *extra], tmp),
                            "set-up", exp["lines"])
        else:
            tally.check(run_child([sim, *runnable(invs[0])], tmp),
                        "set-up", expected[0]["lines"])
        setup.append(time.perf_counter() - t0)
        if not trace:
            calibrate(kernel, tmp, setup_cal)
    if setup_cal:
        setup = [t * CAL_REF_S / statistics.median(setup_cal) for t in setup]

    rng = random.Random(seed)
    passes = []
    start = time.perf_counter()
    while True:
        order = list(range(len(invs)))
        rng.shuffle(order)
        samples, cal = {}, []
        for i in order:
            argv = [*runnable(invs[i]), *extra]
            lines = expected[i]["lines"]
            what = " ".join(invs[i])
            if not trace:
                child = run_child([sim, *argv], tmp)
                if tally.check(child, what, lines):
                    samples[i] = {"wall": child.wall, "rss_mb": child.rss_mb}
                calibrate(kernel, tmp, cal)
                continue
            lay = run_child([layers, "--out", tmp / "layers.json", *argv], tmp)
            traced = run_child([sim, *argv, "--trace-runtime", tmp / "rt.json",
                                "--stats-json", tmp / "stats.json"], tmp)
            plain = run_child([sim, *argv], tmp)
            ok = [tally.check(lay, "crisp_layers " + what, lines),
                  tally.check(traced, "traced " + what, lines),
                  tally.check(plain, what, lines)]
            if all(ok):
                samples[i] = {
                    "layers": summarize_layers(load_events(tmp / "layers.json"),
                                               lay.wall),
                    "runtime": summarize_runtime(load_events(tmp / "rt.json"),
                                                 traced.wall),
                    "stats": load_json(tmp / "stats.json"),
                    "wall_traced": traced.wall, "wall": plain.wall}
        if cal:
            scale = CAL_REF_S / statistics.median(cal)
            for sample in samples.values():
                sample["norm"] = sample["wall"] * scale
        passes.append(samples)
        if time.perf_counter() - start >= seconds:
            break
    return setup, passes, tally


def end_to_end(setup, passes, expected):
    """A pass takes the sum over invocations of each one's median
    calibrated time across the run's passes."""
    walls, rss = [], []
    for i in range(len(expected)):
        got = [p[i] for p in passes if i in p]
        if got:
            walls.append(statistics.median(s["norm"] for s in got))
            rss.append(statistics.median(s["rss_mb"] for s in got))
    wall = sum(walls)
    ops = sum(sum(e["retired"].values()) for e in expected)
    return {"wall_s": wall,
            "sim_kops_per_s": ops / wall / 1000 if wall else 0.0,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": max(rss, default=0.0)}


def stat(stats, variant, *path):
    node = stats.get(variant, {})
    for key in path:
        node = node.get(key, {})
    return node if isinstance(node, (int, float)) else 0


def layer_metrics(samples, invs, expected):
    """Per-layer metrics of one pass."""
    m = defaultdict(float)
    dur = defaultdict(float)
    full_ops = 0
    speedups, ipc_err = [], 0.0
    dram_lat = defaultdict(float)
    tot = defaultdict(float)
    for i, s in samples.items():
        L, R, st = s["layers"], s["runtime"], s["stats"]
        for k, v in L["dur"].items():
            dur[k] += v
        for k in ("ops", "roots", "reads", "hits", "bytes", "intervals",
                  "replay_wall", "unattributed"):
            tot["l." + k] += L[k]
        for k in ("busy", "queue_wait", "cache_wait", "cache_hits",
                  "cache_misses", "uncovered"):
            tot["r." + k] += R[k]
        tot["wall_traced"] += s["wall_traced"]
        tot["wall"] += s["wall"]
        if "--sample" not in invs[i]:
            full_ops += sum(expected[i]["retired"].values())
        for v in VARIANTS:
            m[f"cpu.cycles.{v}"] += stat(st, v, "core", "cycles")
            m[f"cpu.rob_head_stall_cycles.{v}"] += stat(
                st, v, "core", "rob_head_stall_cycles")
            m[f"bp.cond_mispredicts.{v}"] += stat(
                st, v, "frontend", "cond_mispredicts")
            m[f"cache.l1d.misses.{v}"] += stat(st, v, "cache", "l1d", "misses")
            m[f"cache.llc.misses.{v}"] += stat(st, v, "cache", "llc", "misses")
            m[f"cache.llc.mshr_stall_cycles.{v}"] += stat(
                st, v, "cache", "llc", "mshr_stall_cycles")
            m[f"dram.reads.{v}"] += stat(st, v, "dram", "reads")
            m[f"dram.row_hits.{v}"] += stat(st, v, "dram", "row_hits")
            dram_lat[v] += stat(st, v, "dram", "total_latency")
            full = expected[i].get("full_ipc", {}).get(v)
            if full:
                ipc_err = max(ipc_err, abs(stat(st, v, "core", "ipc") / full - 1))
        m["cpu.issued_prioritized.crisp"] += stat(
            st, "crisp", "core", "issued_prioritized")
        m["ibda.marked.ibda"] += stat(st, "ibda", "ibda", "marked")
        m["ibda.ist_evictions.ibda"] += stat(st, "ibda", "ibda", "ist_evictions")
        base = stat(st, "ooo", "core", "ipc")
        if base and stat(st, "crisp", "core", "ipc"):
            speedups.append(stat(st, "crisp", "core", "ipc") / base)

    def ratio(a, b):
        return a / b if b else 0.0

    m["vm.trace_s"] = dur["vm.trace"]
    m["vm.kops_per_s"] = ratio(tot["l.ops"], dur["vm.trace"]) / 1000
    for name in ("analyze", "profile", "producers", "slice", "tag_trace"):
        m[f"core.{name}_s"] = dur[f"core.{name}"]
    m["core.slice_roots"] = tot["l.roots"]
    sim_s = 0.0
    for v in VARIANTS:
        m[f"cpu.sim_s.{v}"] = dur[f"cpu.sim.{v}"]
        sim_s += dur[f"cpu.sim.{v}"]
        m[f"dram.avg_latency.{v}"] = ratio(dram_lat[v], m[f"dram.reads.{v}"])
    m["cpu.kops_per_s"] = ratio(full_ops, sim_s) / 1000
    m["sim.sampled.warm_s"] = dur["sim.sampled.warm"]
    m["sim.sampled.detail_s"] = dur["sim.sampled.detail"]
    m["sim.sampled.intervals"] = tot["l.intervals"]
    m["sim.pool.busy_s"] = tot["r.busy"]
    m["sim.pool.queue_wait_s"] = tot["r.queue_wait"]
    m["sim.cache.wait_s"] = tot["r.cache_wait"]
    m["sim.cache.hit_ratio"] = ratio(
        tot["r.cache_hits"], tot["r.cache_hits"] + tot["r.cache_misses"])
    for name in ("hash", "read", "write"):
        m[f"sim.warmstore.{name}_s"] = dur[f"sim.warmstore.{name}"]
    m["sim.warmstore.hit_ratio"] = ratio(tot["l.hits"], tot["l.reads"])
    m["sim.warmstore.bytes"] = tot["l.bytes"]
    m["crisp_speedup_pct"] = (
        (math.exp(statistics.fmean(map(math.log, speedups))) - 1) * 100
        if speedups else 0.0)
    m["ipc_err_pct"] = ipc_err * 100
    m["unattributed_share"] = ratio(tot["r.uncovered"], tot["wall_traced"])
    m["layers.unattributed_share"] = ratio(tot["l.unattributed"],
                                           tot["l.replay_wall"])
    m["trace_overhead_pct"] = (ratio(tot["wall_traced"], tot["wall"]) - 1) * 100
    return dict(m)


def per_layer(passes, invs, expected):
    per_pass = [layer_metrics(p, invs, expected) for p in passes if p]
    if not per_pass:
        return {}
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}


# ---------------------------------------------------------------- commands


def bench_spec():
    spec = load_json(ROOT / "BENCHMARK.json")
    workloads = load_json(HERE / "workloads.json")
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(workloads):
        raise BenchError("BENCHMARK.json and workloads.json name different "
                         "workloads")
    return spec, {n: workloads[n] for n in names}


def report(metric_specs, values, tally):
    """Prints `name value unit` lines and the JSON result line."""
    metrics = {}
    for m in metric_specs:
        if m["name"] not in values:
            raise BenchError(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']} {values[m['name']]!r} {m['unit']}")
    result = {"correct": tally.failed == 0 and tally.attempted > 0,
              "attempted": tally.attempted, "failed": tally.failed,
              "metrics": metrics}
    print(json.dumps(result), flush=True)
    return result


def cmd_run(args):
    spec, workloads = bench_spec()
    if args.workload not in workloads:
        raise BenchError(f"unknown workload {args.workload}")
    load_before = os.getloadavg()
    tools = build()
    wspec = workloads[args.workload]
    invs = invocations(wspec)
    expected = expected_for(args.workload, invs)
    with work_dir() as tmp:
        setup, passes, tally = measure(wspec, invs, expected, args.seed,
                                       args.seconds, args.trace, tools, tmp,
                                       SETUP_REPS)
    if args.trace:
        values = per_layer(passes, invs, expected)
        metric_specs = spec["per_layer"]
    else:
        values = end_to_end(setup, passes, expected)
        metric_specs = spec["end_to_end"]
    prov = provenance(load_before)
    print("# provenance " + json.dumps(prov))
    result = report(metric_specs, values, tally)
    if args.out:
        record = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "passes": len(passes), "provenance": prov,
                  "result": result}
        with open(args.out, "a") as f:
            f.write(json.dumps(record) + "\n")
    return 0


@contextlib.contextmanager
def work_dir():
    """A fresh scratch directory under .bench_build, removed on exit;
    every child runs in it, so nothing is written into the sources."""
    (BUILD.parent / "tmp").mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="run-",
                                     dir=BUILD.parent / "tmp") as d:
        yield Path(d)


def cmd_regen(_args):
    _, workloads = bench_spec()
    sim = build()[0]
    with work_dir() as tmp:
        out = golden(sim, workloads, False, tmp)
    EXPECTED.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {EXPECTED}")
    return 0


def cmd_smoke(_args):
    """All workload shapes at 2 invocations x 20k ops, both modes,
    checked against a golden file made on the spot."""
    spec, workloads = bench_spec()
    t0 = time.perf_counter()
    tools = build()
    failures = []
    with work_dir() as tmp:
        gold = golden(tools[0], workloads, True, tmp)
        for name, wspec in workloads.items():
            invs = invocations(wspec, smoke=True)
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                setup, passes, tally = measure(wspec, invs, gold[name], 1, 0,
                                               trace, tools, tmp, 1)
                values = (per_layer(passes, invs, gold[name]) if trace
                          else end_to_end(setup, passes, gold[name]))
                result = report(spec[key], values, tally)
                if tally.failed or not result["correct"]:
                    failures.append(f"{name} trace={trace}: failed runs")
                for mname, m in result["metrics"].items():
                    if not NAME_RE.match(mname) or not m["unit"]:
                        failures.append(f"bad metric {mname!r}")
                if trace and values["sim.warmstore.hit_ratio"] != \
                        (1.0 if wspec.get("store") else 0.0):
                    failures.append(f"{name}: warm-store hit ratio "
                                    f"{values['sim.warmstore.hit_ratio']}")
    print(f"smoke: {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    for f in failures:
        print("smoke: " + f, file=sys.stderr)
    return 1 if failures else 0


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(metric, parent, change):
    """The choosing-metrics rules for one (workload, metric) pair."""
    sign = 1 if metric["better"] == "higher" else -1
    q1, med_p, q3 = quartiles(parent)
    _, med_c, _ = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    losses = sum(sign * (c - p) < 0 for p, c in pairs)
    delta = (med_c - med_p) / abs(med_p) if med_p else 0.0
    spread = (q3 - q1) / abs(med_p) if med_p else 0.0
    bound = metric.get("bound")
    all_better = all(sign * (c - p) > 0 for p in parent for c in change)
    if pairs and wins >= 0.9 * len(pairs) and abs(med_c - med_p) > q3 - q1:
        word = "gain"
    elif bound is not None and spread > bound and not all_better:
        word = "unresolved"
    elif bound is not None and -sign * delta > bound:
        word = "REGRESSED"
    else:
        word = "same"
    return word, delta, wins, losses, len(pairs)


def load_records(path):
    records = defaultdict(list)
    for line in open(path):
        rec = json.loads(line)
        if rec.get("trace") == 0:
            records[rec["workload"]].append(rec)
    for recs in records.values():
        recs.sort(key=lambda r: r["seed"])
    return records


def cmd_compare(args):
    spec, workloads = bench_spec()
    parent, change = load_records(args.compare[0]), load_records(args.compare[1])
    metrics = spec["end_to_end"]
    print("| workload | runs | " + " | ".join(m["name"] for m in metrics) + " |")
    print("|---" * (len(metrics) + 2) + "|")
    bad = False
    for name in workloads:
        p, c = parent.get(name, []), change.get(name, [])
        if not p or not c:
            print(f"| {name} | {len(p)}/{len(c)} | " +
                  " | ".join("no runs" for _ in metrics) + " |")
            continue
        cells = []
        for m in metrics:
            pv = [r["result"]["metrics"][m["name"]]["value"] for r in p]
            cv = [r["result"]["metrics"][m["name"]]["value"] for r in c]
            word, delta, wins, losses, n = verdict(m, pv, cv)
            bad |= word == "REGRESSED"
            cells.append(f"{word} {delta:+.1%} ({wins}W/{losses}L of {n}); "
                         f"{statistics.median(pv):.4g} -> "
                         f"{statistics.median(cv):.4g}")
        failed = sum(r["result"]["failed"] for r in c)
        bad |= failed > 0
        print(f"| {name} | {len(p)}/{len(c)} | " + " | ".join(cells) + " |")
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload")
    mode.add_argument("--regen-expected", action="store_true")
    mode.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                      help="compare two files of run records (--out)")
    mode.add_argument("--smoke", action="store_true")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="timed seconds per run (default: run_seconds "
                         "from BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="file to append the run record to "
                    "(one JSON line, with provenance)")
    args = ap.parse_args()
    try:
        if args.workload:
            if args.seconds is None:
                args.seconds = load_json(ROOT / "BENCHMARK.json")["run_seconds"]
            return cmd_run(args)
        if args.regen_expected:
            return cmd_regen(args)
        if args.compare:
            return cmd_compare(args)
        return cmd_smoke(args)
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
