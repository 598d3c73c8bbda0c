#!/usr/bin/env python3
"""Simulator benchmark for the memscale library.

Builds the library and the simbench driver in Release, runs one
workload, checks its result hashes and prints every metric named in
BENCHMARK.json with its unit.  The last line of stdout is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

    python3 simbench/run.py --workload closed_sweep --seed 1 --seconds 30 --trace 0
    python3 simbench/run.py --selftest
    python3 simbench/run.py --compare A.json B.json
    python3 simbench/run.py --workload W --seed 1 --seconds 30 --trace 1 --record

Run it from the root of a source tree; it builds into .bench_build/.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD, "simbench", "simbench")
RESULTS = os.path.join(BUILD, "results")
EXPECTED = os.path.join(HERE, "expected_hashes.json")

WORKLOADS = ("closed_sweep", "serve_rates", "fleet_cap")
DEFAULT_SEED = 1     # the seed whose hashes expected_hashes.json records
HELD_OUT_SEED = 2    # checked for run-to-run hash identity only
SETUP_SAMPLES = 5    # set-up-only launches per run, besides the main one
DRIVER_TIMEOUT_S = 170
CMD_KINDS = ("act", "pre", "read", "write", "refresh", "pd_enter",
             "pd_exit", "relock")


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def sh(cmd, timeout):
    r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=timeout, check=False)
    if r.returncode != 0:
        raise BenchError("command failed (%d): %s" % (r.returncode,
                                                     " ".join(cmd)))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("memscale sources not found at %s"
                         % os.path.join(ROOT, "src"))
    bdir = os.path.join(BUILD, "simbench")
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        sh(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
           timeout=300)
    sh(["cmake", "--build", bdir, "--target", "simbench", "-j",
        str(os.cpu_count() or 1)], timeout=840)


def driver(args, timeout=DRIVER_TIMEOUT_S):
    """Run the driver; its --t0-ns is the moment before the spawn."""
    cmd = [EXE] + args + ["--t0-ns", str(time.monotonic_ns())]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                       text=True, timeout=timeout, check=False)
    if r.returncode != 0:
        raise BenchError("driver failed (%d): %s" % (r.returncode,
                                                    " ".join(cmd)))
    return r.stdout


# ----------------------------------------------------------------------
# Provenance

def source_digest():
    h = hashlib.sha256()
    for top in ("src", "simbench"):
        for d, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for f in sorted(files):
                p = os.path.join(d, f)
                h.update(os.path.relpath(p, ROOT).encode() + b"\0")
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def commit():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10,
                           check=False)
    except OSError:
        return None
    return r.stdout.strip() if r.returncode == 0 else None


# ----------------------------------------------------------------------
# Output checks

def check_runs(raw, expected):
    """Count attempted and failed simulation runs of a driver output.

    A run fails if the driver flagged it (exception, time limit,
    protocol violation, fastcap over a feasible cap) or if its hash
    differs from the reference: `expected` when given, else the first
    run with the same id (run-to-run, traced-vs-untraced and
    observe/check-on-vs-off identity).
    """
    ref = dict(expected) if expected is not None else {}
    attempted, failures = 0, []
    for b in raw["reps"] + [raw["extras"]]:
        if b["error"]:
            n = raw["planned_runs"] if b is not raw["extras"] else 1
            attempted += n
            failures += ["batch: " + b["error"]] * n
        for run in b["runs"]:
            attempted += 1
            rid, got = run["id"], run["hash"]
            if expected is None:
                ref.setdefault(rid, got)
            if run["failure"]:
                failures.append("%s: %s" % (rid, run["failure"]))
            elif rid not in ref:
                failures.append("%s: no recorded hash" % rid)
            elif ref[rid] != got:
                failures.append("%s: hash %s != %s" % (rid, got, ref[rid]))
    return attempted, failures, ref


# ----------------------------------------------------------------------
# Metrics

def ratio(a, b):
    return a / b if b else 0.0


def span_stats(batch, jobs):
    """Per-layer host times of one traced repetition, from its spans."""
    spans = [dict(zip(("name", "start", "end", "parent", "task"), s))
             for s in batch["spans"]]
    dur = [(s["end"] - s["start"]) * 1e-9 for s in spans]
    wall = dur[0]                     # span 0 is the workload root

    def named(name):
        return [i for i, s in enumerate(spans) if s["name"] == name]

    # Part of the root interval its direct children cover.
    covered, reach = 0, spans[0]["start"]
    for s in sorted((s for s in spans if s["parent"] == 0),
                    key=lambda s: s["start"]):
        lo = max(s["start"], reach)
        if s["end"] > lo:
            covered += s["end"] - lo
            reach = s["end"]
    tasks, runs = named("sweep.task"), set(named("system.run"))
    run_s = sorted(dur[i] for i in runs)
    in_run = [i for i, s in enumerate(spans) if s["parent"] in runs]
    busy = sum(dur[i] for i in tasks)
    if not tasks:   # fan-out inside the library: use process CPU time
        busy = batch["user_s"] + batch["sys_s"]
    return {
        "wall": wall,
        "coverage": ratio(covered * 1e-9, wall),
        "uncovered_s": wall - covered * 1e-9,
        "tasks": len(tasks),
        "busy_s": sum(dur[i] for i in tasks),
        "task_max": max((dur[i] for i in tasks), default=0.0),
        "idle_frac": 1.0 - ratio(busy, jobs * wall),
        "runs": len(run_s),
        "run_sum": sum(run_s),
        "run_p50": statistics.median(run_s) if run_s else 0.0,
        "run_max": run_s[-1] if run_s else 0.0,
        "self_s": sum(run_s) - sum(dur[i] for i in in_run),
        "select_s": sum(dur[i] for i in named("policy.select")),
        "end_epoch_s": sum(dur[i] for i in named("policy.end_epoch")),
        "cluster_s": sum(dur[i] for i in named("cluster.run")),
    }


def end_to_end(raw, untraced, setup):
    wall = [b["wall_s"] for b in untraced]
    w = statistics.median(wall)
    v = untraced[0]["values"]
    return {
        "wall_s": (w, len(wall)),
        "setup_s": (statistics.median(setup), len(setup)),
        "peak_rss_mb": (raw["peak_rss_mb"], 1),
        "sim_instr_per_s": (v["instr"] / w, len(wall)),
        "dram_req_per_s": ((v["mem.reads"] + v["mem.writes"]) / w,
                           len(wall)),
    }


def per_layer(raw, untraced, traced, attempted, failed):
    med = statistics.median
    jobs = raw["provenance"]["jobs"]
    v = dict(untraced[0]["values"])
    t = traced[0]["values"]
    x = raw["extras"]["values"]
    st = [span_stats(b, jobs) for b in traced]

    def m(key):
        return med(s[key] for s in st)

    wall_un = med(b["wall_s"] for b in untraced)
    wall_tr = med(b["wall_s"] for b in traced)
    reqs = t["observed_reqs"]
    cmds = sum(t["dram.cmd." + k] for k in CMD_KINDS)
    epochs = v.get("cluster.epochs", 0.0)
    snap_bytes = v.get("snapshot.bytes", 0.0)
    out = {
        "sweep.tasks": st[0]["tasks"],
        "sweep.busy_s": m("busy_s"),
        "sweep.task_s_max": m("task_max"),
        "sweep.idle_frac": m("idle_frac"),
        "system.runs": st[0]["runs"],
        "system.run_s_p50": m("run_p50"),
        "system.run_s_max": m("run_max"),
        "system.self_s": m("self_s"),
        "system.host_ns_per_dram_req": ratio(m("run_sum"), reqs) * 1e9,
        "memscale.decisions": t["memscale.decisions"],
        "memscale.select_s": m("select_s"),
        "memscale.end_epoch_s": m("end_epoch_s"),
        "memscale.share": ratio(m("select_s") + m("end_epoch_s"),
                                m("run_sum")),
        "memscale.freq_changes": t["memscale.freq_changes"],
        "mem.reads": v["mem.reads"],
        "mem.writes": v["mem.writes"],
        "mem.row_hit_ratio": ratio(v["mem.rbhc"],
                                   v["mem.rbhc"] + v["mem.row_misses"]),
        "mem.read_latency_ns": ratio(v["mem.read_latency_s"],
                                     v["mem.reads"]) * 1e9,
        "mem.bus_util": ratio(v["mem.bus_busy_s"], v["mem.bus_capacity_s"]),
        "mem.relock_stall_us": v["mem.relock_stall_s"] * 1e6,
        "dram.cmds_per_req": ratio(cmds, reqs),
        "dram.host_ns_per_cmd": ratio(m("run_sum"), cmds) * 1e9,
        "workload.trace_chunks": x["workload.trace_chunks"],
        "workload.trace_gen_s": x["workload.trace_gen_s"],
        "workload.arrivals": x["workload.arrivals"],
        "workload.arrival_gen_s": x["workload.arrival_gen_s"],
        "serving.completed": v.get("serving.completed", 0.0),
        "serving.queue_peak": v.get("serving.queue_peak", 0.0),
        "cluster.epochs": epochs,
        "cluster.host_ms_per_epoch": ratio(m("cluster_s"), epochs) * 1e3,
        "cluster.cap_violations": v.get("cluster.cap_violations", 0.0),
        "cluster.slo_attainment": v.get("cluster.slo_attainment", 0.0),
        "snapshot.files": v.get("snapshot.files", 0.0),
        "snapshot.bytes": snap_bytes,
        "snapshot.bytes_per_epoch": ratio(snap_bytes, epochs),
        "snapshot.sys_s": med(b["sys_s"] for b in untraced),
        "check.commands": x["check.commands"],
        "check.violations": x["check.violations"],
        "check.overhead_frac": ratio(x["probe.check_s"],
                                     x["probe.plain_s"]) - 1.0,
        "obs.overhead_frac": ratio(x["probe.observe_s"],
                                   x["probe.plain_s"]) - 1.0,
        "trace.overhead_frac": wall_tr / wall_un - 1.0,
        "trace.span_coverage": m("coverage"),
        "trace.uncovered_s": m("uncovered_s"),
        "sim_req_per_s": v.get("serving.completed", 0.0) / wall_un,
        "scratch_mb": snap_bytes / 1e6,
        "fail_frac": ratio(failed, attempted),
    }
    for k in CMD_KINDS:
        out["dram.cmd." + k] = t["dram.cmd." + k]
    for r in ("r2", "r8", "r16"):
        out["serving.p99_us." + r] = v.get("serving.p99_us." + r, 0.0)
    for c in ("ILP", "MID", "MEM"):
        for kind in ("mem_savings", "sys_savings"):
            key = "model.%s.%s" % (kind, c)
            out[key] = v.get(key, 0.0)
    out["model.worst_cpi_increase"] = v.get("model.worst_cpi_increase", 0.0)
    return {k: (val, len(st)) for k, val in out.items()}


def model_line(metrics):
    def pct(key):
        return "%.1f%%" % (100 * metrics[key][0])
    mem = " ".join("%s %s" % (c, pct("model.mem_savings." + c))
                   for c in ("ILP", "MID", "MEM"))
    sys_ = " ".join("%s %s" % (c, pct("model.sys_savings." + c))
                    for c in ("ILP", "MID", "MEM"))
    return ("model: memory savings %s (paper 17-71%%); system savings %s "
            "(paper 6-31%%); worst CPI increase %s (paper <= gamma 10%%)"
            % (mem, sys_, pct("model.worst_cpi_increase")))


# ----------------------------------------------------------------------
# One measurement

def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def expected_for(workload, seed, size):
    if seed != DEFAULT_SEED or size != "full":
        return None
    try:
        with open(EXPECTED) as f:
            return json.load(f).get(workload, {})
    except FileNotFoundError:
        return {}


def measure(a):
    bench = load_benchmark()
    os.makedirs(RESULTS, exist_ok=True)
    tag = "%s-s%d-t%d-%s" % (a.workload, a.seed, a.trace, a.size)
    raw_path = os.path.join(RESULTS, tag + ".raw.json")
    common = ["--workload", a.workload, "--seed", str(a.seed),
              "--size", a.size]

    setup = [json.loads(driver(common + ["--setup-only"]))["setup_s"]
             for _ in range(SETUP_SAMPLES)]
    driver(common + ["--seconds", str(a.seconds), "--trace", str(a.trace),
                     "--out", raw_path,
                     "--scratch", os.path.join(BUILD, "scratch", tag)])
    with open(raw_path) as f:
        raw = json.load(f)
    setup.append(raw["setup_s"])

    expected = None if a.record else expected_for(a.workload, a.seed,
                                                   a.size)
    attempted, failures, ref = check_runs(raw, expected)
    good = [b for b in raw["reps"] if not b["error"]]
    untraced = [b for b in good if not b["traced"]]
    traced = [b for b in good if b["traced"]]
    if not untraced or (a.trace and not traced):
        raise BenchError("no repetition completed: %s" % failures[:3])

    if a.trace:
        metrics = per_layer(raw, untraced, traced, attempted,
                            len(failures))
        spec = bench["per_layer"]
    else:
        metrics = end_to_end(raw, untraced, setup)
        spec = bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in spec}
    if set(units) != set(metrics):
        raise BenchError("metric set differs from BENCHMARK.json: %s"
                         % sorted(set(units) ^ set(metrics)))

    prov = dict(raw["provenance"], commit=commit(),
                source_sha256=source_digest())
    print("provenance: " + json.dumps(prov, sort_keys=True))
    for name in sorted(metrics):
        val, n = metrics[name]
        print("  %-32s %-14.6g %-8s (median of %d)"
              % (name, val, units[name], n))
    if a.trace:
        if a.workload == "closed_sweep":
            print(model_line(metrics))
        print("note: event counts, events/s and the self time of the "
              "event kernel, channel scheduler and rank power "
              "integration are not visible from outside the library; "
              "they stay inside system.self_s until the in-program "
              "profile (ROADMAP item 1) lands.")
    for msg in failures[:10]:
        print("FAILED " + msg)

    summary = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, (v, _) in sorted(metrics.items())},
    }
    with open(os.path.join(RESULTS, tag + ".json"), "w") as f:
        json.dump(dict(summary, provenance=prov, failures=failures,
                       samples={k: n for k, (_, n) in metrics.items()}),
                  f, indent=1, sort_keys=True)
    if a.record:
        record(a, ref, failures)
    return summary


def record(a, ref, failures):
    if failures or a.seed != DEFAULT_SEED or a.size != "full":
        raise BenchError("--record needs a clean full-size run at seed %d"
                         % DEFAULT_SEED)
    try:
        with open(EXPECTED) as f:
            allw = json.load(f)
    except FileNotFoundError:
        allw = {}
    allw.setdefault(a.workload, {}).update(ref)
    with open(EXPECTED, "w") as f:
        json.dump(allw, f, indent=1, sort_keys=True)
        f.write("\n")
    log("recorded %d hashes for %s" % (len(ref), a.workload))


# ----------------------------------------------------------------------
# Comparison and self-test

PINNED = ("build_type", "nproc", "cxx_flags", "compiler", "jobs", "size",
          "workload")


def compare(path_a, path_b):
    """Print metric ratios B/A; refuse results of different builds."""
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    bad = [k for k in PINNED
           if a["provenance"].get(k) != b["provenance"].get(k)]
    if bad:
        raise BenchError("results are not comparable; they differ in %s"
                         % ", ".join("%s (%r vs %r)"
                                     % (k, a["provenance"].get(k),
                                        b["provenance"].get(k))
                                     for k in bad))
    for name in sorted(set(a["metrics"]) & set(b["metrics"])):
        va, vb = a["metrics"][name]["value"], b["metrics"][name]["value"]
        print("%-32s %-14.6g %-14.6g %s" % (name, va, vb,
                                            "%.4f" % (vb / va) if va
                                            else "-"))


def selftest():
    """Tiny runs of every workload: metric names and units, the hash
    check's ability to fail, and the comparison's provenance pin."""
    bench = load_benchmark()
    want = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
            1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    for wl in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__),
                   "--workload", wl, "--seed", str(HELD_OUT_SEED),
                   "--seconds", "1", "--trace", str(trace),
                   "--size", "tiny"]
            r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                               timeout=600, check=False)
            if r.returncode != 0:
                raise BenchError("selftest run failed: " + " ".join(cmd))
            res = json.loads(r.stdout.strip().splitlines()[-1])
            got = {k: m["unit"] for k, m in res["metrics"].items()}
            if got != want[trace]:
                raise BenchError("%s trace=%d: metrics/units differ: %s"
                                 % (wl, trace,
                                    sorted(set(got.items())
                                           ^ set(want[trace].items()))))
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                raise BenchError("%s trace=%d: tiny run failed" % (wl,
                                                                   trace))
            log("selftest: %s trace=%d prints all %d metrics"
                % (wl, trace, len(got)))

        # A corrupted expected hash must drive fail_frac above 0.
        tag = "%s-s%d-t1-tiny" % (wl, HELD_OUT_SEED)
        with open(os.path.join(RESULTS, tag + ".raw.json")) as f:
            raw = json.load(f)
        _, clean, ref = check_runs(raw, None)
        _, again, _ = check_runs(raw, ref)
        corrupt = dict(ref)
        first = sorted(corrupt)[0]
        corrupt[first] = "%016x" % (int(corrupt[first], 16) ^ 1)
        attempted, bad, _ = check_runs(raw, corrupt)
        if clean or again or not bad:
            raise BenchError("%s: hash check did not behave" % wl)
        log("selftest: %s corrupted hash -> fail_frac %.3f"
            % (wl, len(bad) / attempted))

    # Results of a different build type or nproc must not compare.
    path = os.path.join(RESULTS, "closed_sweep-s%d-t0-tiny.json"
                        % HELD_OUT_SEED)
    with open(path) as f:
        res = json.load(f)
    res["provenance"]["nproc"] += 1
    other = os.path.join(RESULTS, "selftest-other-nproc.json")
    with open(other, "w") as f:
        json.dump(res, f)
    try:
        compare(path, other)
    except BenchError:
        log("selftest: comparison across nproc refused")
    else:
        raise BenchError("comparison across nproc was not refused")
    log("selftest: ok")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--record", action="store_true",
                   help="store this run's hashes as the expected ones")
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--compare", nargs=2, metavar="RESULT")
    a = p.parse_args()
    try:
        if a.compare:
            compare(*a.compare)
            return 0
        build()
        if a.selftest:
            selftest()
            return 0
        if not a.workload:
            p.error("--workload is required")
        print(json.dumps(measure(a)))
        return 0
    except (BenchError, OSError, subprocess.TimeoutExpired) as e:
        log("simbench: %s" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
