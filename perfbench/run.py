#!/usr/bin/env python3
"""Host-performance benchmark of the icsim simulator.

Run from the repository root:

    python3 perfbench/run.py --workload npb_cg --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

It builds the simulator libraries and the two perfbench runners from source
(into $CARGO_TARGET_DIR, else .bench_build/ under the repository root), runs
one workload's points from workloads.json for --seconds, checks every
point's outputs, and prints each metric by name and unit.  The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, whose host times are
scaled to a fixed reference's speed (host_ref.hpp); with --trace 1 they are
the per-layer ones, taken from a run of the span-recording runner, whose
digests and exact counts must equal an untraced run's.  Every run is also
appended, with its provenance, to .bench_out/results.jsonl, which
compare.py reads.  `--workload all` runs every workload, each in its own
process, and exits non-zero if any point failed.  See METRICS.md.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Each of these changes what the simulator runs, so none may reach it.
ICSIM_ENV_PREFIX = "ICSIM_"

# Inline or same-file paths the link-time spans cannot see; their host time
# stays in sim.engine_self_s (engine side) or sim.fiber.self_s (rank side).
UNCOVERED = [
    "sim::Engine::post_at/post_in/schedule_* (inline; engine side)",
    "sim::Fiber::yield and blocking waits (inside sim.fiber.resume)",
    "mpi::Mpi::compute/wait/send/recv/sendrecv (inline; rank side)",
    "templated collectives mpi::Mpi::allreduce/reduce/bcast<T> (inline)",
    "calls inside mpi.cpp, e.g. barrier -> isend (same file)",
    "HCA, Tports and transport callbacks (engine side, except inject/matcher/reg-cache calls)",
    "par::ShardedFabric and CollectiveWorld (inside par.engine.run)",
]


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def clean_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith(ICSIM_ENV_PREFIX)}
    cleared = sorted(k for k in os.environ if k.startswith(ICSIM_ENV_PREFIX))
    if cleared:
        print(f"perfbench: cleared {', '.join(cleared)} (each changes what runs)",
              file=sys.stderr)
    return env


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(env):
    """Configure once, then build; cmake skips what is up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"simulator sources not found under {ROOT}/src")
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "perfbench-build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, env=env).returncode:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail(f"build failed: {' '.join(cmd)} (log: {log_path})", 1)
    cache = open(os.path.join(bdir, "CMakeCache.txt")).read()
    for line in cache.splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:") and line.split("=", 1)[1] not in (
                "Release", "RelWithDebInfo"):
            fail(f"refusing build type {line.split('=', 1)[1]!r}")
        if line.startswith("CMAKE_CXX_FLAGS:") and "-fsanitize" in line:
            fail("refusing a sanitizer build")
    return bdir


def provenance(seed, meta):
    commit = "none"
    try:
        r = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
        top_and_head = r.stdout.split()
        if r.returncode == 0 and os.path.realpath(top_and_head[0]) == os.path.realpath(ROOT):
            commit = top_and_head[1]
    except OSError:
        pass
    h = hashlib.sha256()
    for top in ("src", os.path.basename(HERE)):
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"commit": commit, "source_sha256": h.hexdigest()[:16], "seed": seed,
            "nproc": os.cpu_count(), "cpu": cpu, "compiler": meta.get("compiler"),
            "build_type": meta.get("build_type"), "par_threads": meta.get("par_threads")}


def run_binary(binary, points, seed, seconds, min_passes, env, extra=()):
    cmd = [binary, "--points", ",".join(points), "--seed", str(seed),
           "--seconds", f"{seconds:.3f}", "--min-passes", str(min_passes), *extra]
    r = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT, timeout=170)
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        fail(f"{os.path.basename(binary)} exited with {r.returncode}", 1)
    lines = [json.loads(x) for x in r.stdout.splitlines() if x.startswith("{")]
    meta = next(x for x in lines if x["type"] == "meta")
    end = next(x for x in lines if x["type"] == "end")
    probes = next((x for x in lines if x["type"] == "probes"), None)
    passes = {}
    for x in lines:
        if x["type"] == "point":
            passes.setdefault(x["pass"], []).append(x)
    return meta, probes, [passes[k] for k in sorted(passes)], end


def point_problems(p):
    """Output checks of one point; returns a list of problems."""
    if "error" in p:
        return [f"{p['point']}: {p['error']}"]
    out, cnt, kind = p["out"], p["counts"], p["point"].split("/")[0]
    bad = []
    if p["events"] <= 0:
        bad.append("no events")
    if kind == "cg" and not math.isfinite(out["zeta"]):
        bad.append("zeta not finite")
    if kind == "md":
        if out["natoms"] != out["natoms_expected"]:
            bad.append(f"atoms {out['natoms']} != {out['natoms_expected']}")
        if not out["energy_drift"] < 5e-3:
            bad.append(f"energy drift {out['energy_drift']}")
        if not out["momentum_abs"] < 1e-9 * math.sqrt(out["natoms"]):
            bad.append(f"momentum {out['momentum_abs']}")
    if kind == "traffic":
        if cnt["traffic.offered"] <= 0 or cnt["traffic.offered"] != (
                cnt["traffic.delivered"] + out["stragglers"] + cnt["traffic.dropped"]):
            bad.append("offered != delivered + stragglers + dropped")
    if kind == "par" and cnt["par.messages"] != out["messages_expected"]:
        bad.append(f"messages {cnt['par.messages']} != {out['messages_expected']}")
    return [f"{p['point']}: {b}" for b in bad]


def exact(p):
    """Everything a point reports that must repeat exactly."""
    return (p.get("error"), p.get("events"), p.get("digest"),
            json.dumps(p.get("out"), sort_keys=True), json.dumps(p.get("counts"), sort_keys=True))


def check_run(points, passes, reference=None):
    """Count failed point runs.  A point fails if it threw, failed an output
    check, or differs from its first pass (or from `reference`, the same
    points' results from another run).  Returns (attempted, failed, problems)."""
    problems = []
    if not passes or any(sorted(x["point"] for x in ps) != sorted(points) for ps in passes):
        n = len(points) * max(1, len(passes))
        return n, n, ["ran a different set of points than workloads.json lists"]
    first = {x["point"]: x for x in passes[0]}
    base = reference if reference is not None else first
    attempted = failed = 0
    for ps in passes:
        for p in ps:
            attempted += 1
            bad = point_problems(p)
            if exact(p) != exact(base[p["point"]]):
                bad.append(f"{p['point']}: pass {p['pass']} differs from the reference "
                           f"(digest {p.get('digest')} vs {base[p['point']].get('digest')})")
            if bad:
                failed += 1
                problems += bad
    zetas = [x["out"]["zeta"] for x in passes[0] if x["point"].startswith("cg/") and "out" in x]
    if zetas and max(zetas) - min(zetas) > 1e-12 * abs(zetas[0]):
        problems.append(f"CG zeta differs across process counts: {min(zetas)} .. {max(zetas)}")
        failed = attempted
    return attempted, failed, problems


def pass_sum(ps, key):
    return sum(x.get(key, 0.0) for x in ps)


def point_median(passes, value):
    """Sum over points of each point's median over passes of value(point),
    which drops a host slow-down that hits a few points of one pass."""
    samples = {}
    for ps in passes:
        for x in ps:
            samples.setdefault(x["point"], []).append(value(x))
    return sum(statistics.median(v) for v in samples.values())


def scaled(key, nominal):
    """A point's host time `key` at the reference speed: times nominal /
    ref_s, where ref_s is the reference chunk's time around that point."""
    return lambda x: x[key] * nominal / x["ref_s"]


def e2e_metrics(passes, end, nominal):
    wall = point_median(passes, scaled("wall_s", nominal))
    return {"scaled_wall_s": wall,
            "scaled_events_per_s": sum(x["events"] for x in passes[0]) / wall,
            "setup_s": point_median(passes, scaled("setup_s", nominal)),
            "peak_rss_mb": end["peak_rss_mb"]}


LAYER_GROUPS = {
    "mpi.api": ["mpi.api.isend", "mpi.api.irecv", "mpi.api.barrier", "mpi.api.bcast_bytes"],
    "mpi.matcher": ["mpi.matcher.arrive", "mpi.matcher.post"],
}


def layer_pass(ps, probes):
    """Per-layer metrics of one traced pass (a sum over its points)."""
    def tot(phase, name, i):
        return sum(x["layers"][phase].get(name, [0, 0.0, 0.0])[i] for x in ps)

    def cnt(name):
        return sum(x["counts"].get(name, 0) for x in ps)

    def peak(name):
        return max(x["counts"].get(name, 0) for x in ps)

    run_wall = pass_sum(ps, "wall_s")
    resumes = tot("run", "sim.fiber.resume", 0)
    hits, misses = cnt("ib.regcache.hits"), cnt("ib.regcache.misses")
    par_run = sum(x["wall_s"] for x in ps if x["point"].startswith("par/"))
    return {
        "host.wall_s": run_wall,
        "host.ref_s": statistics.median(x["ref_s"] for x in ps),
        "core.cluster_setup_s": tot("setup", "core.cluster.ctor", 1)
        + tot("setup", "par.cluster.ctor", 1),
        "traffic.plan_s": tot("setup", "traffic.workload.ctor", 1),
        "traffic.offered": cnt("traffic.offered"),
        "traffic.delivered": cnt("traffic.delivered"),
        "traffic.dropped": cnt("traffic.dropped"),
        "sim.events": pass_sum(ps, "events"),
        "sim.engine_self_s": run_wall - tot("run", "sim.fiber.resume", 1),
        "sim.fiber.resumes": resumes,
        "sim.fiber.resume_s": tot("run", "sim.fiber.resume", 1),
        "sim.fiber.self_s": tot("run", "sim.fiber.resume", 2),
        "sim.fiber.switch_ns": probes["sim.fiber.switch_ns"],
        "sim.fiber.switch_s_est": resumes * probes["sim.fiber.switch_ns"] * 1e-9,
        "sim.event_post_ns": probes["sim.event_post_ns"],
        "net.fabric.injects": tot("run", "net.fabric.inject", 0),
        "net.fabric.inject_s": tot("run", "net.fabric.inject", 2),
        "net.fabric.chunks": cnt("net.fabric.chunks"),
        "net.fabric.chunk_ns": probes["net.fabric.chunk_ns"],
        "mpi.api.calls": sum(tot("run", n, 0) for n in LAYER_GROUPS["mpi.api"]),
        "mpi.api_s": sum(tot("run", n, 2) for n in LAYER_GROUPS["mpi.api"]),
        "mpi.matcher.arrives": tot("run", "mpi.matcher.arrive", 0),
        "mpi.matcher.posts": tot("run", "mpi.matcher.post", 0),
        "mpi.matcher_s": sum(tot("run", n, 2) for n in LAYER_GROUPS["mpi.matcher"]),
        "mpi.max_unexpected_depth": peak("mpi.max_unexpected_depth"),
        "mpi.matcher.arrive512_ns": probes["mpi.matcher.arrive512_ns"],
        "ib.regcache.hits": hits,
        "ib.regcache.misses": misses,
        "ib.regcache.evictions": cnt("ib.regcache.evictions"),
        "ib.regcache.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "ib.regcache.acquire_s": tot("run", "ib.regcache.acquire", 2),
        "ib.regcache.hit_ns": probes["ib.regcache.hit_ns"],
        "ib.hca.writes": cnt("ib.hca.writes"),
        "elan.nic_thread_busy_us": cnt("elan.nic_thread_busy_us"),
        "elan.nic_buffer_high_water": peak("elan.nic_buffer_high_water"),
        "apps.md.compute_lj_calls": tot("run", "apps.md.compute_lj", 0),
        "apps.md.compute_lj_s": tot("run", "apps.md.compute_lj", 2),
        "apps.md.build_neighbor_list_s": tot("run", "apps.md.build_neighbor_list", 2),
        "apps.md.pair_evals": cnt("apps.md.pair_evals"),
        "par.run_s": par_run,
        "par.engine_run_s": tot("run", "par.engine.run", 1),
        "par.windows": cnt("par.windows"),
        "par.cross_posts": cnt("par.cross_posts"),
        "par.messages": cnt("par.messages"),
    }


def per_layer_metrics(traced_passes, untraced_passes, probes, units):
    rows = [layer_pass(ps, probes) for ps in traced_passes]
    m = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    m["trace.overhead_s"] = (statistics.median(pass_sum(ps, "wall_s") for ps in traced_passes)
                             - statistics.median(pass_sum(ps, "wall_s") for ps in untraced_passes))
    missing = set(units) ^ set(m)
    if missing:
        fail(f"per-layer metrics and BENCHMARK.json disagree on {sorted(missing)}", 1)
    return m


def run_workload(args, spec):
    workloads = json.load(open(os.path.join(HERE, "workloads.json")))
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; have {sorted(workloads)}")
    listed = [w["name"] for w in spec["workloads"]]
    if args.workload not in listed:
        fail(f"workload {args.workload!r} is not in BENCHMARK.json")
    points = workloads[args.workload]["points"]
    env = clean_env()
    bdir = build(env)
    untraced = os.path.join(bdir, "icsim_perf")
    traced = os.path.join(bdir, "icsim_perf_traced")
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)

    if not args.trace:
        meta, _, passes, end = run_binary(untraced, points, args.seed, args.seconds, 3, env)
        attempted, failed, problems = check_run(points, passes)
        metrics = (e2e_metrics(passes, end, meta["host_ref_nominal_s"])
                   if failed < attempted else {})
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        extra = {}
    else:
        # Half the budget each: untraced (with the probes) and traced.
        half = args.seconds / 2
        meta, probes, u_passes, _ = run_binary(untraced, points, args.seed, half, 1, env,
                                               ["--probes"])
        spans = os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.csv")
        _, _, t_passes, _ = run_binary(traced, points, args.seed, half, 1, env,
                                       ["--spans", spans])
        a1, f1, problems = check_run(points, u_passes)
        reference = {x["point"]: x for x in u_passes[0]} if u_passes else None
        a2, f2, p2 = check_run(points, t_passes, reference)
        problems += [f"traced: {p}" for p in p2]
        attempted, failed = a1 + a2, f1 + f2
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = (per_layer_metrics(t_passes, u_passes, probes, units)
                   if failed < attempted else {})
        extra = {"spans_csv": os.path.relpath(spans, ROOT),
                 "self_s": layer_self_times(t_passes)}
        passes = t_passes

    prov = provenance(args.seed, meta)
    print("provenance: " + json.dumps(prov, sort_keys=True))
    for p in passes[0] if passes else []:
        print(f"  {p['point']:<28} digest {p.get('digest')}  {json.dumps(p.get('out'))}")
    for msg in problems:
        print(f"  FAILED {msg}")
    print(f"  passes {len(passes)}, points/pass {len(points)}, "
          f"failed_frac {failed / attempted:.4f} ({failed}/{attempted})")
    if passes:
        ref_ms = statistics.median(x["ref_s"] for ps in passes for x in ps) * 1e3
        print(f"  host speed: reference chunk median {ref_ms:.2f} ms, nominal "
              f"{meta['host_ref_nominal_s'] * 1e3:.2f} ms; unscaled wall_s "
              f"{point_median(passes, lambda x: x['wall_s']):.6g} s")
    if args.trace:
        print("  uncovered (time stays in sim.engine_self_s / sim.fiber.self_s): "
              + "; ".join(UNCOVERED))
    for k in units:
        if k in metrics:
            print(f"  {k} = {metrics[k]:.6g} {units[k]}")
    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "provenance": prov, "attempted": attempted, "failed": failed,
              "metrics": metrics, "time": time.time(), **extra}
    with open(args.out or os.path.join(out_dir, "results.jsonl"), "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")

    result = {"correct": failed == 0 and not problems, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units
                          if k in metrics}}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def layer_self_times(passes):
    """Median self seconds per span layer (run phase), for compare.py."""
    names = sorted({n for ps in passes for x in ps for n in x["layers"]["run"]})
    return {n: statistics.median(sum(x["layers"]["run"].get(n, [0, 0, 0])[2] for x in ps)
                                 for ps in passes) for n in names}


def run_all(args, spec):
    status = 0
    for w in spec["workloads"]:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", w["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.out:
            cmd += ["--out", args.out]
        print(f"== {w['name']}: {w['why']}", flush=True)
        r = subprocess.run(cmd, cwd=ROOT)
        status = status or r.returncode
    return status


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="a workload name, or 'all'")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="results file to append to "
                    "(default .bench_out/results.jsonl)")
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")
    try:
        spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload == "all":
        return run_all(args, spec)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
