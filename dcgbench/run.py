#!/usr/bin/env python3
"""The repository benchmark.

    python3 dcgbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the harness package in
dcgbench/harness (into $CARGO_TARGET_DIR, default .bench_build), runs one
workload, checks its outputs, and prints one JSON result line last on
standard output: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1. A human-readable report and the full record
(every figure with its sample count, median and quartiles, plus nproc,
rustc version and source revision) go to standard error and to
dcgbench/.work/records/. Exits non-zero on any output mismatch. See
dcgbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402

WORKLOADS = ("live_suite", "warm_replay", "server_mixed")
WORK = os.path.join("dcgbench", ".work")
BUILD_TIMEOUT_S = 850
RUN_BUDGET_S = 170


def fail(msg):
    print(f"dcgbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    # No --locked: the harness depends only on path crates, so a later
    # change to their manifests re-resolves offline instead of failing.
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join("dcgbench", "harness", "Cargo.toml")]
    try:
        r = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"harness build failed: {e}")
    if r.returncode != 0:
        fail("harness build failed")
    return os.path.join(target, "release", "dcgbench-harness")


def rates(phase):
    return [i / s / 1e6 for i, s in zip(phase["iter_insts"], phase["iter_s"]) if s > 0]


def end_to_end(doc):
    """End-to-end figures of the untraced phase, each with its samples."""
    p = doc["untraced"]
    lat = p["latency_ms"]
    per_iter = doc["attempted"] / len(p["iter_s"])
    jobs = [per_iter / s for s in p["iter_s"]]
    p90, p90_pct = stats.tail_percentile(lat, 90.0)
    figs = {
        "setup_s": (stats.summary(doc["setup_s"])["median"], stats.summary(doc["setup_s"])),
        "minsts_per_s": (stats.summary(rates(p))["median"], stats.summary(rates(p))),
        "jobs_per_s": (stats.summary(jobs)["median"], stats.summary(jobs)),
        "job_p50_ms": (stats.hd_quantile(lat, 0.5), stats.summary(lat)),
        "job_p90_ms": (p90, dict(stats.summary(lat), percentile=p90_pct)),
        "peak_rss_mb": (doc["peak_rss_mb"], stats.summary([doc["peak_rss_mb"]])),
    }
    return figs


def per_layer(doc):
    """Per-layer figures of the traced run."""
    with open(doc["spans"]) as f:
        recs = [json.loads(line) for line in f]
    L = stats.Layers(recs)
    counts = doc["counts"]
    cycles = L.agg_n("sim.step")
    body = {c: L.median_self(f"server.body.{c}", 1e6) for c in ("warm_replay", "cold_replay", "simulate")}
    overhead = [
        rt - body[c]
        for c in body
        for rt in doc["samples"].get(f"round_trip_ms.{c}", [])
        if body[c] > 0
    ]
    decode_ns = L.self_total("trace.decode")
    traced = stats.summary(rates(doc["traced"]))["median"] if doc.get("traced") else 0.0
    untraced = stats.summary(rates(doc["untraced"]))["median"]
    figs = {
        "workloads.gen_ns_per_inst": L.per_unit("workloads.gen", L.agg_n("workloads.gen")),
        "sim.new_us": L.median_self("sim.new", 1e3),
        "sim.step_ns_per_cycle": L.per_unit("sim.step", cycles),
        "sim.cycles": L.count("sim.cycles"),
        "sim.commits": L.count("sim.commits"),
        "sim.cache.ns_per_access": L.per_unit("sim.cache", L.agg_n("sim.cache")),
        "sim.cache.l1d_hit_ratio": ratio(L.count("sim.cache.l1d_hits"), L.agg_n("sim.cache")),
        "sim.bpred.ns_per_branch": L.per_unit("sim.bpred", L.agg_n("sim.bpred")),
        "sim.bpred.hit_ratio": ratio(L.count("sim.bpred.hits"), L.agg_n("sim.bpred")),
        "core.dcg.gate_ns_per_cycle": L.per_unit("core.dcg.gate", L.agg_n("core.dcg.gate")),
        "core.plb.gate_ns_per_cycle": L.per_unit("core.plb.gate", L.agg_n("core.plb.gate")),
        "power.fold_ns_per_cycle": L.per_unit("power.fold", L.agg_n("power.fold")),
        "core.metrics_sink_ns_per_cycle": L.per_unit("core.metrics_sink", L.agg_n("core.metrics_sink")),
        "core.drive_ns_per_cycle": L.per_unit("core.drive", L.count("core.drive.cycles")),
        "core.worker_busy_frac": L.busy_fraction(),
        "trace.encode_ns_per_cycle": L.per_unit("trace.encode", L.count("trace.cycles")),
        "trace.bytes_per_kcycle": 1000 * ratio(L.count("trace.bytes"), L.count("trace.cycles")),
        "trace.decode_ns_per_cycle": L.per_unit("trace.decode", L.count("trace.decode.cycles")),
        "trace.decode_mb_per_s": L.count("trace.decode.bytes") / 1e6 / (decode_ns / 1e9) if decode_ns else 0.0,
        "store.open_ms": L.median_self("store.open", 1e6),
        "store.fetch_us": L.median_self("store.fetch", 1e3),
        "store.hit_ratio": ratio(L.count("store.fetch.hits"), L.count("store.fetch.attempts")),
        "store.insert_ms": L.median_self("store.insert", 1e6),
        "store.opens_per_job": counts.get("store.opens_per_job", 0.0),
        "store.entries_lost": counts.get("store.entries_lost", 0.0),
        "store.mb": counts.get("store.mb", 0.0),
        "experiments.render_ms": L.median_self("experiments.render", 1e6),
        "server.frame_us": L.median_self("server.frame", 1e3),
        "server.wal_append_us": L.median_self("server.wal_append", 1e3),
        "server.submit_us": L.median_self("server.submit", 1e3),
        "server.body_ms.warm_replay": body["warm_replay"],
        "server.body_ms.cold_replay": body["cold_replay"],
        "server.body_ms.simulate": body["simulate"],
        "server.overhead_ms": stats.summary(overhead)["median"],
        "server.dedup_ratio": counts.get("server.dedup_ratio", 0.0),
        "trace_overhead_frac": 1 - traced / untraced if untraced else 0.0,
    }
    return {k: (v, None) for k, v in figs.items()}


def ratio(a, b):
    return a / b if b else 0.0


def machine():
    # Keep git from finding a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))

    def out(cmd):
        try:
            return subprocess.run(cmd, capture_output=True, text=True, timeout=20, env=env).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            return ""
    h = hashlib.sha256()
    for root, dirs, files in os.walk("crates"):
        dirs.sort()
        for name in sorted(files):
            if name.endswith((".rs", ".toml", ".asm")):
                with open(os.path.join(root, name), "rb") as f:
                    h.update(name.encode() + f.read())
    return {
        "nproc": os.cpu_count(),
        "rustc": out(["rustc", "-V"]),
        "git_commit": out(["git", "rev-parse", "HEAD"]) or "not a git checkout",
        "source_sha256": h.hexdigest(),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = ap.parse_args()
    if a.seed < 0 or a.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    work = os.path.join(WORK, a.workload)
    subprocess.run(["rm", "-rf", work], check=False)
    cmd = [binary, a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace), "--work", work]
    budget = RUN_BUDGET_S
    # The server runs with two malloc arenas, one per worker. With glibc's
    # default of eight per core, which of its many threads' arenas
    # happened to hold freed memory moved its peak RSS between 14 and
    # 21.5 MB from run to run. The suites keep the default: they run one
    # thread per worker plus the idle main thread, and sharing two arenas
    # among those three made their peak RSS jump between 15 and 18 MB.
    env = dict(os.environ)
    if a.workload == "server_mixed":
        env["MALLOC_ARENA_MAX"] = "2"
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=budget, env=env)
    except subprocess.TimeoutExpired:
        fail(f"{a.workload} did not finish within {budget:.0f} s")
    if r.returncode != 0 or not r.stdout.strip():
        fail(f"{a.workload} failed (exit {r.returncode})")
    doc = json.loads(r.stdout.strip().splitlines()[-1])

    figs = per_layer(doc) if a.trace else end_to_end(doc)
    with open("BENCHMARK.json") as f:
        declared = json.load(f)["per_layer" if a.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(figs):
        fail(f"metrics {sorted(set(figs) ^ set(units))} are not both declared and measured")
    checks = doc["checks"]
    correct = all(c["ok"] for c in checks) and doc["failed"] == 0
    record = {
        "workload": a.workload, "seed": a.seed, "seconds": a.seconds, "trace": a.trace,
        "machine": machine(),
        "attempted": doc["attempted"], "failed": doc["failed"],
        "error_rate": stats.error_rate(doc["attempted"], doc["failed"]),
        "checks": checks, "counts": doc["counts"],
        "figures": {k: {"value": v, "unit": units[k], "samples": s} for k, (v, s) in figs.items()},
    }
    os.makedirs(os.path.join(WORK, "records"), exist_ok=True)
    path = os.path.join(WORK, "records", f"{a.workload}-seed{a.seed}-trace{a.trace}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
    subprocess.run(["rm", "-rf", work], check=False)

    report(record)
    print(json.dumps({
        "correct": correct,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, (v, _) in figs.items()},
    }))
    sys.exit(0 if correct else 1)


def report(rec):
    m = rec["machine"]
    print(f"{rec['workload']} seed={rec['seed']} nproc={m['nproc']} {m['rustc']} "
          f"commit={m['git_commit']}", file=sys.stderr)
    print(f"  error_rate {rec['error_rate']:.4f} ({rec['failed']}/{rec['attempted']})", file=sys.stderr)
    for name, f in rec["figures"].items():
        s = f["samples"]
        extra = f"  n={s['n']} median={s['median']:.6g} q1={s['q1']:.6g} q3={s['q3']:.6g}" if s else ""
        if s and "percentile" in s:
            extra += f" p{s['percentile']:.0f}"
        print(f"  {name:32s} {f['value']:14.6g} {f['unit']:10s}{extra}", file=sys.stderr)
    for c in rec["checks"]:
        print(f"  [{'ok' if c['ok'] else 'FAIL'}] {c['name']} {c['detail']}", file=sys.stderr)


if __name__ == "__main__":
    main()
