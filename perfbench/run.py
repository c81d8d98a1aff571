#!/usr/bin/env python3
"""Host-time benchmark of the dpopt reproduction.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload sweep-small --seed 42 --seconds 20 --trace 0

It builds perfbench/perfbench.exe with dune, runs the workload in five
fresh processes (plus set-up-only ones), checks every output, and prints
one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 runs the workload
untraced and then traced, and reports the per-layer metrics plus the
tracing overhead. Other modes: --self-test, --write-pins (see README.md).
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
PINS = os.path.join("perfbench", "pins")
OUT = os.path.join(HERE, "out")

WORKLOADS = ["sweep-small", "figures-small", "large-sampled", "compile-stream"]
DEFAULT_SEED = 42
# Measured processes per run. Each metric is the median over them (an
# operation's latency is the median of its K runs), so one process that
# the host slowed more than the others does not move the result.
K = 5
# On a shared host the speed a process gets changes from one process to
# the next and can stay low for minutes. Each process times a fixed
# calibration loop that runs none of the program's code, before its
# set-up and after its measured phase (median of three each); every time
# it reports is scaled by CALIB_REF_S over the mean of the two, i.e. given
# in seconds of a process in which the loop takes CALIB_REF_S (on the
# 2-core x86 host the benchmark was tuned on). The raw times are in the
# stamp.
CALIB_REF_S = 0.06
# Set-up-only processes per run, besides the K measured ones' set-ups.
EXTRA_SETUPS = {"large-sampled": 0}
EXTRA_SETUPS_DEFAULT = 2
TIMEOUT_S = 120


class Failure(Exception):
    pass


def die(msg, code=1):
    sys.stderr.write("perfbench: %s\n" % msg)
    sys.exit(code)


def find_dune():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    opam = shutil.which("opam")
    if opam:
        return [opam, "exec", "--", "dune"]
    die("dune not found on PATH")


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        die("no program sources next to perfbench/ (dune-project, lib/)", 2)
    # no shared dune cache: the build reads and writes only the checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    p = subprocess.run(find_dune() + ["build", "--root", ROOT,
                                      "./perfbench/perfbench.exe"],
                       cwd=ROOT, env=env, capture_output=True, text=True)
    if p.returncode != 0 or not os.path.isfile(EXE):
        sys.stderr.write(p.stderr[-4000:])
        die("build failed")


def run_exe(args):
    """One fresh benchmark process; returns its JSON result line."""
    try:
        p = subprocess.run([EXE] + args, cwd=ROOT, capture_output=True,
                           text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise Failure("timed out: %s" % " ".join(args))
    sys.stderr.write(p.stderr)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise Failure("exit %d: %s" % (p.returncode, " ".join(args)))
    return json.loads(lines[-1])


def source_digest():
    """Digest of the program and benchmark sources (the checkout is not
    always a git repository)."""
    h = hashlib.sha256()
    for top in ["dune-project", "dune", "lib", "bin", "bench", "perfbench"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, dirs, fs in os.walk(path)
            if not os.path.relpath(d, HERE).startswith("out") for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()[:16]


def git_revision():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
        return p.stdout.strip() if p.returncode == 0 else "none"
    except (OSError, subprocess.TimeoutExpired):
        return "none"


def base_args(workload, seed, seconds):
    return ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--pins-dir", PINS]


def percentile(xs, q):
    """Linear interpolation between the closest ranks, as in
    Harness.Stats.percentile (which the compile service's own latency
    metrics use)."""
    xs = sorted(xs)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (pos - lo) * (xs[hi] - xs[lo])


def scale(r):
    """Factor from a process's raw times to reference times."""
    return CALIB_REF_S / r["calib_s"]


def end_to_end(workload, seed, seconds):
    args = base_args(workload, seed, seconds)
    n_setups = EXTRA_SETUPS.get(workload, EXTRA_SETUPS_DEFAULT)
    setup_runs = [run_exe(args + ["--setup-only"]) for _ in range(n_setups)]
    runs = [run_exe(args + ["--process", str(i)]) for i in range(K)]
    main = dict(runs[0])
    main["attempted"] = sum(r["attempted"] for r in runs)
    main["failed"] = sum(r["failed"] for r in runs)
    for r in runs[1:]:
        if r["outputs"] != main["outputs"] or r["digests"] != main["digests"]:
            main["failed"] += 1
            sys.stderr.write("perfbench: FAILED outputs differ between runs\n")
    lat = {}
    for kind in ["cold", "warm"]:
        lat[kind] = [statistics.median(t) for t in zip(
            *([x * scale(r) for x in r[kind + "_ms"]] for r in runs))]
    if not lat["cold"]:
        die("%s: no operations" % workload)
    # Where nothing repeats (sweep-small and large-sampled at the shipped
    # --seconds), every operation runs as it does cold: warm_* then report
    # the latency of all operations, because every workload must report
    # every end-to-end metric.
    warm = lat["warm"] or lat["cold"]
    metrics = as_metrics("end_to_end", {
        "wall_s": statistics.median(r["wall_s"] * scale(r) for r in runs),
        "setup_s": statistics.median(r["setup_s"] * scale(r) for r in setup_runs + runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "cold_p50_ms": percentile(lat["cold"], 0.50),
        "cold_p99_ms": percentile(lat["cold"], 0.99),
        "warm_p50_ms": percentile(warm, 0.50),
        "warm_p99_ms": percentile(warm, 0.99),
    })
    detail = {"calib_runs_s": [r["calib_s"] for r in setup_runs + runs],
              "raw_setup_runs_s": [r["setup_s"] for r in setup_runs + runs],
              "raw_wall_runs_s": [r["wall_s"] for r in runs],
              "cold_samples": len(lat["cold"]), "warm_samples": len(lat["warm"]),
              "failed_frac": main["failed"] / max(1, main["attempted"])}
    return main, metrics, detail


def per_layer(workload, seed, seconds):
    args = base_args(workload, seed, seconds)
    os.makedirs(OUT, exist_ok=True)
    trace = os.path.join(OUT, "trace-%s-%d.json" % (workload, seed))
    untraced = run_exe(args)
    traced = run_exe(args + ["--trace-out", trace])
    units = declared("per_layer")
    f = scale(traced)
    layers = {k: v * f if units.get(k) == "s" else v / f if units.get(k) == "1/s" else v
              for k, v in traced["layers"].items()}
    layers["trace.untraced_wall_s"] = untraced["wall_s"] * scale(untraced)
    layers["trace.overhead_frac"] = (traced["wall_s"] * f
                                     / layers["trace.untraced_wall_s"] - 1.0)
    metrics = as_metrics("per_layer", layers)
    if untraced["outputs"] != traced["outputs"]:
        traced["failed"] += 1
        sys.stderr.write("perfbench: FAILED traced outputs differ from untraced\n")
    main = dict(traced)
    main["failed"] = traced["failed"] + untraced["failed"]
    main["attempted"] = traced["attempted"] + untraced["attempted"]
    return main, metrics, {"trace_file": os.path.relpath(trace, ROOT)}


def declared(section):
    """Metric name -> unit, as BENCHMARK.json declares them."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            return {m["name"]: m["unit"] for m in json.load(fh)[section]}
    except (OSError, ValueError, KeyError) as e:
        die("cannot read %s from BENCHMARK.json: %s" % (section, e))


def as_metrics(section, values):
    units = declared(section)
    if set(units) != set(values):
        die("metrics differ from BENCHMARK.json %s: extra %s, missing %s"
            % (section, sorted(set(values) - set(units)),
               sorted(set(units) - set(values))))
    return {k: {"value": values[k], "unit": units[k]} for k in units}


def measure(a):
    build()
    try:
        run = per_layer if a.trace else end_to_end
        main, metrics, detail = run(a.workload, a.seed, a.seconds)
    except Failure as e:
        die(str(e))
    stamp = dict(main["stamp"])
    stamp.update({"git_revision": git_revision(), "source_digest": source_digest(),
                  "nproc": os.cpu_count(), "input_digests": main["digests"],
                  "pinned": main["pinned"], "outputs_digest": main["outputs"]})
    stamp.update(detail)
    result = {"correct": main["failed"] == 0, "attempted": main["attempted"],
              "failed": main["failed"], "metrics": metrics}
    os.makedirs(OUT, exist_ok=True)
    name = "result-%s-%d%s.json" % (a.workload, a.seed, "-trace" if a.trace else "")
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump({"stamp": stamp, "result": result}, fh, indent=1)
    print(json.dumps({"stamp": stamp}))
    print(json.dumps(result))


def self_test(a):
    """Determinism, registry reproduction, and corrupted-pin detection."""
    build()
    ok = True

    def check(name, cond):
        nonlocal ok
        print("[%s] %s" % ("ok" if cond else "FAIL", name), flush=True)
        ok = ok and cond

    try:
        reg = run_exe(["--workload", "sweep-small", "--check-registry"])
        check("default seed reproduces Registry.datasets (small, large)",
              reg["registry_small"] and reg["registry_large"])
        for w in ([a.workload] if a.workload else WORKLOADS):
            args = base_args(w, DEFAULT_SEED, a.seconds)
            r1, r2 = run_exe(args), run_exe(args)
            check("%s: pinned, failed 0" % w,
                  r1["pinned"] and r1["failed"] == 0 and r2["failed"] == 0)
            check("%s: identical outputs, counts and digests on a rerun" % w,
                  (r1["outputs"], r1["attempted"], r1["digests"])
                  == (r2["outputs"], r2["attempted"], r2["digests"]))
        w = a.workload or "compile-stream"
        bad = run_exe(base_args(w, DEFAULT_SEED, a.seconds) + ["--corrupt-pin"])
        check("%s: a corrupted pin shows up as failed %d/%d"
              % (w, bad["failed"], bad["attempted"]), bad["failed"] > 0)
    except Failure as e:
        check(str(e), False)
    sys.exit(0 if ok else 1)


def write_pins(a):
    """Pin every output at the given seed (done once, at the seed commit)."""
    build()
    for w in ([a.workload] if a.workload else WORKLOADS):
        r = run_exe(base_args(w, a.seed, a.seconds) + ["--write-pins"])
        print("%s seed %d: pinned %d operations, failed %d"
              % (w, a.seed, r["attempted"], r["failed"]))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--write-pins", action="store_true")
    a = p.parse_args()
    if a.self_test:
        self_test(a)
    elif a.write_pins:
        write_pins(a)
    elif a.workload is None:
        p.error("--workload is required")
    else:
        measure(a)


if __name__ == "__main__":
    main()
