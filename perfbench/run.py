"""Benchmark of cqedkit: three workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload pulsed-cli --seed 1 --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics (setup_s, wall_s, cpu_s,
peak_rss_mb); --trace 1 makes a separate traced run and reports the
per-layer metrics.  The workload itself runs in a child process
(worker.py) that imports cqedkit from ./src; this process makes the
inputs from --seed, times the import of cqedkit.cli in fresh
interpreters, checks the worker's outputs against oracles.py, and prints
one JSON object as the last line of stdout.  End-to-end times are scaled
to a reference machine speed (speed.py).  See README.md for sizes and
reference numbers.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import checks
import oracles
import speed

HERE = os.path.dirname(os.path.abspath(__file__))
TIME_LIMIT_S = 170.0
IMPORT_SAMPLES = 3

WORKLOADS = {
    # Fig. 4 measurement through the user's entry point: sampler and
    # click-file I/O dominate, the kernel is sparse.
    "pulsed-cli": {"pulses": 100_000, "rep_period_ps": 13000.0,
                   "channels": ["C", "X", "X,C"]},
    # Resonant CW: a wide window makes the coincidence kernel dense.
    "cw-dense": {"duration_ps": 1.5e6, "cw_pump_rate": 0.05,
                 "window_ps": 30000.0, "bin_ps": 10.0, "far_ps": 5000.0,
                 "pairs": [[["C", "X"], None], ["C", None], ["X", "C"]]},
    # Spectral fits only: no sampler, no kernel, no click file.  The noise
    # is drawn once from `noise_seed`; the seed sets the order of the
    # series (README: why not fresh noise per seed).
    "anticrossing-fit": {"series": 18, "noise_seed": 20260823,
                         "noise_fraction": 0.05},
}

IMPORT_MODULES = {"cqedkit.cli": "import.cqedkit_s",
                  "scipy.optimize": "import.scipy_optimize_s",
                  "scipy.signal": "import.scipy_signal_s"}


def python_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def setup_seconds(root, deadline):
    """Import times of cqedkit.cli in fresh interpreters, each scaled by
    the reference-kernel samples just before and after it."""
    code = ("import time; t0 = time.perf_counter(); import cqedkit.cli; "
            "print(time.perf_counter() - t0)")
    times, ref = [], []
    for _ in range(IMPORT_SAMPLES):
        ref += [speed.reference_kernel(), speed.reference_kernel()]
        times.append(float(subprocess.run(
            [sys.executable, "-c", code], env=python_env(root), cwd=root,
            check=True, capture_output=True, text=True,
            timeout=max(deadline - time.monotonic(), 1.0)).stdout))
    ref += [speed.reference_kernel(), speed.reference_kernel()]
    return [speed.scaled(t, ref[2 * k:2 * k + 4]) for k, t in enumerate(times)]


def import_breakdown(root, deadline):
    """Median cumulative import times from `python -X importtime`."""
    samples = {name: [] for name in IMPORT_MODULES.values()}
    for _ in range(IMPORT_SAMPLES):
        err = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import cqedkit.cli"],
            env=python_env(root), cwd=root, check=True, capture_output=True,
            text=True, timeout=max(deadline - time.monotonic(), 1.0)).stderr
        seen = dict.fromkeys(samples, 0.0)
        for line in err.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in IMPORT_MODULES:
                seen[IMPORT_MODULES[parts[2].strip()]] = int(parts[1]) * 1e-6
        for k, v in seen.items():
            samples[k].append(v)
    return {k: statistics.median(v) for k, v in samples.items()}


def make_spectra(run_dir, seed, params):
    """Write the noisy temperature series in the seed's order; file lists."""
    rng = np.random.default_rng(params["noise_seed"])
    pool = [oracles.noisy_series(rng, params["noise_fraction"])
            for _ in range(params["series"])]
    series = []
    for k in np.random.default_rng(seed).permutation(params["series"]):
        d = os.path.join(run_dir, f"series{k}")
        os.makedirs(d)
        files = []
        for temp, lam, y in pool[k]:
            path = os.path.join(d, f"spec_{temp:.2f}.csv")
            oracles.write_spectrum(path, temp, lam, y)
            files.append(path)
        series.append(files)
    return series


def report(declared, values):
    """The metrics BENCHMARK.json declares, with their units."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared}


def run(args, root, run_dir, deadline):
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    params = WORKLOADS[args.workload]
    job = {"root": root, "workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "params": params, "out_dir": run_dir,
           "mode": "traced" if args.trace else "timed", "inputs": None}
    if args.workload == "anticrossing-fit":
        job["inputs"] = make_spectra(run_dir, args.seed, params)
    if args.trace:
        imports = import_breakdown(root, deadline)
    else:
        setup = setup_seconds(root, deadline)
    job_path = os.path.join(run_dir, "job.json")
    with open(job_path, "w") as fh:
        json.dump(job, fh)
    subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), job_path],
                   cwd=root, env=python_env(root), check=True,
                   timeout=max(deadline - time.monotonic(), 1.0))
    with open(os.path.join(run_dir, "result.json")) as fh:
        result = json.load(fh)

    load, check = checks.CHECKS[args.workload]
    verdicts = check(load(result["outputs"]), params)
    for name, ok, detail in verdicts:
        print(f"{'ok  ' if ok else 'FAIL'} {args.workload}: {name}  {detail}")
    median = statistics.median
    passes = [{k: speed.scaled(p[k], p["ref"]) for k in ("wall", "cpu")}
              for p in result["passes"]]
    print(f"{args.workload}: {len(passes)} passes, scaled wall "
          f"{[round(p['wall'], 3) for p in passes]}, raw wall "
          f"{[round(p['wall'], 3) for p in result['passes']]}")
    if args.trace:
        traced = result["traced"]
        layers = {k: median(p["layers"][k] for p in traced)
                  for k in traced[0]["layers"]}
        layers.update(imports)
        layers["trace.overhead_s"] = (
            median(speed.scaled(p["wall"], p["ref"]) for p in traced)
            - median(p["wall"] for p in passes))
        layers["trace.covered_share"] = median(p["covered"] for p in traced)
        trace_dir = os.path.join(HERE, "_work", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        with open(os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.json"),
                  "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "metrics": layers, "untraced": result["passes"],
                       "traced": traced}, fh)
        metrics = report(spec["per_layer"], layers)
    else:
        values = {"setup_s": median(setup),
                  "wall_s": median(p["wall"] for p in passes),
                  "cpu_s": median(p["cpu"] for p in passes),
                  "peak_rss_mb": result["peak_rss_mb"]}
        metrics = report(spec["end_to_end"], values)
    return {"correct": all(ok for _, ok, _ in verdicts),
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "cqedkit", "cli.py")):
        print("perfbench: no cqedkit sources under ./src; run from the "
              "repository root", file=sys.stderr)
        return 2
    run_dir = os.path.join(HERE, "_work",
                           f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(run_dir)
    try:
        summary = run(args, root, run_dir, deadline)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
