"""Show that every correctness check catches a corrupted output.

Run from the repository root:  python3 perfbench/selftest.py

Each workload runs once at a reduced size.  The checks must pass on the
genuine outputs; then each corruption below is applied to a copy of the
outputs and the check it targets must fail.  Exit status 1 if a check
passes a corrupted output or fails a genuine one.
"""
import copy
import json
import os
import shutil
import subprocess
import sys

import numpy as np

import checks
import run

SMALL = {
    "pulsed-cli": dict(run.WORKLOADS["pulsed-cli"], pulses=20_000),
    # g2 far from 0 sits 1 - |tau|/duration below 1, so keep the stream
    # long against the 30 ns window
    "cw-dense": dict(run.WORKLOADS["cw-dense"], duration_ps=1e6),
    "anticrossing-fit": dict(run.WORKLOADS["anticrossing-fit"], series=4),
}


def _set_field(text, key, value):
    return "\n".join(f"{key} = {value}" if ln.startswith(f"{key} =") else ln
                     for ln in text.splitlines())


def _relabel_x(o):
    x = np.flatnonzero(o["chan"] == "X")
    o["chan"] = o["chan"].copy()
    o["chan"][x[::2]] = "D"


def _bump_bin(o):
    o["counts0"] = o["counts0"].copy()
    o["counts0"][len(o["counts0"]) // 3] += 1


def _zero_bin(o, value):
    o["g2_0"] = o["g2_0"].copy()
    o["g2_0"][np.argmin(np.abs(o["tau0"]))] = value


CORRUPTIONS = {
    "pulsed-cli": [
        ("one pass wrote other bytes", "click file identical in every pass",
         lambda o: o["hashes"].append("0" * 64)),
        ("C g2 reported as 0.45", "g2 C agrees with per-pulse statistic",
         lambda o: o["reports"].update(C=_set_field(o["reports"]["C"], "value", 0.45))),
        ("X g2 reported as 0.49", "g2 X + 3 sigma below 0.5",
         lambda o: o["reports"].update(X=_set_field(o["reports"]["X"], "value", 0.49))),
        ("half the X clicks relabelled", "C:X flux ratio 3.5 +/- 0.3", _relabel_x),
    ],
    "cw-dense": [
        ("one extra pair in a bin", "CX auto histogram equals lag-difference count",
         _bump_bin),
        ("g2 scaled by 1.01", "CX auto g2 normalisation",
         lambda o: o.update(g2_0=o["g2_0"] * 1.01)),
        ("g2 scaled by 1.1", "C auto g2 far from 0 is 1 +/- 0.03",
         lambda o: o.update(g2_1=o["g2_1"] * 1.1)),
        ("g2(0) reported as 0.5", "CX auto g2(0) < 0.1",
         lambda o: _zero_bin(o, 0.5)),
    ],
    "anticrossing-fit": [
        ("coupling block dropped", "series 0 reports every fit and one coupling",
         lambda o: o["outputs"].__setitem__(
             0, o["outputs"][0].split("[coupling]")[0])),
        ("g reported as 30 ueV", "mean g within 5% of 35 ueV",
         lambda o: o.update(outputs=[_set_field(t, "g_ueV", 30.0)
                                     for t in o["outputs"]])),
        ("gamma_c reported as 95 ueV", "mean gamma_c within 5% of 85 ueV",
         lambda o: o.update(outputs=[_set_field(t, "gamma_c_ueV", 95.0)
                                     for t in o["outputs"]])),
    ],
}


def genuine_outputs(workload, params, root, run_dir):
    job = {"root": root, "workload": workload, "seed": 1, "seconds": 0,
           "params": params, "out_dir": run_dir, "mode": "timed", "inputs": None}
    if workload == "anticrossing-fit":
        job["inputs"] = run.make_spectra(run_dir, 1, params)
    job_path = os.path.join(run_dir, "job.json")
    with open(job_path, "w") as fh:
        json.dump(job, fh)
    subprocess.run([sys.executable, os.path.join(run.HERE, "worker.py"), job_path],
                   cwd=root, env=run.python_env(root), check=True, timeout=170)
    with open(os.path.join(run_dir, "result.json")) as fh:
        return json.load(fh)["outputs"]


def main():
    root = os.getcwd()
    bad = 0
    for workload, params in SMALL.items():
        run_dir = os.path.join(run.HERE, "_work", f"selftest-{workload}-{os.getpid()}")
        os.makedirs(run_dir)
        try:
            load, check = checks.CHECKS[workload]
            outputs = load(genuine_outputs(workload, params, root, run_dir))
            for name, ok, detail in check(outputs, params):
                bad += not ok
                print(f"{'ok  ' if ok else 'FAIL'} {workload} genuine: {name}  {detail}")
            for what, target, corrupt in CORRUPTIONS[workload]:
                broken = copy.deepcopy(outputs)
                corrupt(broken)
                verdict = {name: ok for name, ok, _ in check(broken, params)}
                caught = target in verdict and not verdict[target]
                bad += not caught
                print(f"{'ok  ' if caught else 'MISS'} {workload} {what}: "
                      f"'{target}' {'fails' if caught else 'still passes'}")
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
    print("self-test", "passed" if bad == 0 else f"failed ({bad})")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
