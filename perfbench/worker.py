"""One workload in its own process: warm up, then timed or traced passes.

Run by run.py as `python3 perfbench/worker.py JOB.json`; JOB names the
workload, its inputs and the output directory.  The worker imports
cqedkit from the checkout's `src` and runs one untimed warm-up.  Then it
repeats passes until the job's seconds are spent.  Each operation of a
pass follows one call of the reference kernel (speed.py), which is not
part of the pass: a pass's wall and CPU time are the sums over its
operations.  In mode "traced" every untraced pass is followed by a
traced one.  The worker writes `result.json` and the last pass's outputs
into the output directory for run.py to check.
"""
import contextlib
import copy
import hashlib
import io
import json
import os
import resource
import sys
import time

import numpy as np

import speed
import tracing as tr


def no_span(name):
    return contextlib.nullcontext()


class Ops:
    """Runs operations: counts them, times them, samples the machine speed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.ref = []
        self.wall = 0.0
        self.cpu = 0.0
        self.span = no_span

    def run(self, name, fn):
        """fn() timed as one operation; None if it raised."""
        self.ref.append(speed.reference_kernel())
        self.attempted += 1
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            with self.span(name):
                return fn()
        except Exception as exc:  # counted and reported, the run goes on
            print(f"{name}: {exc!r}", file=sys.stderr)
            self.failed += 1
            return None
        finally:
            self.wall += time.perf_counter() - w0
            self.cpu += time.process_time() - c0

    def cli(self, cli, argv):
        """cli.main(argv) in-process; its stdout, or '' if it failed."""
        buf = io.StringIO()

        def call():
            with contextlib.redirect_stdout(buf):
                return cli.main(argv)
        code = self.run("cli.main", call)
        if code != 0:
            if code is not None:
                self.failed += 1
            return ""
        return buf.getvalue()


class PulsedCli:
    """`cqedkit simulate` at the detuned operating point, then correlate."""

    def __init__(self, cq, job, ops):
        self.cli, self.ops, self.job = cq.cli, ops, job
        self.out = job["out_dir"]
        self.clicks = os.path.join(self.out, "clicks.csv")
        self.reports = {}
        self.hashes = []

    def run_pass(self):
        p = self.job["params"]
        self.ops.cli(self.cli, [
            "--seed", str(self.job["seed"]), "--out-dir", self.out,
            "simulate", "--preset", "single-photon-detuned",
            "--pulses", str(p["pulses"])])
        for ch in p["channels"]:
            self.reports[ch] = self.ops.cli(self.cli, [
                "--out-dir", self.out, "correlate", self.clicks,
                "--channels", ch])
        with open(self.clicks, "rb") as fh:
            self.hashes.append(hashlib.sha256(fh.read()).hexdigest())

    warm_up = run_pass

    def save(self):
        return {"reports": self.reports, "hashes": self.hashes,
                "clicks": self.clicks}


class CwDense:
    """Resonant-CW stream through the library, then dense correlations."""

    def __init__(self, cq, job, ops):
        from cqedkit import config as cfgmod
        self.hbt, self.trajectory, self.ops, self.job = (
            cq.hbt, cq.trajectory, ops, job)
        p = job["params"]
        cfg = copy.deepcopy(cfgmod.DEFAULT_CONFIG)
        cfg["pump"] = {"mode": "resonant_cw", "cw_pump_rate": p["cw_pump_rate"]}
        cfgmod.validate_config(cfg)
        self.model = cfgmod.build_model(cfg)
        self.pump = cfgmod.build_pump(cfg)
        self.det = cfgmod.build_detectors(cfg)
        self.stream = None
        self.results = []

    def run_pass(self):
        p = self.job["params"]
        self.stream = self.ops.run("simulate", lambda: self.trajectory.simulate_stream(
            self.model, self.pump, self.det, p["duration_ps"], self.job["seed"]))
        self.results = []
        for a, b in p["pairs"]:
            def correlate():
                s = self.stream
                h = self.hbt.correlate(s.filter(a), s.filter(b) if b else None,
                                       window=p["window_ps"],
                                       bin_width=p["bin_ps"], duration=s.duration)
                return h, self.hbt.normalized_g2(h)[0]
            self.results.append(self.ops.run("correlate", correlate))

    warm_up = run_pass

    def save(self):
        path = os.path.join(self.job["out_dir"], "cw.npz")
        arrays = {"times": self.stream.times,
                  "channels": self.stream.channels.astype("S1")}
        for k, (h, g2) in enumerate(self.results):
            arrays[f"counts{k}"] = h.counts
            arrays[f"g2_{k}"] = g2
            arrays[f"tau{k}"] = h.tau
        np.savez(path, **arrays)
        return {"npz": path, "duration": self.stream.duration}


class AnticrossingFit:
    """`cqedkit fit` over each noisy temperature series."""

    def __init__(self, cq, job, ops):
        self.cli, self.ops, self.job = cq.cli, ops, job
        self.outputs = []

    def _fit(self, files):
        return self.ops.cli(self.cli, [
            "fit", *files, "--noise-fraction",
            str(self.job["params"]["noise_fraction"])])

    def run_pass(self):
        self.outputs = [self._fit(files) for files in self.job["inputs"]]

    def warm_up(self):
        # one series reaches every code path; a whole pass would add a
        # pass-length to the run and steady nothing
        self._fit(self.job["inputs"][0])

    def save(self):
        return {"outputs": self.outputs}


WORKLOADS = {"pulsed-cli": PulsedCli, "cw-dense": CwDense,
             "anticrossing-fit": AnticrossingFit}


def timed_pass(work, ops):
    """(wall, cpu, reference-kernel samples) of one pass."""
    ops.wall = ops.cpu = 0.0
    ops.ref = []
    work.run_pass()
    return ops.wall, ops.cpu, ops.ref


def main(job_path):
    with open(job_path) as fh:
        job = json.load(fh)
    sys.path.insert(0, os.path.join(job["root"], "src"))
    import cqedkit
    import cqedkit.cli

    ops = Ops()
    work = WORKLOADS[job["workload"]](cqedkit, job, ops)
    work.warm_up()  # first-call costs, file cache, allocator
    result = {"passes": [], "traced": []}
    deadline = time.perf_counter() + job["seconds"]
    while not result["passes"] or time.perf_counter() < deadline:
        wall, cpu, ref = timed_pass(work, ops)
        result["passes"].append({"wall": wall, "cpu": cpu, "ref": ref})
        if job["mode"] == "traced":
            tracer = tr.Tracer()
            ops.span = tracer.span
            with tr.installed(tracer, cqedkit):
                wall, cpu, ref = timed_pass(work, ops)
            ops.span = no_span
            result["traced"].append({
                "wall": wall, "cpu": cpu, "ref": ref,
                "layers": tr.layer_metrics(tracer.spans, tracer.counts),
                "covered": tr.covered_share(tracer.spans),
                "trace": tr.dump(tracer)})
    result.update(
        attempted=ops.attempted, failed=ops.failed,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        outputs=work.save())
    with open(os.path.join(job["out_dir"], "result.json"), "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
