"""Correctness checks of each workload's outputs.

Each `check_*` takes the outputs a worker saved (loaded by `load_*`) and
returns a list of (name, ok, detail).  The references all come from
oracles.py; none is a stored copy of an earlier run's output.
"""
import numpy as np

import oracles


def load_pulsed(saved):
    meta, chan, times = oracles.read_clicks(saved["clicks"])
    return dict(saved, meta=meta, chan=chan, times=times)


def check_pulsed(out, params):
    rep = params["rep_period_ps"]
    n_pulses = int(float(out["meta"]["duration_ps"]) // rep)
    ref = oracles.pulse_statistics(out["chan"], out["times"], rep, n_pulses)
    hashes = out["hashes"]
    res = [("click file identical in every pass",
            len(hashes) >= 2 and len(set(hashes)) == 1,
            f"{len(set(hashes))} distinct of {len(hashes)}")]
    for ch in params["channels"]:
        blocks = [b for t, b in oracles.parse_blocks(out["reports"][ch])
                  if t == "g2"]
        if len(blocks) != 1:
            res.append((f"g2 {ch} reported", False, "no [g2] block"))
            continue
        value, se = float(blocks[0]["value"]), float(blocks[0]["stderr"])
        o_value, o_se = ref[ch]
        res.append((f"g2 {ch} agrees with per-pulse statistic",
                    abs(value - o_value) <= 3.0 * np.hypot(se, o_se),
                    f"{value:.4f} +/- {se:.4f} vs {o_value:.4f} +/- {o_se:.4f}"))
        res.append((f"g2 {ch} + 3 sigma below 0.5", value + 3.0 * se < 0.5,
                    f"{value + 3.0 * se:.4f}"))
    ratio = ref["flux_ratio"]
    res.append(("C:X flux ratio 3.5 +/- 0.3", abs(ratio - 3.5) <= 0.3,
                f"{ratio:.3f}"))
    return res


def load_cw(saved):
    with np.load(saved["npz"]) as z:
        data = {k: z[k] for k in z.files}
    data["channels"] = data["channels"].astype(str)
    data["duration"] = saved["duration"]
    return data


def check_cw(out, params):
    res = []
    window, bin_w = params["window_ps"], params["bin_ps"]
    chan, times = out["channels"], out["times"]
    for k, (a, b) in enumerate(params["pairs"]):
        label = "".join(a) + (f"->{b}" if b else " auto")
        ta = times[np.isin(chan, list(a))]
        tb = None if b is None else times[np.isin(chan, list(b))]
        ref = oracles.lag_histogram(ta, tb, window, bin_w)
        counts = out[f"counts{k}"]
        differ = (int(np.sum(counts != ref)) if counts.shape == ref.shape
                  else len(ref))
        res.append((f"{label} histogram equals lag-difference count",
                    differ == 0, f"{int(ref.sum())} pairs, {differ} bins differ"))
        n_b = len(ta) if b is None else len(tb)
        g2_ref = oracles.normalized(ref, len(ta), n_b, b is None,
                                    out["duration"], bin_w)
        g2, tau = out[f"g2_{k}"], out[f"tau{k}"]
        res.append((f"{label} g2 normalisation",
                    g2.shape == g2_ref.shape and np.allclose(g2, g2_ref,
                                                             rtol=1e-12, atol=0),
                    ""))
        far = float(np.mean(g2[np.abs(tau) >= params["far_ps"]]))
        res.append((f"{label} g2 far from 0 is 1 +/- 0.03", abs(far - 1.0) <= 0.03,
                    f"{far:.4f}"))
        zero = float(g2[np.argmin(np.abs(tau))])
        limit = 0.1 if b is None else 0.5
        res.append((f"{label} g2(0) < {limit}", zero < limit, f"{zero:.4f}"))
    return res


def check_fit(out, params):
    gs, gcs = [], []
    res = []
    for k, text in enumerate(out["outputs"]):
        blocks = oracles.parse_blocks(text)
        n_fit = sum(t == "fit" for t, _ in blocks)
        coupling = [b for t, b in blocks if t == "coupling"]
        ok = n_fit == len(oracles.SERIES_TEMPS_K) and len(coupling) == 1
        res.append((f"series {k} reports every fit and one coupling", ok,
                    f"{n_fit} fits, {len(coupling)} coupling blocks"))
        if coupling:
            gs.append(float(coupling[0]["g_ueV"]))
            gcs.append(float(coupling[0]["gamma_c_ueV"]))
    g = float(np.mean(gs)) if gs else float("nan")
    gc = float(np.mean(gcs)) if gcs else float("nan")
    res.append(("mean g within 5% of 35 ueV",
                abs(g - oracles.G_UEV) <= 0.05 * oracles.G_UEV, f"{g:.3f}"))
    res.append(("mean gamma_c within 5% of 85 ueV",
                abs(gc - oracles.GAMMA_C_UEV) <= 0.05 * oracles.GAMMA_C_UEV,
                f"{gc:.3f}"))
    return res


CHECKS = {
    "pulsed-cli": (load_pulsed, check_pulsed),
    "cw-dense": (load_cw, check_cw),
    "anticrossing-fit": (lambda saved: saved, check_fit),
}
