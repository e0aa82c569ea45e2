"""Reference computations the benchmark checks cqedkit's outputs against.

Nothing here imports cqedkit: every check is made from numpy and the
plain-text files the program writes, so a fault in a shared helper cannot
make a wrong output look right.
"""
import numpy as np

HC_UEV_NM = 1.239842e9
HBAR_UEV_PS = 658.2120

# Device of the paper: g = 35 ueV, cavity FWHM 85 ueV, bare exciton
# lifetime 700 ps.
G_UEV = 35.0
GAMMA_C_UEV = 85.0
GAMMA_X_UEV = HBAR_UEV_PS / 700.0

# Phenomenological temperature tuning of the measured pillar: the cavity
# red-shifts linearly, the exciton quadratically, crossing at 10.5 K.
RESONANCE_K = 10.5
RESONANCE_NM = 936.35
CAVITY_SLOPE_NM_PER_K = 0.006
RELATIVE_SPAN_NM = 1.5
T_MIN_K, T_MAX_K = 6.0, 40.0

#: the 27 temperatures of one anticrossing series, densest near resonance
SERIES_TEMPS_K = np.concatenate([np.arange(6, 8.6, 0.5),
                                 np.arange(9, 12.01, 0.25),
                                 np.arange(12.5, 16.01, 0.5)])


# --- click files and the per-pulse photon-number statistic ---------------

def read_clicks(path):
    """(header fields, channel letters, times) of a click file."""
    with open(path) as fh:
        magic = fh.readline().split()
        if fh.readline().strip() != "channel,time_ps":
            raise ValueError(f"{path}: unexpected column header")
        rows = fh.read().split()
    meta = dict(f.split("=", 1) for f in magic[1:])
    chan = np.array([r[0] for r in rows])
    times = np.array([float(r[2:]) for r in rows])
    return meta, chan, times


def per_pulse_g2(counts_a, counts_b=None):
    """<n(n-1)>/<n>^2, or <n_a n_b>/(<n_a><n_b>), with a delta-method SE."""
    a = np.asarray(counts_a, dtype=float)
    b = a if counts_b is None else np.asarray(counts_b, dtype=float)
    x = a * (a - 1.0) if counts_b is None else a * b
    ma, mb, mx = a.mean(), b.mean(), x.mean()
    value = mx / (ma * mb)
    # linearise value around the means: d = x/(ma mb) - value (a/ma + b/mb)
    infl = x / (ma * mb) - value * (a / ma + b / mb)
    stderr = infl.std(ddof=1) / np.sqrt(len(a))
    return float(value), float(stderr)


def pulse_statistics(chan, times, rep_period, n_pulses):
    """Per-pulse g2 of C, X and X-C, and the C:X flux ratio."""
    counts = {}
    for ch in ("C", "X"):
        idx = (times[chan == ch] // rep_period).astype(np.int64)
        counts[ch] = np.bincount(idx[idx < n_pulses], minlength=n_pulses)
    return {
        "C": per_pulse_g2(counts["C"]),
        "X": per_pulse_g2(counts["X"]),
        "X,C": per_pulse_g2(counts["X"], counts["C"]),
        "flux_ratio": counts["C"].sum() / counts["X"].sum(),
    }


# --- lag-difference coincidence histogram ---------------------------------

def lag_histogram(a, b, window, bin_width):
    """Counts of t_b - t_a in [-edge, edge), bin floor((delta + edge)/bin).

    edge = (round(window/bin) + 1/2) * bin.  b=None is the autocorrelation
    without self pairs.  The count walks lag k through the merged sorted
    stream and stops once every k-th neighbour is beyond the window.
    """
    n_half = int(round(window / bin_width))
    edge = (n_half + 0.5) * bin_width
    n_bins = 2 * n_half + 1
    if b is None:
        t = np.asarray(a, dtype=np.float64)
    else:
        t = np.concatenate([a, b]).astype(np.float64)
        label = np.concatenate([np.zeros(len(a), bool), np.ones(len(b), bool)])
        order = np.argsort(t, kind="stable")
        t, label = t[order], label[order]
    counts = np.zeros(n_bins, dtype=np.int64)

    def add(delta):
        k = np.floor((delta + edge) / bin_width).astype(np.int64)
        np.clip(k, 0, n_bins - 1, out=k)
        counts[:] += np.bincount(k, minlength=n_bins)

    # An a/b pair at equal times lands in the zero bin whichever of the
    # two the merge puts first, since +0 and -0 bin alike.
    for k in range(1, len(t)):
        d = t[k:] - t[:-k]
        near = d <= edge
        if not near.any():
            break
        if b is None:
            d = d[near]
            add(d[d < edge])
            add(-d)
        else:
            first, second = label[:-k][near], label[k:][near]
            d = d[near]
            fwd = ~first & second          # a then b: delta = +d
            add(d[fwd & (d < edge)])
            add(-d[first & ~second])       # b then a: delta = -d
    return counts


def normalized(counts, n_a, n_b, auto, duration, bin_width):
    """g2 = counts / (pairs per unit delay x bin width)."""
    pairs = n_a * n_b - (n_a if auto else 0)
    return counts / (pairs / duration * bin_width)


# --- anticrossing spectra from the 2x2 mode matrix ------------------------

def tuning(temp_k):
    """(exciton, cavity) wavelengths in nm at a temperature in K."""
    span_t2 = T_MAX_K**2 - T_MIN_K**2
    delta = RELATIVE_SPAN_NM * (temp_k**2 - RESONANCE_K**2) / span_t2
    lam_c = RESONANCE_NM + CAVITY_SLOPE_NM_PER_K * (temp_k - RESONANCE_K)
    return lam_c + delta, lam_c


def clean_spectrum(temp_k):
    """(wavelength grid, unit-area intensity) of the exciton-fed emission.

    The lines sit at the eigenvalues of the non-Hermitian mode matrix,
    weighted by the exciton's squared eigenbasis coefficients.
    """
    lam_x, lam_c = tuning(temp_k)
    e_x, e_c = HC_UEV_NM / lam_x, HC_UEV_NM / lam_c
    m = np.array([[e_x - 0.5j * GAMMA_X_UEV, G_UEV],
                  [G_UEV, e_c - 0.5j * GAMMA_C_UEV]])
    vals, vecs = np.linalg.eig(m)
    weights = np.abs(np.linalg.solve(vecs, [1.0, 0.0])) ** 2
    weights /= weights.sum()
    mid = HC_UEV_NM / vals.real.mean()
    lam = mid + np.arange(-30, 31) * 0.03
    energy = HC_UEV_NM / lam
    y = np.zeros_like(lam)
    for val, w in zip(vals, weights):
        fwhm = -2.0 * val.imag
        y += w * (2.0 / (np.pi * fwhm)) / (1.0 + 4.0 * (energy - val.real) ** 2
                                           / fwhm**2)
    area = np.sum(0.5 * (y[1:] + y[:-1]) * np.diff(lam))
    return lam, y / area


def noisy_series(rng, noise_fraction):
    """One temperature series of spectra with multiplicative noise."""
    out = []
    for t in SERIES_TEMPS_K:
        lam, y = clean_spectrum(float(t))
        noisy = np.maximum(y * (1 + noise_fraction * rng.standard_normal(len(y))),
                           0.0)
        out.append((float(t), lam, noisy))
    return out


def write_spectrum(path, temp_k, lam, y):
    with open(path, "w") as fh:
        fh.write(f"# temperature_K={temp_k!r}\nwavelength_nm,intensity\n")
        for a, b in zip(lam, y):
            fh.write(f"{float(a)!r},{float(b)!r}\n")


def parse_blocks(text):
    """[title] key = value blocks of a CLI report, in order."""
    blocks = []
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("[") and line.endswith("]"):
            blocks.append((line[1:-1], {}))
        elif "=" in line and blocks:
            key, _, val = line.partition("=")
            blocks[-1][1][key.strip()] = val.strip()
    return blocks
