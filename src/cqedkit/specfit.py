"""Double-Lorentzian spectral fitting and anticrossing extraction.

Lorentzians are parameterized by area (not height) for stable covariance
near merged peaks; each spectrum gets one constant baseline.  Fits are
box-bounded least squares with an analytic Jacobian, solved by a small
Levenberg-Marquardt loop projected onto the bounds (`_lm_box`), so a
width that reaches its floor sits exactly on it.  A line whose FWHM is
or falls below a quarter of the sampling step is fitted in the
coordinates (A w, c, w) instead: the data fix only its A w and centre,
and in those coordinates the solver reaches the width floor in a few
steps instead of sliding along A w = const.  Areas, covariance and the
convergence flag are reported in the area coordinates either way.  A fitted temperature
series is assembled into a branch-continued anticrossing from which
(gamma_c, gamma_x, splitting, g) are inverted.  Synthetic series tune
the exciton and cavity lines with temperature by the fixed calibration
below, crossing at a resonance temperature given per call.
"""
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import coupled
from .errors import (AnticrossingError, ConfigError, ConvergenceError,
                     InsufficientStatisticsError, NoSignalError)
from .units import HC_UEV_NM, local_energy_per_nm, wavelength_to_energy

MAX_ITERATIONS = 200
#: the least nonzero noise fraction: a sigma below the float64 resolution
#: of the intensity it weights means nothing, and far below it the
#: weights 1 / (fraction * intensity) overflow the squared residuals
MIN_NOISE_FRACTION = sys.float_info.epsilon

# Temperature tuning: the exciton red-shifts quadratically in T, the
# cavity linearly; their relative shift spans RELATIVE_SPAN_NM over the
# calibrated range and is zero at the resonance temperature, where both
# lines sit at RESONANCE_WAVELENGTH_NM.
RESONANCE_WAVELENGTH_NM = 936.35
CAVITY_SLOPE_NM_PER_K = 0.006
RELATIVE_SPAN_NM = 1.5
T_MIN_K = 6.0
T_MAX_K = 40.0


@dataclass(frozen=True)
class Spectrum:
    """Sampled intensity vs wavelength, optionally temperature-tagged."""

    wavelength_nm: np.ndarray
    intensity: np.ndarray
    temperature: float | None = None

    def __post_init__(self):
        lam = np.asarray(self.wavelength_nm, dtype=float)
        inten = np.asarray(self.intensity, dtype=float)
        if lam.ndim != 1 or lam.shape != inten.shape:
            raise ValueError("wavelength and intensity must be matching 1-D arrays")
        if np.any(np.diff(lam) <= 0):
            raise ValueError("wavelengths must be strictly increasing")
        if np.any(inten < 0):
            raise ValueError("intensities must be >= 0")
        object.__setattr__(self, "wavelength_nm", lam)
        object.__setattr__(self, "intensity", inten)


@dataclass(frozen=True)
class LorentzianParams:
    center: float   # nm
    fwhm: float     # nm
    area: float     # arbitrary units

    def __post_init__(self):
        if self.fwhm <= 0 or self.area <= 0:
            raise ValueError("fwhm and area must be positive")


@dataclass(frozen=True)
class FitResult:
    """Two Lorentzians plus baseline; peaks ordered by center."""

    peaks: tuple[LorentzianParams, LorentzianParams]
    baseline: float
    covariance: np.ndarray     # 7x7, parameter order (A1,c1,w1,A2,c2,w2,b)
    reduced_chi2: float
    converged: bool
    model_evals: int       # evaluations of the model by the solver
    jacobian_evals: int    # evaluations of its Jacobian
    status: int            # `_lm_box`'s stop code

    @property
    def center_errors(self) -> tuple[float, float]:
        d = np.sqrt(np.maximum(np.diag(self.covariance), 0.0))
        return float(d[1]), float(d[4])


@dataclass(frozen=True)
class MeasuredAnticrossing:
    """Branch-continued fitted lines vs temperature (wavelengths in nm)."""

    temperature: np.ndarray
    center_a: np.ndarray
    fwhm_a: np.ndarray
    center_b: np.ndarray
    fwhm_b: np.ndarray
    center_err_a: np.ndarray
    center_err_b: np.ndarray


@dataclass(frozen=True)
class CouplingExtraction:
    gamma_c: float            # ueV
    gamma_x: float            # ueV
    splitting: float          # ueV
    g: float                  # ueV; see resolvable
    resonance_temperature: float
    splitting_err: float
    g_err: float
    resolvable: bool          # False => g is an upper bound


def double_lorentzian(lam, params):
    """Two area-normalised Lorentzians plus a constant baseline; params
    (A1,c1,w1,A2,c2,w2,b).  Each line is 2 A w / (pi (w^2 + 4 d^2)) at
    detuning d = lam - c."""
    a1, c1, w1, a2, c2, w2, b = np.asarray(params, dtype=float).tolist()
    out = lam - c1
    out *= out
    out *= 4.0
    out += w1 * w1
    np.divide(2.0 * a1 * w1 / math.pi, out, out=out)
    den = lam - c2
    den *= den
    den *= 4.0
    den += w2 * w2
    np.divide(2.0 * a2 * w2 / math.pi, den, out=den)
    out += den
    out += b
    return out


def double_lorentzian_jacobian(lam, params):
    """Analytic Jacobian of the model, shape (n_points, 7).

    The columns are filled as rows of a C-contiguous (7, n) buffer, whose
    transpose is returned.
    """
    p = np.asarray(params, dtype=float).tolist()
    jac = np.empty((7, len(lam)))
    for k in (0, 3):
        a, c, w = p[k:k + 3]
        d = lam - c
        d2 = d * d
        inv = 4.0 * d2
        inv += w * w
        np.divide(1.0, inv, out=inv)
        np.multiply(inv, 2.0 * w / math.pi, out=jac[k])
        inv *= inv
        d *= inv
        np.multiply(d, 16.0 * a * w / math.pi, out=jac[k + 1])
        d2 *= 4.0
        d2 -= w * w
        d2 *= inv
        np.multiply(d2, 2.0 * a / math.pi, out=jac[k + 2])
    jac[6] = 1.0
    return jac.T


def find_peaks(x: np.ndarray, prominence: float
               ) -> tuple[np.ndarray, np.ndarray]:
    """Indices and prominences of the local maxima of x with at least the
    given prominence, as `scipy.signal.find_peaks(x, prominence=...)`.

    A plateau counts once, at its middle index (rounded down); the end
    samples are never peaks.  A peak's prominence is its height minus the
    higher of its two bases, the lowest value on each side before x
    rises above the peak or the array ends.
    """
    x = np.asarray(x, dtype=float)
    starts = np.flatnonzero(np.r_[True, x[1:] != x[:-1]])
    ends = np.r_[starts[1:] - 1, len(x) - 1]
    v = x[starts]
    is_peak = np.zeros(len(v), dtype=bool)
    is_peak[1:-1] = (v[1:-1] > v[:-2]) & (v[1:-1] > v[2:])
    idx = (starts[is_peak] + ends[is_peak]) // 2
    prom = np.empty(len(idx))
    for k, i in enumerate(idx):
        higher = np.flatnonzero(x > x[i])
        left = higher[higher < i]
        right = higher[higher > i]
        lo = left[-1] + 1 if left.size else 0
        hi = right[0] if right.size else len(x)
        prom[k] = x[i] - max(x[lo:i + 1].min(), x[i:hi].min())
    keep = prom >= prominence
    return idx[keep], prom[keep]


def width_floor(lam: np.ndarray) -> float:
    """Lower bound of a fitted FWHM: 1/50 of the smallest sampling step."""
    return float(np.min(np.diff(lam))) / 50.0


def initial_guess(s: Spectrum) -> np.ndarray:
    """Seed parameters (A1,c1,w1,A2,c2,w2,b) from peak finding.

    Peaks are found on the 5-point smoothed spectrum.  When only one
    stands out there, the raw spectrum is searched as well: a line
    narrower than the smoothing window shows as a raw peak whose
    neighbours both lie below its half maximum.  Such a line is seeded at
    its peak sample, with the width its neighbours imply for a
    Lorentzian centred there (no wider than two grid steps, no narrower
    than the width floor) and the area that puts the peak sample on it.
    The other line is seeded at the highest point of the smoothed
    spectrum left once that line is taken out.  With no narrow line the
    seeds are a symmetric one-FWHM split (merged weak-coupling case).
    """
    lam, y = s.wavelength_nm, s.intensity
    span = y.max() - y.min()
    if span <= 0 or not np.isfinite(span):
        raise NoSignalError("flat spectrum")
    smooth = np.convolve(y, np.ones(5) / 5.0, mode="same")
    baseline = float(np.percentile(y, 5))
    idx, prominences = find_peaks(smooth, prominence=0.05 * span)
    if len(idx) == 0:
        idx = np.array([int(np.argmax(smooth))])
        prominences = np.array([span])
    order = np.argsort(prominences)[::-1]
    idx = idx[order[:2]]

    def width_at(v, i):
        half = baseline + 0.5 * (v[i] - baseline)
        left = i
        while left > 0 and v[left] > half:
            left -= 1
        right = i
        while right < len(lam) - 1 and v[right] > half:
            right += 1
        return max(lam[right] - lam[left], 2.0 * (lam[1] - lam[0]))

    def narrow_line():
        raw, raw_prominences = find_peaks(y, prominence=0.05 * span)
        for k in raw[np.argsort(raw_prominences)[::-1]]:
            height = y[k] - baseline
            if 0 < height and max(y[k - 1], y[k + 1]) - baseline <= 0.5 * height:
                # a line centred on sample k has side / height =
                # w^2 / (w^2 + 4 step^2) on the samples either side
                side = max(0.5 * (y[k - 1] + y[k + 1]) - baseline, 0.0)
                step = 0.5 * (lam[k + 1] - lam[k - 1])
                fwhm = 2.0 * step * math.sqrt(side / (height - side))
                return lam[k], max(fwhm, width_floor(lam)), height
        return None

    if len(idx) == 2:
        seeds = sorted(((lam[i], width_at(smooth, i), smooth[i] - baseline)
                        for i in idx))
    elif (narrow := narrow_line()) is not None:
        c, fwhm, height = narrow
        rest = y - height * fwhm**2 / (fwhm**2 + 4.0 * (lam - c) ** 2)
        rest = np.convolve(rest, np.ones(5) / 5.0, mode="same")
        j = int(np.argmax(rest))
        seeds = sorted([narrow, (lam[j], width_at(rest, j), rest[j] - baseline)])
    else:
        i = idx[0]
        w = width_at(smooth, i)
        h = smooth[i] - baseline
        seeds = [(lam[i] - 0.5 * w, w, 0.5 * h), (lam[i] + 0.5 * w, w, 0.5 * h)]
    params = []
    for center, fwhm, height in seeds:
        params.extend([max(height, 1e-12 * span) * np.pi * fwhm / 2.0, center, fwhm])
    params.append(baseline)
    return np.array(params)


def _lm_box(fun, jac, x, lo, hi, ftol, xtol, gtol, max_nfev, stop=None):
    """Minimise 0.5*|fun(x)|^2 on the box lo <= x <= hi.

    Levenberg-Marquardt with Marquardt's diagonal scaling, projected onto
    the box (More, LNM 630, 1978; Kanzow, Yamashita & Fukushima, J.
    Comput. Appl. Math. 172, 375 (2004)).  A parameter on a bound whose
    gradient points out of the box is frozen for the step.  When every
    parameter is free, as on nearly every step, the damped normal
    equations are solved as they stand, and the trial point is kept if
    it lies in the box.  Otherwise the system is rebuilt with an identity
    row for each frozen parameter, and a parameter the step would carry
    out of the box is put exactly on its bound and frozen, the rest
    solved again around it, until no free parameter leaves the box.  A
    non-finite step takes this path too.  The damping follows the gain
    ratio (Nielsen's update, IMM-REP-1999-05).

    Returns (x, residuals, Jacobian at x, status) with scipy's status
    codes: 0 evaluation cap or a non-finite gradient, 1 projected
    gradient below gtol, 2 relative cost reduction below ftol, 3 step
    below xtol.  An optional predicate stop(x), checked at each accepted
    point that meets none of these, returns that point with status -1.
    """
    n = len(x)
    eye = np.eye(n)
    r = fun(x)
    nfev = 1
    cost = 0.5 * (r @ r)
    J = jac(x)
    scale = np.zeros(n)
    mu, nu = 0.1, 2.0
    while True:
        g = J.T @ r
        # gtol as scipy's trust-region-reflective reads it: each gradient
        # component times the distance to the bound it points at (1 if
        # that bound is infinite), so a parameter pinned on its bound by
        # the gradient counts as converged
        room = np.where(g < 0, hi - x, x - lo)
        gmax = np.abs(g * np.where(np.isinf(room), 1.0, room)).max()
        if gmax < gtol:
            return x, r, J, 1
        # a NaN or inf gradient makes every step non-finite: stop at once
        if nfev >= max_nfev or not math.isfinite(gmax):
            return x, r, J, 0
        if stop is not None and stop(x):
            return x, r, J, -1
        free = room > 0
        jtj = J.T @ J
        scale = np.maximum(scale, jtj.diagonal())  # More's monotone scaling
        damped = jtj + eye * (mu * np.maximum(scale, 1e-30 * scale.max()))
        if free.all():
            step = np.linalg.solve(damped, -g)
        else:
            # identity rows keep the step of each frozen parameter at 0
            step = np.linalg.solve(np.where(free[:, None] & free, damped, eye),
                                   np.where(free, -g, 0.0))
        x_new = x + step
        # NaN fails both comparisons, so a non-finite step is clipped too
        if not ((lo <= x_new) & (x_new <= hi)).all():
            x_new = x.copy()
            while True:
                trial = np.clip(x + step, lo, hi)
                x_new[free] = trial[free]
                out = free & (trial != x + step)
                if not out.any():
                    break
                step[out] = trial[out] - x[out]
                free &= ~out
                step = np.linalg.solve(
                    np.where(free[:, None] & free, damped, eye),
                    np.where(free, -g - jtj @ (step * ~free), step))
        step = x_new - x
        r_new = fun(x_new)
        nfev += 1
        cost_new = 0.5 * (r_new @ r_new)
        reduction = cost - cost_new
        predicted = -(g @ step + 0.5 * (step @ jtj @ step))
        ratio = reduction / predicted if predicted > 0 else 0.0
        status = 0
        if reduction < ftol * cost and ratio > 0.25:
            status = 2
        elif math.sqrt(step @ step) < xtol * (xtol + math.sqrt(x @ x)):
            status = 3
        if reduction > 0:
            x, r, cost = x_new, r_new, cost_new
            J = jac(x)
            mu *= max(1.0 / 3.0, 1.0 - (2.0 * ratio - 1.0) ** 3)
            nu = 2.0
        else:
            mu *= nu
            nu *= 2.0
        if status:
            return x, r, J, status


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def fit_double_lorentzian(s: Spectrum, seed=None, sigma=None) -> FitResult:
    """Box-bounded double-Lorentzian least-squares fit.

    Projected Levenberg-Marquardt (`_lm_box`) with the analytic Jacobian,
    at most 600 model evaluations; converged means it stopped on ftol
    (1e-10), xtol (1e-12) or gtol (1e-8) with neither FWHM on its upper
    bound of 10x the span, where a line has turned into a second baseline.
    The result carries the solver's model and Jacobian evaluations and its
    stop code.  A fit whose residuals or Jacobian end non-finite, or whose
    sums of their squares overflow, raises ConvergenceError; numpy's
    floating-point warnings are off inside, so that error is all it says.

    A line whose FWHM is or falls below a quarter of the smallest
    sampling step is fitted in (h = A w, c, w) instead of (A, c, w).  Such
    a line has at most one sample within two FWHMs of its centre, and off
    its core a line puts about A w / (2 pi d^2) on a sample at distance
    d, so the data fix only h and c.  In area coordinates the fit slides
    along the curved ridge A w = const, about 2% of w per step, until the
    width reaches its floor; in (h, c, w) that ridge is a straight line
    along w, and Gauss-Newton steps follow it.  The seed picks each
    line's coordinates.  A line in area coordinates that falls below the
    quarter step at an accepted point ends that leg of `_lm_box`; the fit
    picks the coordinates again by the same rule and goes on from that
    point within the same 600 evaluations.  A line switches at most once,
    from area to (h, c, w) coordinates, so a fit has at most three legs,
    and its counts and stop code cover them all.  The Jacobian columns
    follow by the chain rule, d/dh = (d/dA) / w and d/dw at fixed h =
    d/dw at fixed A - (d/dA) A / w, and the area-coordinate Jacobian at
    the solution, which gives the covariance, is transformed back from
    the last one.  The lower bound of h is that of A times the upper bound
    of w, so A = h / w stays above its own bound.  Every other line, and
    every fit without such a line, keeps the area coordinates and the same
    arithmetic.  Wider lines stay in area coordinates because a line the
    grid resolves is fitted no better in (h, c, w): on a resonant noisy
    doublet the area coordinates end at a lower cost.

    sigma: optional per-point standard deviations for heteroscedastic
    weighting (e.g. multiplicative detection noise); default unweighted.

    Both widths are bounded below by 1/50 of the smallest sampling step
    (0.6 pm on a 0.03 nm grid, just below a 0.94 ueV exciton line), so a
    line centred between two samples puts under 0.05% of its peak on
    either one.  A step that would cross the floor puts the width exactly
    on it, and the fit converges there with the width held while the
    gradient presses on the bound.  A fitted FWHM equal to this floor
    means "narrower than the grid resolves".
    """
    lam, y = s.wavelength_nm, s.intensity
    if len(lam) < 8:
        raise InsufficientStatisticsError(
            f"{len(lam)} spectrum samples cannot fix the 7 fit parameters; "
            f"need at least 8")
    if seed is None:
        seed = initial_guess(s)
    seed = np.asarray(seed, dtype=float)
    if sigma is None:
        w = np.ones_like(y)
    else:
        sigma = np.asarray(sigma, dtype=float)
        w = 1.0 / np.maximum(sigma, 1e-3 * np.max(sigma))

    span = lam[-1] - lam[0]
    w_min = width_floor(lam)
    lo = np.array([1e-300, lam[0] - span, w_min,
                   1e-300, lam[0] - span, w_min, -np.inf])
    hi = np.array([np.inf, lam[-1] + span, 10 * span,
                   np.inf, lam[-1] + span, 10 * span, np.inf])
    # a line below a quarter step, 12.5 floors, is fitted in (A w, c, w)
    q, lo_q = np.clip(seed, lo, hi), lo.copy()
    sub = []
    evals = [0, 0]

    def areas(q):
        p = q.copy()
        for k in sub:
            p[k] = q[k] / q[k + 2]
        return p

    def fun(q):
        evals[0] += 1
        return (double_lorentzian(lam, areas(q)) - y) * w

    def jac(q):
        evals[1] += 1
        p = areas(q)
        J = double_lorentzian_jacobian(lam, p) * w[:, None]
        for k in sub:
            J[:, k] /= p[k + 2]            # d/dh = (d/dA) / w
            J[:, k + 2] -= J[:, k] * p[k]  # d/dw at fixed h
        return J

    def narrowed(q):  # the lines in area coordinates below a quarter step
        return [k for k in (0, 3) if k not in sub and q[k + 2] < 12.5 * w_min]

    while True:  # a line switches at most once, so at most three legs
        for k in narrowed(q):
            sub.append(k)
            lo_q[k] = lo[k] * hi[k + 2]  # so that A = h / w >= lo[k]
            q[k] = max(q[k] * q[k + 2], lo_q[k])
        q, r, J, status = _lm_box(
            fun, jac, q, lo_q, hi, ftol=1e-10, xtol=1e-12, gtol=1e-8,
            max_nfev=MAX_ITERATIONS * 3 - evals[0], stop=narrowed)
        if status >= 0:
            break
    p = areas(q)
    for k in sub:  # the area-coordinate Jacobian at the solution
        J[:, k + 2] += J[:, k] * p[k]
        J[:, k] *= p[k + 2]
    converged = bool(status > 0 and max(p[2], p[5]) < hi[2])

    dof = len(lam) - 7
    variance = (r @ r) / dof
    jtj = J.T @ J
    # data near the float range overflow the model, its weights or these
    # sums, and the solver stops on the non-finite gradient
    if not (math.isfinite(variance) and np.isfinite(jtj).all()):
        raise ConvergenceError(
            "fit overflowed float64: its residuals or Jacobian are not "
            "finite; rescale the wavelengths or intensities")
    cov = variance * np.linalg.pinv(jtj)

    first, second = (0, 3) if p[1] <= p[4] else (3, 0)
    if first == 3:  # keep covariance aligned with the reported peak order
        perm = [3, 4, 5, 0, 1, 2, 6]
        cov = cov[np.ix_(perm, perm)]
    peaks = (
        LorentzianParams(p[first + 1], p[first + 2], p[first]),
        LorentzianParams(p[second + 1], p[second + 2], p[second]),
    )
    return FitResult(peaks, float(p[6]), cov, float(variance), converged,
                     evals[0], evals[1], status)


def _params_of(fit: FitResult) -> np.ndarray:
    p1, p2 = fit.peaks
    return np.array([p1.area, p1.center, p1.fwhm,
                     p2.area, p2.center, p2.fwhm, fit.baseline])


def noise_sigma(s: Spectrum, noise_fraction: float):
    """Per-point sigma of multiplicative noise, fraction * intensity; None
    (unweighted) at a fraction of 0.  Any other fraction that is not a
    finite number >= MIN_NOISE_FRACTION raises ConfigError."""
    if noise_fraction == 0:
        return None
    if not MIN_NOISE_FRACTION <= noise_fraction < math.inf:
        raise ConfigError(f"noise fraction {noise_fraction!r} is not 0 or a "
                          f"finite number >= {MIN_NOISE_FRACTION:.3g}, the "
                          f"float64 resolution of an intensity")
    return noise_fraction * s.intensity


def fit_series(spectra: list[Spectrum], noise_fraction: float = 0.0
               ) -> list[tuple[float, FitResult]]:
    """Fit a temperature-ordered list of spectra with warm starts.

    Each spectrum is fit both from a fresh initial guess and from the
    previous temperature's solution; the lower-cost result wins.  This
    suppresses spurious local optima near the anticrossing where the two
    lines merge.  A nonzero noise_fraction enables multiplicative-noise
    weighting (`noise_sigma`).
    """
    out = []
    prev = None
    for s in spectra:
        if s.temperature is None:
            raise ValueError("every spectrum needs a temperature tag")
        sigma = noise_sigma(s, noise_fraction)
        candidates = []
        if prev is not None:
            warm = fit_double_lorentzian(s, seed=_params_of(prev), sigma=sigma)
            candidates.append(warm)
        # retry from a fresh guess unless the warm start already explains
        # the data at the noise level (calibrated chi^2 only with sigma)
        if not (candidates and sigma is not None
                and candidates[0].converged and candidates[0].reduced_chi2 <= 2.0):
            try:
                candidates.append(fit_double_lorentzian(s, sigma=sigma))
            except NoSignalError:
                if not candidates:
                    raise
        best = min(candidates, key=lambda f: f.reduced_chi2)
        if best.converged:
            prev = best
        out.append((float(s.temperature), best))
    return out


def assemble_anticrossing(series: list[tuple[float, FitResult]]) -> MeasuredAnticrossing:
    """Branch-continue a fitted temperature series.

    Unconverged fits and gross misfits (reduced chi^2 more than 10x the
    series median) are dropped -- they carry no reportable parameters;
    branch identity follows continuity in (center, width), the measured
    counterpart of adiabatic eigenvector continuation.
    """
    series = [(t, f) for t, f in series if f.converged]
    if series:
        med_chi2 = float(np.median([f.reduced_chi2 for _, f in series]))
        series = [(t, f) for t, f in series
                  if f.reduced_chi2 <= 10.0 * med_chi2 + 1e-300]
    if len(series) < 5:
        raise AnticrossingError(
            f"need >= 5 converged fits spanning resonance, got {len(series)}")
    temps = np.array([t for t, _ in series], dtype=float)
    if np.any(np.diff(temps) <= 0):
        raise ValueError("temperature series must be strictly increasing")

    # scales for the continuity metric
    all_w = np.concatenate([[f.peaks[0].fwhm, f.peaks[1].fwhm] for _, f in series])
    scale_c = max(np.median(all_w), 1e-9)
    scale_w = max(all_w.max() - all_w.min(), 1e-9)

    def cost(pk, c_prev, w_prev):
        return ((pk.center - c_prev) / scale_c) ** 2 + ((pk.fwhm - w_prev) / scale_w) ** 2

    rows = []  # (center_a, fwhm_a, center_b, fwhm_b, center_err_a, center_err_b)
    for _, fit in series:
        (p0, p1), (e0, e1) = fit.peaks, fit.center_errors
        if rows:
            c_a, w_a, c_b, w_b = rows[-1][:4]
            keep = cost(p0, c_a, w_a) + cost(p1, c_b, w_b)
            swap = cost(p1, c_a, w_a) + cost(p0, c_b, w_b)
            if keep > swap:
                p0, p1, e0, e1 = p1, p0, e1, e0
        rows.append((p0.center, p0.fwhm, p1.center, p1.fwhm, e0, e1))
    return MeasuredAnticrossing(temps, *map(np.array, zip(*rows)))


def extract_coupling(curve: MeasuredAnticrossing) -> CouplingExtraction:
    """Invert an anticrossing for (gamma_c, gamma_x, splitting, g).

    Only robustly measured quantities enter: the center separations, the
    broad-branch widths (the narrow detuned branch can fall below the
    sampling resolution and its fitted width is unreliable), and the
    loss-sum invariant -- the two branch widths sum to gamma_c + gamma_x
    at every detuning, evaluated near resonance where both branches are
    broad.  Writing sep and S (minimum separation) for the real parts
    and dw for the branch-width difference, the coupled-mode eigenvalues
    give the exact relations

        detuning^2 = sep^2 - dw^2/4 - S^2
        gamma_c - gamma_x = sep * dw / detuning

    so each detuned point yields an estimate of gamma_c - gamma_x with
    dw = 2*w_broad - (width sum); the median over points is used.  This
    reduces to reading the bare widths off the far-detuned branches, but
    stays exact at moderate detuning.  nm -> ueV conversions use the
    local dE/d(lambda) at resonance.
    """
    sep = np.abs(curve.center_a - curve.center_b)
    i_min = int(np.argmin(sep))
    n = len(sep)
    if i_min == 0 or i_min == n - 1:
        raise AnticrossingError(
            f"series {curve.temperature[0]:g}-{curve.temperature[-1]:g} K does "
            f"not span the resonance: the lines are closest at "
            f"{curve.temperature[i_min]:g} K, its end")
    lam_res = 0.5 * (curve.center_a[i_min] + curve.center_b[i_min])
    per_nm = local_energy_per_nm(lam_res)
    sep = sep * per_nm
    w_a, w_b = curve.fwhm_a * per_nm, curve.fwhm_b * per_nm
    splitting = float(sep[i_min])

    # loss sum gamma_c + gamma_x from the points nearest resonance
    order = np.argsort(np.abs(sep - splitting))
    near = order[:min(5, n)]
    w_sum = float(np.median(w_a[near] + w_b[near]))
    w_sum_err = float(1.4826 * np.median(np.abs(w_a[near] + w_b[near] - w_sum))
                      / np.sqrt(len(near)) + 1e-12)

    # per-point estimates of D = gamma_c - gamma_x from detuned points
    w_broad = np.maximum(w_a, w_b)
    dw = 2.0 * w_broad - w_sum
    disc = sep**2 - dw**2 / 4.0 - splitting**2
    usable = (sep > 1.2 * splitting) & (disc > 0) & (dw > 0)
    usable[i_min] = False
    if not np.any(usable):
        raise AnticrossingError("series has no usable detuned points")
    d_est = sep[usable] * dw[usable] / np.sqrt(disc[usable])
    d = float(np.median(d_est))
    d_err = float(1.4826 * np.median(np.abs(d_est - d)) / np.sqrt(len(d_est))
                  + w_sum_err)

    gamma_c = float((w_sum + d) / 2.0)
    gamma_x = float(max((w_sum - d) / 2.0, 1e-6))

    sep_err_nm = np.hypot(curve.center_err_a[i_min], curve.center_err_b[i_min])
    splitting_err = float(sep_err_nm * per_nm)
    resolvable = splitting > 2.0 * splitting_err

    g = coupled.extract_coupling_strength(splitting, d)
    g_err = float(np.hypot(splitting / (4.0 * g) * splitting_err,
                           d / (8.0 * g) * d_err))
    return CouplingExtraction(
        gamma_c, gamma_x, splitting, g,
        float(curve.temperature[i_min]),
        splitting_err, g_err, resolvable)


def temperature_tuning(temperature: float, resonance_temp: float = 10.5
                       ) -> tuple[float, float]:
    """(lambda_exciton, lambda_cavity) in nm at a temperature in K, for
    lines that cross at resonance_temp."""
    t = float(temperature)
    if not T_MIN_K <= t <= T_MAX_K:
        raise ValueError(
            f"temperature {t} K outside calibrated range "
            f"[{T_MIN_K}, {T_MAX_K}] K")
    span_t2 = T_MAX_K**2 - T_MIN_K**2
    delta = RELATIVE_SPAN_NM * (t**2 - resonance_temp**2) / span_t2
    lam_c = (RESONANCE_WAVELENGTH_NM
             + CAVITY_SLOPE_NM_PER_K * (t - resonance_temp))
    return lam_c + delta, lam_c


def tuned_system(p: coupled.SystemParams, temperature: float,
                 resonance_temp: float = 10.5) -> coupled.SystemParams:
    """p with its exciton and cavity lines tuned to a temperature in K."""
    lam_x, lam_c = temperature_tuning(temperature, resonance_temp)
    return replace(p, e_x=wavelength_to_energy(lam_x),
                   e_c=wavelength_to_energy(lam_c))


def synthetic_anticrossing(p: coupled.SystemParams, temperatures,
                           rng: "np.random.Generator") -> list[Spectrum]:
    """Noisy model spectra of p tuned to each temperature, in order.

    Each spectrum has 61 points 0.03 nm apart, centred on the midpoint of
    the two branches, and 5% multiplicative Gaussian noise clipped at 0
    (one rng.standard_normal(61) per temperature).
    """
    spectra = []
    for t in temperatures:
        pt = tuned_system(p, float(t))
        pair = coupled.eigen_energies(pt)
        mid = HC_UEV_NM / (0.5 * (pair.upper.real + pair.lower.real))
        lam = mid + np.arange(-30, 31) * 0.03
        clean = coupled.model_spectrum(pt, lam)
        y = np.maximum(clean * (1 + 0.05 * rng.standard_normal(lam.size)), 0.0)
        spectra.append(Spectrum(lam, y, temperature=float(t)))
    return spectra
