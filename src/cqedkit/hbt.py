"""Hanbury-Brown-Twiss correlation analysis.

Full multi-start correlation (all pairs within the window), not start-stop:
normalization is then exact and unbiased at high rates.  Pulsed g2(0) is
the tau=0 peak area over the mean side-peak area with integration
half-width rep_period/2, so the peaks partition the delay axis without
gaps.  Errors are Poisson counting statistics.
"""
from dataclasses import dataclass, replace

import numpy as np

from . import kernels
from .errors import (InsufficientStatisticsError, MiscalibrationError,
                     NoSignalError, PeakWindowError)


@dataclass(frozen=True)
class CorrelationHistogram:
    """Binned coincidences vs delay with normalization metadata."""

    tau: np.ndarray          # bin centers, ps
    counts: np.ndarray       # int64 coincidences per bin
    bin_width: float
    duration: float          # acquisition time, ps
    n_a: int                 # singles on start channel
    n_b: int                 # singles on stop channel
    is_auto: bool

    @property
    def window(self) -> float:
        return float(self.tau[-1])

    def merged_with(self, other: "CorrelationHistogram") -> "CorrelationHistogram":
        """Accumulate a histogram from another segment of the same setup."""
        if (len(other.tau) != len(self.tau)
                or other.bin_width != self.bin_width
                or other.is_auto != self.is_auto):
            raise ValueError("histograms have incompatible binning")
        return replace(self, counts=self.counts + other.counts,
                       duration=self.duration + other.duration,
                       n_a=self.n_a + other.n_a, n_b=self.n_b + other.n_b)


@dataclass(frozen=True)
class G2Estimate:
    value: float
    stderr: float
    method: str


def correlate(times_a, times_b=None, *, window: float, bin_width: float,
              duration: float) -> CorrelationHistogram:
    """All-pairs delay histogram t_b - t_a within +/- window.

    Pass times_b=None (or the same array) for autocorrelation; self-pairs
    are excluded.  Inputs must be sorted, e.g. from ClickStream.filter.
    """
    # decided before the conversion, which copies a list or a non-float64
    # array and so would make one stream two
    auto = times_b is None or times_b is times_a
    times_a = np.asarray(times_a, dtype=np.float64)
    times_b = times_a if auto else np.asarray(times_b, dtype=np.float64)
    if len(times_a) == 0 or len(times_b) == 0:
        raise NoSignalError("empty click stream")
    counts = kernels.pair_histogram(times_a, times_b, window, bin_width,
                                    exclude_self=auto)
    tau = kernels.bin_centers(window, bin_width)
    return CorrelationHistogram(tau, counts, float(bin_width), float(duration),
                                len(times_a), len(times_b), auto)


def normalized_g2(h: CorrelationHistogram) -> tuple[np.ndarray, np.ndarray]:
    """CW-normalized g2(tau) curve and its Poisson standard error."""
    pairs = h.n_a * h.n_b - (h.n_a if h.is_auto else 0)
    level = pairs / h.duration * h.bin_width
    if level <= 0:
        raise InsufficientStatisticsError("no pairs to normalize against")
    g2 = h.counts / level
    err = np.sqrt(np.maximum(h.counts, 1)) / level
    return g2, err


def _peak_areas(h: CorrelationHistogram, rep_period: float, n_side: int):
    needed = (n_side + 0.5) * rep_period
    if h.window < needed:
        raise PeakWindowError(
            f"window {h.window} ps too small for {n_side} side peaks "
            f"at rep period {rep_period} ps (needs >= {needed} ps)")
    # the peak index never falls along tau, so peak k is one run of bins
    peak_idx = np.rint(h.tau / rep_period).astype(int)
    edges = np.searchsorted(peak_idx, np.arange(-n_side, n_side + 2)).tolist()
    areas = [int(h.counts[lo:hi].sum()) for lo, hi in zip(edges, edges[1:])]
    center = areas.pop(n_side)
    return center, np.array(areas)


def pulsed_g2_zero(h: CorrelationHistogram, rep_period: float,
                   n_side: int = 6, method: str = "pulsed_peak_area") -> G2Estimate:
    """Pulsed g2(0): tau=0 peak area over the mean side-peak area."""
    center, side = _peak_areas(h, rep_period, n_side)
    total_side = side.sum()
    if total_side == 0:
        raise InsufficientStatisticsError("no counts in any side peak")
    mean_side = total_side / len(side)
    value = center / mean_side
    err = np.sqrt(max(center, 1) / mean_side**2 + value**2 / total_side)
    return G2Estimate(value, err, method)


def cross_g2_zero(h: CorrelationHistogram, rep_period: float,
                  n_side: int = 6) -> G2Estimate:
    """Pulsed cross-correlation g2(0) of an X-vs-C histogram."""
    return pulsed_g2_zero(h, rep_period, n_side, method="pulsed_cross_peak_area")


def subtract_dark_counts(h: CorrelationHistogram,
                         dark_rates: tuple[float, float],
                         singles_rates: tuple[float, float]) -> CorrelationHistogram:
    """Remove expected accidental coincidences involving dark counts.

    Rates in 1/ps; singles_rates are the total measured rates including
    darks.  Expected pairs per bin with at least one dark partner:
    (d_a s_b + s_a d_b - d_a d_b) * T * bin_width.  Clamped at zero.
    """
    d_a, d_b = dark_rates
    s_a, s_b = singles_rates
    if d_a < 0 or d_b < 0 or s_a < d_a or s_b < d_b:
        raise ValueError("dark rates must be >= 0 and <= singles rates")
    expected = (d_a * s_b + s_a * d_b - d_a * d_b) * h.duration * h.bin_width
    excess = expected - h.counts
    bad = excess > 5.0 * np.sqrt(max(expected, 1.0))
    if np.any(bad):
        raise MiscalibrationError(
            f"dark subtraction exceeds counts by >5 sigma in "
            f"{int(bad.sum())} bins; check rate calibration")
    cleaned = np.maximum(h.counts - expected, 0.0)
    return replace(h, counts=cleaned)

