"""All-pairs coincidence-counting kernel (numpy).

Two `searchsorted` bounds give each source time its partner range in the
other stream; the kernel then walks all ranges together, one partner
offset per step, binning the delays of the sources still inside their
range.  There are as many steps as the largest partner count, and no
step holds more than one delay per source.
"""
import numpy as np


def pair_histogram(a, b, window, bin_width, exclude_self=False):
    """All-pairs delay histogram of t_b - t_a within +/- window.

    Inputs must be finite and sorted ascending.  Bins are centered on
    multiples of bin_width: n_half = round(window / bin_width) bins each
    side plus the zero bin.  With exclude_self, the len(a) self pairs are
    removed from the zero bin (use for autocorrelation, where a and b are
    one array).
    """
    if bin_width <= 0 or window <= 0:
        raise ValueError("window and bin_width must be positive")
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("times must be finite")
    n_half = int(round(window / bin_width))
    edge = (n_half + 0.5) * bin_width
    n_bins = 2 * n_half + 1
    counts = np.zeros(n_bins, dtype=np.int64)
    lo = np.searchsorted(b, a - edge, side="left")
    hi = np.searchsorted(b, a + edge, side="left")
    # shortest range first: at step s the sources still inside their
    # range are the suffix with span > s
    span = hi - lo
    order = np.argsort(span)
    t, lo, span = a[order], lo[order], span[order]
    for s in range(span.max(initial=0)):
        i = np.searchsorted(span, s, side="right")
        k = ((b[lo[i:] + s] - t[i:] + edge) / bin_width).astype(np.int64)
        np.clip(k, 0, n_bins - 1, out=k)
        counts += np.bincount(k, minlength=n_bins)
    if exclude_self:
        # self pairs land exactly in the zero-delay bin
        counts[n_half] -= len(a)
    return counts


def bin_centers(window, bin_width):
    """Delay-bin centers matching pair_histogram's binning."""
    n_half = int(round(window / bin_width))
    return np.arange(-n_half, n_half + 1) * float(bin_width)
