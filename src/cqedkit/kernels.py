"""All-pairs coincidence-counting kernel (numpy).

A pair (t_a, t_b) counts iff fl(t_a - edge) <= t_b < fl(t_a + edge), and
its delay is fl(t_b - t_a).  Two `searchsorted` bounds give each time in
a its partner range in b.  The longer stream gives the sources: when b is
longer, the ranges are turned around by counting (b[j] pairs with the
a[i] whose range has begun by j and not yet ended), so the pairs stay
exactly the same.  The kernel then walks all ranges together, one
partner offset per step, binning the delays of the sources still inside
their range.  There are as many steps as the largest partner count of a
time in the longer stream, and no step holds more than one delay per
source.

For one source the bin is monotone in its partner's position: the delay,
the division and the truncation all are.  So the bins of the sources'
first and last partners bound every bin of the call.  They are checked
once, before the walk, and the steps clip the bins into range only if
that check finds one outside it, as a delay that rounds onto the window
edge can.
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
    if (a[1:] < a[:-1]).any() or (b[1:] < b[:-1]).any():
        raise ValueError("times must be sorted ascending")
    n_half = int(round(window / bin_width))
    edge = (n_half + 0.5) * bin_width
    n_bins = 2 * n_half + 1
    counts = np.zeros(n_bins, dtype=np.int64)
    # a[i] pairs with b[j] for lo[i] <= j < hi[i]
    lo = np.searchsorted(b, a - edge, side="left")
    hi = np.searchsorted(b, a + edge, side="left")
    flip = len(a) < len(b)
    src, oth = (b, a) if flip else (a, b)
    if flip:
        # b[j] pairs with a[i] for lo[j] <= i < hi[j]: lo[j] counts the
        # ranges that end at or before j, hi[j] those that begin there
        lo, hi = (np.cumsum(np.bincount(x, minlength=len(b) + 1))[:len(b)]
                  for x in (hi, lo))

    def delays(t, partner):
        return t - partner if flip else partner - t  # fl(t_b - t_a) either way

    def bins(d):
        return ((d + edge) / bin_width).astype(np.int64)

    # shortest range first: at step s the sources still inside their
    # range are the suffix with span > s
    span = hi - lo
    order = np.argsort(span)
    t, lo, span = src[order], lo[order], span[order]
    # the bins of the first and last partners of the sources that have
    # partners bound every bin of the call
    i = np.searchsorted(span, 0, side="right")
    first = delays(t[i:], oth[lo[i:]])
    last = delays(t[i:], oth[lo[i:] + span[i:] - 1])
    clip = i < len(span) and (bins(min(first.min(), last.min())) < 0 or
                              bins(max(first.max(), last.max())) >= n_bins)
    for s in range(span.max(initial=0)):
        i = np.searchsorted(span, s, side="right")
        k = bins(delays(t[i:], oth[s:][lo[i:]]))
        if clip:
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
