"""All-pairs coincidence-counting kernel (numpy).

A pair (t_a, t_b) counts iff fl(t_a - edge) <= t_b < fl(t_a + edge), and
its delay is fl(t_b - t_a).  Two `searchsorted` bounds give each time in
a its partner range in b.  The kernel then walks all ranges together, one
partner offset per step, binning the delays of the sources still inside
their range.  There are as many steps as the longest range, and no step
holds more than one delay per source.

A cross-correlation walks the longer stream: when b is longer, the ranges
are turned around by counting (b[j] pairs with the a[i] whose range has
begun by j and not yet ended), so the pairs stay exactly the same.

An autocorrelation (exclude_self, one stream t, and a window wider than
an ulp of every time) walks each unordered pair {i, j}, i < j, once.
The ranges are prefixes of the later times: (i, j) counts iff j < hi[i],
and (j, i) iff j < J[i], the number of ranges begun by i, again found by
counting.  hi <= J always, so the walk over i < j < hi[i] gathers t[j],
subtracts d = fl(t[j] - t[i]) once and bins both +d and -d, whose bin
is that of fl(t[i] - t[j]).  The pairs with hi[i] <= j < J[i] count one
way only, as a delay that rounds onto the window edge can; a second,
short walk bins their -d.  Self pairs are never visited, so there is
nothing to subtract, and the walk takes about half the steps.

The first steps of that walk need no gather.  Its ranges start at
lo[i] = i + 1, so step s pairs i with i + 1 + s.  hi is nondecreasing,
so the sources whose range ends before the last time (hi[i] < n) are a
prefix, and every other source's range runs to the end.  While s is
below the shortest range of that prefix (or always, when it is empty),
the sources still in range are exactly i < n - 1 - s, and the step's
delays are the lag slice t[s + 1:] - t[:n - 1 - s]: the same pairs and
the same d = fl(t[j] - t[i]) as the gather, so the same bins.

For one source the bin is monotone in its partner's position: the delay,
the division and the truncation all are.  So the bins of the sources'
first and last partners bound every bin of a walk.  They are checked
once, before the walk, and the steps clip the bins into range only if
that check finds one outside it, as a delay that rounds onto the window
edge can.

The autocorrelation walk bins each delay once.  The bin of +d is
trunc(z) for z = fl(fl(edge + d) * inv), inv = fl(1 / bin_width), and
that of -d is n_bins - 1 - trunc(z), as in exact arithmetic
(edge + d) + (edge - d) = 2 edge = n_bins * bin_width.  The roundings of
edge, of edge + d and edge - d, of inv and of the product, and the
division that the product replaces, move z and the -d quotient against
each other by less than 8 (n_bins + 1) 2^-52, counting a subnormal
inv's rounding four times.  So where the fraction of z lies in
[tol, 1 - tol], tol = 16 n_bins 2^-52, both bins are those of the two
divisions.  Any other delay (a fraction near 0 or 1, as of a delay on a
bin edge, a negative z, or a non-finite one from a huge or subnormal
bin width) goes to the sentinel bin n_bins and is binned by the two
divisions.  The counts are bit-identical to binning +d and -d apart.
Extreme widths overflow to inf and nan on the way, so the kernel runs
with numpy's floating-point warnings off.
"""
import numpy as np


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def pair_histogram(a, b, window, bin_width, exclude_self=False):
    """All-pairs delay histogram of t_b - t_a within +/- window.

    Inputs must be finite and sorted ascending.  Bins are centered on
    multiples of bin_width: n_half = round(window / bin_width) bins each
    side plus the zero bin.  With exclude_self, the self pairs that count
    are removed from the zero bin: those with a + edge > a, every one
    unless the window is below half an ulp of a time (use for
    autocorrelation, where a and b are one array).
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
    counts = np.zeros(2 * n_half + 1, dtype=np.int64)
    # a[i] pairs with b[j] for lo[i] <= j < hi[i]
    lo = np.searchsorted(b, a - edge, side="left")
    hi = np.searchsorted(b, a + edge, side="left")
    if (exclude_self and np.array_equal(a, b)
            and (a + edge > a).all() and (a - edge < a).all()):
        # every self pair counts, so lo[i] <= i < hi[i].  For j > i the
        # pair (i, j) counts iff j < hi[i], and (j, i) iff lo[j] <= i,
        # that is iff j < J[i], the number of ranges begun by i.  Since
        # t[j] < fl(t[i] + edge) gives t[j] - edge <= t[i] exactly, hi <= J
        J = np.cumsum(np.bincount(lo, minlength=len(a)))
        start = np.arange(1, len(a) + 1)
        span = hi - start
        # below the shortest range that ends before the last time, every
        # step is a lag slice; those ranges are a prefix, as hi is sorted
        lags = span[:np.searchsorted(hi, len(a))].min(initial=len(a))
        _walk(counts, a, a, start, span, (1, -1), edge, bin_width, lags)
        # a pair (j, i) with hi[i] <= j < J[i] counts one way only: its
        # delay rounds onto the window edge
        one_way = np.flatnonzero(J > hi)
        _walk(counts, a[one_way], a, hi[one_way], J[one_way] - hi[one_way],
              (-1,), edge, bin_width)
        return counts
    if len(a) < len(b):
        # b[j] pairs with a[i] for lo[j] <= i < hi[j]: lo[j] counts the
        # ranges that end at or before j, hi[j] those that begin there;
        # fl(t_b - t_a) is the negated delay of the walk from b
        lo, hi = (np.cumsum(np.bincount(x, minlength=len(b) + 1))[:len(b)]
                  for x in (hi, lo))
        _walk(counts, b, a, lo, hi - lo, (-1,), edge, bin_width)
    else:
        _walk(counts, a, b, lo, hi - lo, (1,), edge, bin_width)
    if exclude_self:
        # self pairs land exactly in the zero-delay bin; below half an ulp
        # t + edge == t, and the self pair does not count
        counts[n_half] -= np.count_nonzero(a + edge > a)
    return counts


def _walk(counts, t, oth, lo, span, signs, edge, bin_width, lags=0):
    """Add to counts the bin of each sign times d = fl(oth[j] - t[i]),
    for lo[i] <= j < lo[i] + span[i]; the bin of -d is that of the delay
    fl(t[i] - oth[j]).  Steps s < lags take the lag slice of oth against
    itself: the caller guarantees that t is oth, lo[i] = i + 1 and span
    > s exactly for i < len(oth) - 1 - s.  Reorders lo and span."""
    n_bins = len(counts)

    def bins(d, sign):
        return ((edge + d if sign > 0 else edge - d) / bin_width).astype(np.int64)

    # shortest range first: at step s the sources still inside their
    # range are the suffix with span > s.  lo and span are sorted in
    # place, so that no unsorted copy stays alive through the walk
    order = np.argsort(span)
    t = t[order]
    np.take(lo, order, out=lo)  # buffered, so the aliasing is safe
    np.take(span, order, out=span)
    # the bins of the first and last partners of the sources that have
    # partners bound every bin of the walk
    i = np.searchsorted(span, 0, side="right")
    clip = False
    if i < len(span):
        first = oth[lo[i:]] - t[i:]
        last = oth[lo[i:] + span[i:] - 1] - t[i:]
        ends = [bins(d, sign) for d in (min(first.min(), last.min()),
                                        max(first.max(), last.max()))
                for sign in signs]
        clip = min(ends) < 0 or max(ends) >= n_bins

    def delays(s, at=slice(None)):
        """The delays of step s, or those at the positions `at` of them."""
        if s < lags:
            return oth[s + 1:][at] - oth[:len(oth) - 1 - s][at]
        i = np.searchsorted(span, s, side="right")
        return oth[s:][lo[i:][at]] - t[i:][at]

    # mirrored bins: plus[k] counts the delays d whose +d bin is k, so
    # that -d is in bin n_bins - 1 - k; plus[n_bins] those left to bins()
    mirror = signs == (1, -1)
    inv = 1.0 / bin_width
    tol = n_bins * 2.0**-48
    plus = np.zeros(n_bins + 1, dtype=np.int64)
    for s in range(span.max(initial=0)):
        d = delays(s)
        if mirror:
            z = d  # in place; delays(s, off) gives d again where needed
            z += edge
            z *= inv
            k = np.trunc(z)
            z -= k  # the fraction: < 0 or nan if z is negative or not finite
            k = k.astype(np.int64)
            if clip:
                np.minimum(k, n_bins - 1, out=k)
            if z.min() >= tol and z.max() <= 1 - tol:
                plus += np.bincount(k, minlength=n_bins + 1)
                continue
            off = np.flatnonzero(~((z >= tol) & (z <= 1 - tol)))
            k[off] = n_bins
            plus += np.bincount(k, minlength=n_bins + 1)
            d = delays(s, off)
        for sign in signs:
            k = bins(d, sign)
            if clip:
                np.clip(k, 0, n_bins - 1, out=k)
            counts += np.bincount(k, minlength=n_bins)
    counts += plus[:n_bins] + plus[n_bins - 1::-1]


def bin_centers(window, bin_width):
    """Delay-bin centers matching pair_histogram's binning."""
    n_half = int(round(window / bin_width))
    return np.arange(-n_half, n_half + 1) * float(bin_width)
