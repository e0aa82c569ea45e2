"""All-pairs coincidence-counting kernel (numpy).

A pair (t_a, t_b) counts iff fl(t_a - edge) <= t_b < fl(t_a + edge), and
its delay is fl(t_b - t_a).  Two bounds give each time in a its partner
range in b, the ranks lo and hi of fl(a - edge) and fl(a + edge) in b
(the b[j] below each); an autocorrelation needs only hi.  Both key arrays
are sorted, so a stable argsort of the keys followed by b merges the two
runs, and a key that ties with some b[j] sorts before it, as
searchsorted(..., "left") counts it; the rank is the key's position less
its index.  The merge costs about len(keys) + len(b), a search about
len(keys) log len(b), so keys fewer than a quarter of b are searched.
The sparse X keys of a dense CW stream's X -> C cross are searched;
every bound of the pulsed Fig. 4 histograms is merged.
The kernel then walks all ranges together, one partner offset per step,
binning the delays of the sources still inside their range.  There are
as many steps as the longest range, and no step holds more than one delay
per source.

A cross-correlation walks either stream: from b, the ranges are turned
around by counting (b[j] pairs with the a[i] whose range has begun by j
and not yet ended), so the pairs stay exactly the same.  A walk costs
about one operation per source and one bincount over every bin per step,
so the kernel walks the stream with the smaller len(walked) +
max_span(walked) * n_bins.  The rule reads only the two searches and the
counts of the turned ranges, which either orientation needs.  Neither
the longer nor the shorter stream always wins: a sparse X stream against
a dense C stream at 130 ps bins walks X, the shorter one, and at 10 ps
bins over +/-30 ns it walks C, the longer one.

An autocorrelation (exclude_self, one stream t, and a window wider than
an ulp of every time) walks each unordered pair {i, j}, i < j, once.
The ranges are prefixes of the later times: (i, j) counts iff j < hi[i],
and (j, i) iff j < J[i], the number of j with fl(t[j] - edge) <= t[i].
Those j are a prefix too, and hi <= J, so J walks up from hi, one compare
of fl(t[J] - edge) with t[i] a step for the sources not yet past it; most
sources stop at the first, and no lower bound is searched.  The walk over
i < j < hi[i] gathers t[j], subtracts d = fl(t[j] - t[i]) once and bins
both +d and -d, whose bin is that of fl(t[i] - t[j]).  The pairs with
hi[i] <= j < J[i] count one way only, as a delay that rounds onto the
window edge can; a second, short walk bins their -d.  Self pairs are
never visited, so there is nothing to subtract, and the walk takes about
half the steps.

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

A dense autocorrelation walk, one with at least 64 pairs (the sum of the
spans) per source, drops that per-step guard and bins from prescaled
times: with u = fl(t inv) and v = fl(u - fl(edge inv)), step s computes
z = fl(u[j] - v[i]) for its pairs (a lag slice or a gather, as above)
and adds bincount(int64(z)) to the mirrored bins.  Before the walk one
pass finds the few pairs that may need more.  On Poisson times in 10 ps
bins that pass cost about 140 ns per source (two argsorts and a search
of sorted keys), and the prescaled steps saved about 1.6 ns per pair at
30,000 sources and 4.6 ns at 2,000, whose steps are shorter.  The two
walks broke even near 16 pairs per source at 2,000 sources, 80-100 at
30,000 and 64 at 200,000; with the crossover at 64, the walk taken was
at most 12% slower than the other on those streams.

With M = max |u|, n_bins bins and eps = 2^-53, the roundings of inv,
u[j], u[i], fl(edge inv) and v[i] put the exact u[j] - v[i] within
eps (3M + 2 n_bins) of q = (t_j - t_i + edge) / bin_width, and those of
the two divisions put their quotients within 2.5 eps n_bins of q and of
n_bins - q; a partner just inside fl(t_i + edge) has q at most
eps (M + n_bins / 2) above n_bins.  So z truncates to another bin than
the divisions, or onto the sentinel bin n_bins, only if u[j] - v[i] lies
within eps (4M + 4.5 n_bins) of an integer: if frac(u[j]) and frac(v[i])
are that close, mod 1.  tol = (2M + 2.25 n_bins + 3) 2^-52 adds 6 eps
for the roundings of the fractions and of the search keys, and for a
subnormal edge.  The pass sorts frac(u) with copies shifted by -1 and
+1, sorts frac(v), and searches the keys frac(v) +/- tol: every value
match (i, j), wrap-around included.  The matches with j in the range of
i are binned by the walk like every other pair; after it their int64(z)
is taken out of the mirrored bins and their bins from the two divisions
added, clipped.  The counts are bit-identical to the per-step walk's.
The autocorrelations of the resonant-CW benchmark streams had no value
match at all.

The per-step guard stays for a walk with fewer than 64 pairs per source
(the Fig. 4 C and X autocorrelations of a 100,000-pulse run have about
6 and 2 later partners per click), with more value
matches than sources (grid-valued times: a CW stream rounded to 0.1 ps
gave about 10 M), with a bin width or inv that is not a normal number,
a fl(edge inv) that is not finite, or tol not below 1/4.
"""
import numpy as np


#: 2 window / bin_width must be below it, so a histogram has at most
#: MAX_HIST_BINS + 1 bins, its zero bin included; the paper's analysis
#: (84.5 ns at 130 ps) has 1,301 bins
MAX_HIST_BINS = 1_000_000


def _half_bins(window, bin_width):
    """n_half = round(window / bin_width), the bins on each side of zero;
    ValueError if 2 window / bin_width is not finite or not below
    MAX_HIST_BINS."""
    ratio = window / bin_width
    if not 2.0 * ratio < MAX_HIST_BINS:
        raise ValueError(f"window / bin_width = {ratio!r}: 2 window / "
                         f"bin_width must be finite and below "
                         f"{MAX_HIST_BINS:,} (at most {MAX_HIST_BINS + 1:,} "
                         f"delay bins)")
    return int(round(ratio))


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def pair_histogram(a, b, window, bin_width, exclude_self=False):
    """All-pairs delay histogram of t_b - t_a within +/- window.

    Inputs must be finite and sorted ascending.  Bins are centered on
    multiples of bin_width: n_half = round(window / bin_width) bins each
    side plus the zero bin, and 2 window / bin_width must be below
    MAX_HIST_BINS.  With exclude_self, the self pairs that count are
    removed from the zero bin: those with a + edge > a, every one unless
    the window is below half an ulp of a time (use for autocorrelation,
    where a and b are one array).
    """
    if bin_width <= 0 or window <= 0:
        raise ValueError("window and bin_width must be positive")
    n_half = _half_bins(window, bin_width)
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("times must be finite")
    if (a[1:] < a[:-1]).any() or (b[1:] < b[:-1]).any():
        raise ValueError("times must be sorted ascending")
    edge = (n_half + 0.5) * bin_width
    counts = np.zeros(2 * n_half + 1, dtype=np.int64)
    # a[i] pairs with b[j] for lo[i] <= j < hi[i]
    hi = _ranks(a + edge, b)
    if (exclude_self and np.array_equal(a, b)
            and (a + edge > a).all() and (a - edge < a).all()):
        # every self pair counts, so lo[i] <= i < hi[i].  For j > i the
        # pair (i, j) counts iff j < hi[i], and (j, i) iff
        # fl(t[j] - edge) <= t[i], that is iff j < J[i]: those j are a
        # prefix, as fl(t[j] - edge) is nondecreasing.  Since
        # t[j] < fl(t[i] + edge) gives t[j] - edge <= t[i] exactly,
        # hi <= J, so J walks up from hi
        n = len(a)
        J = hi.copy()
        walk = np.flatnonzero(hi < n)
        while len(walk):
            walk = walk[a[J[walk]] - edge <= a[walk]]
            J[walk] += 1
            walk = walk[J[walk] < n]
        start = np.arange(1, n + 1)
        span = hi - start
        # below the shortest range that ends before the last time, every
        # step is a lag slice; those ranges are a prefix, as hi is sorted
        lags = span[:np.searchsorted(hi, n)].min(initial=n)
        _walk(counts, a, a, start, span, (1, -1), edge, bin_width, lags)
        # a pair (j, i) with hi[i] <= j < J[i] counts one way only: its
        # delay rounds onto the window edge
        one_way = np.flatnonzero(J > hi)
        _walk(counts, a[one_way], a, hi[one_way], J[one_way] - hi[one_way],
              (-1,), edge, bin_width)
        return counts
    lo = _ranks(a - edge, b)
    # b[j] pairs with a[i] for lo_b[j] <= i < hi_b[j]: lo_b[j] counts the
    # ranges that end at or before j, hi_b[j] those that begin there
    lo_b, hi_b = (np.cumsum(np.bincount(x, minlength=len(b) + 1))[:len(b)]
                  for x in (hi, lo))
    # walk the stream whose sources and steps cost less: a step adds a
    # bincount over every bin
    span, span_b = hi - lo, hi_b - lo_b
    n_bins = len(counts)
    if (len(b) + span_b.max(initial=0) * n_bins
            < len(a) + span.max(initial=0) * n_bins):
        # fl(t_b - t_a) is the negated delay of the walk from b
        _walk(counts, b, a, lo_b, span_b, (-1,), edge, bin_width)
    else:
        _walk(counts, a, b, lo, span, (1,), edge, bin_width)
    if exclude_self:
        # self pairs land exactly in the zero-delay bin; below half an ulp
        # t + edge == t, and the self pair does not count
        counts[n_half] -= np.count_nonzero(a + edge > a)
    return counts


def _ranks(keys, b):
    """searchsorted(b, keys, "left") of sorted keys into sorted b: the
    b[j] below each key.  Unless the keys are fewer than a quarter of b,
    they are ranked by one stable merge, keys first, so that each key
    precedes the b[j] equal to it."""
    if 4 * len(keys) < len(b):
        return np.searchsorted(b, keys, side="left")
    order = np.argsort(np.concatenate((keys, b)), kind="stable")
    # the keys keep their order, so the i-th key found is keys[i], with i
    # keys and its rank in b before it
    return np.flatnonzero(order < len(keys)) - np.arange(len(keys))


def _walk(counts, t, oth, lo, span, signs, edge, bin_width, lags=0):
    """Add to counts the bin of each sign times d = fl(oth[j] - t[i]),
    for lo[i] <= j < lo[i] + span[i]; the bin of -d is that of the delay
    fl(t[i] - oth[j]).  Steps s < lags take the lag slice of oth against
    itself: the caller guarantees that t is oth, lo[i] = i + 1 and span
    > s exactly for i < len(oth) - 1 - s.  A mirrored walk that
    _prescaled finds dense bins from prescaled times.  Reorders lo and
    span."""
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
    plus = np.zeros(n_bins + 1, dtype=np.int64)
    scaled = mirror and _prescaled(oth, t, lo, span, edge, bin_width, n_bins)
    if scaled:
        # a step bins trunc(z), z = fl(u[j] - v[i]); the value matches in
        # range are binned too, and moved to the divisions' bins after
        u, v_lag, v, src, dst = scaled
        for s in range(span.max(initial=0)):
            if s < lags:
                z = u[s + 1:] - v_lag[:len(u) - 1 - s]
            else:
                i = np.searchsorted(span, s, side="right")
                z = u[s:][lo[i:]] - v[i:]
            plus += np.bincount(z.astype(np.int64), minlength=n_bins + 1)
        plus -= np.bincount((u[dst] - v[src]).astype(np.int64),
                            minlength=n_bins + 1)
        d = oth[dst] - t[src]
        for sign in signs:
            counts += np.bincount(np.clip(bins(d, sign), 0, n_bins - 1),
                                  minlength=n_bins)
        counts += plus[:n_bins] + plus[n_bins - 1::-1]
        return
    inv = 1.0 / bin_width
    tol = n_bins * 2.0**-48
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


def _prescaled(oth, t, lo, span, edge, bin_width, n_bins):
    """(u, v_lag, v, src, dst) for a dense mirrored walk of oth against
    itself, or None where the walk keeps its per-step guard.

    u = fl(oth * inv) and v_lag = fl(u - fl(edge * inv)), both in the
    order of oth, and v the same as v_lag for the sources t.  The pairs
    in range whose trunc(fl(u[j] - v[i])) may not be a bin of the two
    divisions are those with oth[dst[m]] the partner of source t[src[m]].
    Dense means at least 64 pairs per source; beyond as many value
    matches as sources, the walk keeps its guard too."""
    if span.sum() < 64 * len(span) or not len(span):
        return None
    tiny = np.finfo(np.float64).tiny
    inv = 1.0 / bin_width
    e = edge * inv
    u = oth * inv
    tol = (2.0 * np.abs(u).max() + 2.25 * n_bins + 3.0) * 2.0**-52
    # nan and inf fail every compare
    if not (tiny <= bin_width and tiny <= inv and e < n_bins and tol < 0.25):
        return None
    v_lag = u - e
    v = t * inv
    v -= e
    # the sorted fractions of u, with copies one below and one above,
    # hold every fraction within tol of one of v, wrap-around included;
    # a window 2 tol wide holds at most one copy of each.  Sorted keys
    # are searched about five times faster than unsorted ones
    fu = u - np.floor(u)
    by_fu = np.argsort(fu)
    ring = fu[by_fu]
    ring = np.concatenate((ring - 1, ring, ring + 1))
    fv = v - np.floor(v)
    by_fv = np.argsort(fv)
    fv = fv[by_fv]
    # fv - tol < 1 <= ring[-1], so first is inside the ring, and for all
    # but the few keys with a match ring[first] is beyond fv + tol
    first = np.searchsorted(ring, fv - tol, side="left")
    near = np.flatnonzero(ring[first] <= fv + tol)
    n_match = np.searchsorted(ring, fv[near] + tol, side="right") - first[near]
    if n_match.sum() > len(t):
        return None
    src = np.repeat(by_fv[near], n_match)
    at = np.arange(len(src)) - np.repeat(
        np.cumsum(n_match) - n_match - first[near], n_match)
    dst = by_fu[at % len(u)]
    keep = (lo[src] <= dst) & (dst < lo[src] + span[src])
    return u, v_lag, v, src[keep], dst[keep]


def bin_centers(window, bin_width):
    """Delay-bin centers matching pair_histogram's binning."""
    n_half = _half_bins(window, bin_width)
    return np.arange(-n_half, n_half + 1) * float(bin_width)
