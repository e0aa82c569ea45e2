import numpy as np
import pytest

from cqedkit import kernels


def brute_force(a, b, window, bin_width, exclude_self):
    n_half = int(round(window / bin_width))
    edge = (n_half + 0.5) * bin_width
    counts = np.zeros(2 * n_half + 1, dtype=np.int64)
    for i, ta in enumerate(a):
        for j, tb in enumerate(b):
            if exclude_self and i == j:
                continue
            d = tb - ta
            if -edge <= d < edge:
                counts[int((d + edge) / bin_width)] += 1
    return counts


@pytest.mark.parametrize("exclude_self", [False, True])
def test_pair_histogram_matches_brute_force(exclude_self):
    rng = np.random.default_rng(0)
    for _ in range(10):
        a = np.sort(rng.uniform(0, 1000.0, rng.integers(1, 80)))
        b = a if exclude_self else np.sort(rng.uniform(0, 1000.0,
                                                       rng.integers(1, 80)))
        window = rng.uniform(50.0, 400.0)
        bin_width = rng.uniform(5.0, 60.0)
        got = kernels.pair_histogram(a, b, window, bin_width,
                                     exclude_self=exclude_self)
        assert np.array_equal(
            got, brute_force(a, b, window, bin_width, exclude_self))


def test_empty_and_duplicate_times_match_brute_force():
    # grid times put delays on bin edges and many partners on one time
    rng = np.random.default_rng(3)
    grid = np.sort(rng.integers(0, 12, 40) * 25.0)
    empty = np.empty(0)
    for a, b, excl in ((grid, grid, True), (grid, grid[::3], False),
                       (empty, grid, False), (grid, empty, False),
                       (empty, empty, True)):
        got = kernels.pair_histogram(a, b, 100.0, 25.0, exclude_self=excl)
        assert np.array_equal(got, brute_force(a, b, 100.0, 25.0, excl))


def contract(a, b, window, bin_width):
    """The kernel's contract over all pairs at once: (t_a, t_b) counts iff
    fl(t_a - edge) <= t_b < fl(t_a + edge), in bin
    clip(trunc(fl(fl(t_b - t_a) + edge) / bin_width))."""
    n_half = int(round(window / bin_width))
    edge = (n_half + 0.5) * bin_width
    n_bins = 2 * n_half + 1
    ta, tb = a[:, None], b[None, :]
    paired = (ta - edge <= tb) & (tb < ta + edge)
    k = (((tb - ta) + edge) / bin_width).astype(np.int64)[paired]
    return np.bincount(np.clip(k, 0, n_bins - 1), minlength=n_bins)


def test_pair_histogram_matches_contract_in_either_orientation():
    # the longer stream gives the sources, so len(a) < len(b) walks b;
    # grid times put delays on bin edges and repeat times, and a 1e9
    # offset makes a -/+ edge round
    rng = np.random.default_rng(14)
    for case in range(300):
        n_a, n_b = rng.integers(0, 50, 2)
        if case % 2:
            n_a, n_b = min(n_a, n_b), max(n_a, n_b)
        bin_width = float(rng.choice([1.0, 2.5, 10.0, rng.uniform(0.3, 40.0)]))
        window = bin_width * rng.integers(1, 15) + rng.uniform(0.0, bin_width)
        offset = 1e9 if case % 3 == 2 else 0.0
        if case % 3 == 0:
            a, b = (np.sort(rng.uniform(0.0, 500.0, n)) for n in (n_a, n_b))
        else:
            a, b = (np.sort(offset + rng.integers(0, 60, n) * bin_width / 2
                            + rng.choice([0.0, 1e-7], n))
                    for n in (n_a, n_b))
        got = kernels.pair_histogram(a, b, window, bin_width)
        assert np.array_equal(got, contract(a, b, window, bin_width)), case
        if n_a:
            auto = contract(a, a, window, bin_width)
            auto[len(auto) // 2] -= n_a
            assert np.array_equal(
                kernels.pair_histogram(a, a, window, bin_width,
                                       exclude_self=True), auto), case


@pytest.mark.parametrize("extra", [0, 3], ids=["same_length", "b_longer"])
def test_delay_rounding_onto_the_window_edge_is_clipped(extra):
    # at a 1e9 ps offset, the partner just below fl(t_a + edge) has a delay
    # that rounds to bin n_bins; the walk clips it into the last bin
    a = np.array([1e9])
    window, bin_width = 1e9, 2e8  # n_half 5, edge 1.1e9, 11 bins
    last = np.nextafter(a[0] + 1.1e9, -np.inf)
    assert int(((last - a[0]) + 1.1e9) / bin_width) == 11
    b = np.concatenate([a[0] + np.arange(extra) * 1e8, [last]])
    got = kernels.pair_histogram(a, b, window, bin_width)
    assert np.array_equal(got, contract(a, b, window, bin_width))
    assert got[-1] == 1 and got.sum() == 1 + extra


def auto_contract(t, window, bin_width):
    """contract() of a stream with itself, less the self pairs it counts:
    those with t < fl(t + edge), every one unless the window is below half
    an ulp of a time."""
    edge = (int(round(window / bin_width)) + 0.5) * bin_width
    want = contract(t, t, window, bin_width)
    want[len(want) // 2] -= np.count_nonzero(t + edge > t)
    return want


def partner_ranges(t, window, bin_width):
    """The kernel's lo and hi of t against itself, and J[i], the number of
    ranges begun at or before i."""
    edge = (int(round(window / bin_width)) + 0.5) * bin_width
    lo = np.searchsorted(t, t - edge, side="left")
    hi = np.searchsorted(t, t + edge, side="left")
    return lo, hi, np.cumsum(np.bincount(lo, minlength=len(t)))


@pytest.mark.parametrize("offset", [1e6, -1e6, 2.0**40])
def test_autocorrelation_counts_pairs_that_count_one_way(offset):
    # on a 1/3-ps grid a 10-ps bin puts the window edge at 45 grid steps:
    # fl(t_j - edge) can round onto t_i while t_j >= fl(t_i + edge), so
    # (j, i) counts and (i, j) does not
    t = offset + np.arange(120) / 3.0
    lo, hi, J = partner_ranges(t, 10.0, 10.0)
    assert (hi <= J).all() and (hi != J).any()
    got = kernels.pair_histogram(t, t, 10.0, 10.0, exclude_self=True)
    assert np.array_equal(got, auto_contract(t, 10.0, 10.0))


def test_autocorrelation_window_below_half_an_ulp():
    # at 2**40 ps a time's ulp is 2**-12 ps; a 1e-5 ps window is below half
    # of it, so t + edge == t there and the self pairs do not count
    t = np.concatenate([[0.0, 5e-6, 1e-5],
                        2.0**40 + np.array([0.0, 0.0, 2.0**-12])])
    edge = 1.5e-5
    assert (t + edge == t).any() and (t[:3] + edge > t[:3]).all()
    got = kernels.pair_histogram(t, t, 1e-5, 1e-5, exclude_self=True)
    assert np.array_equal(got, auto_contract(t, 1e-5, 1e-5))
    assert (got >= 0).all()
    # no pair counts at all, so nothing is left to subtract
    t = 2.0**40 + np.array([0.0, 0.0, 2.0**-12])
    got = kernels.pair_histogram(t, t, 1e-5, 1e-5, exclude_self=True)
    assert np.array_equal(got, [0, 0, 0])


def test_dense_autocorrelation_matches_contract():
    # hundreds of partners per time, repeated 10-ps grid times among them
    rng = np.random.default_rng(20)
    t = np.sort(np.concatenate([rng.uniform(0.0, 2e4, 800),
                                rng.integers(0, 2000, 200) * 10.0]))
    lo, hi, _ = partner_ranges(t, 5000.0, 10.0)
    assert np.median(hi - lo) > 300
    got = kernels.pair_histogram(t, t, 5000.0, 10.0, exclude_self=True)
    assert np.array_equal(got, auto_contract(t, 5000.0, 10.0))


def lag_regime(t, window, bin_width):
    """How many steps of the autocorrelation walk are lag slices: "every",
    "some" or "none".  The walk pairs i with i + 1 + s at step s, and the
    lag slices run up to the shortest range that ends before the last
    time."""
    _, hi, _ = partner_ranges(t, window, bin_width)
    span = hi - np.arange(1, len(t) + 1)
    lags = span[hi < len(t)].min(initial=len(t))
    if lags >= span.max(initial=0):
        return "every"
    return "some" if lags else "none"


def tagged_poisson(n, isolated=False):
    """Poisson arrivals at a 20 ps mean spacing on a 2.5 ps tagger grid,
    with one click 0.1 us after the rest if isolated."""
    rng = np.random.default_rng(21)
    t = np.round(np.cumsum(rng.exponential(20.0, n)) / 2.5) * 2.5
    return np.append(t, t[-1] + 1e5) if isolated else t


@pytest.mark.parametrize("offset", [0.0, 2.0**40])
@pytest.mark.parametrize("times, regime", [
    (np.arange(200) * 2.5, "every"),
    (tagged_poisson(400), "some"),
    (tagged_poisson(400, isolated=True), "none"),
], ids=["even_grid", "poisson", "isolated_click"])
def test_autocorrelation_lag_slices_match_contract(offset, times, regime):
    # a 300 ps window in 10 ps bins puts the edge, 305 ps, on the 2.5 ps
    # grid: delays equal to it count one way only
    t = offset + times
    assert lag_regime(t, 300.0, 10.0) == regime
    _, hi, J = partner_ranges(t, 300.0, 10.0)
    assert (hi != J).any()
    got = kernels.pair_histogram(t, t, 300.0, 10.0, exclude_self=True)
    assert np.array_equal(got, auto_contract(t, 300.0, 10.0))


def edge_delays(t, window, bin_width):
    """How many pairs i < j that count have a delay on a bin edge:
    fl(fl(t_j - t_i) + edge) / bin_width an integer, or not finite.  The
    autocorrelation walk bins those by division; the rest it mirrors."""
    edge = (int(round(window / bin_width)) + 0.5) * bin_width
    i, j = np.triu_indices(len(t), 1)
    d = (t[j] - t[i])[t[j] < t[i] + edge]
    z = (d + edge) / bin_width
    return np.count_nonzero(~np.isfinite(z) | (z == np.trunc(z)))


def half_bin_grid(offset, bin_width, seed, n=120):
    """Sorted times on a bin_width / 2 grid, with repeats: every other
    delay between them lies on a bin edge."""
    rng = np.random.default_rng(seed)
    return np.sort(offset + rng.integers(0, 2 * n, n) * (bin_width / 2))


@pytest.mark.parametrize("offset", [0.0, 1e6, 2.0**40, 2.0**52])
@pytest.mark.parametrize("window_bins", [20, 20.3, 7.6], ids=[
    "whole_bins", "partial_bin", "partial_bin_up"])
def test_mirrored_bins_of_edge_delays_match_contract(offset, window_bins):
    # the delays on a bin edge are those whose -d bin is not the mirror
    # n_bins - 1 - k of their +d bin k; the walk must see and redo them
    t = half_bin_grid(offset, 10.0, seed=24)
    assert (np.diff(t) == 0).any()
    window = window_bins * 10.0
    assert edge_delays(t, window, 10.0) > 0
    got = kernels.pair_histogram(t, t, window, 10.0, exclude_self=True)
    assert np.array_equal(got, auto_contract(t, window, 10.0))


@pytest.mark.parametrize("offset, bin_width, n_half", [
    (0.0, 10.0, 20), (1e9, 2e8, 5)])
def test_mirrored_bins_clip_delays_rounding_onto_the_window_edge(
        offset, bin_width, n_half):
    # the last time is just below fl(t_0 + edge), so it pairs with t_0,
    # but fl(edge + d) rounds up to 2 edge: bin n_bins before the clip
    window = n_half * bin_width
    edge = (n_half + 0.5) * bin_width
    t = half_bin_grid(offset, bin_width, seed=25, n=2 * n_half)
    t = np.append(t[t < t[0] + edge], np.nextafter(t[0] + edge, -np.inf))
    assert int(((t[-1] - t[0]) + edge) / bin_width) == 2 * n_half + 1
    assert edge_delays(t, window, bin_width) > 0
    got = kernels.pair_histogram(t, t, window, bin_width, exclude_self=True)
    assert np.array_equal(got, auto_contract(t, window, bin_width))
    assert got[-1] > 0


@pytest.mark.parametrize("bin_width", [1e-300, 1e300, 1e-308, 4e-323], ids=[
    "tiny", "huge", "subnormal", "subnormal_inf_reciprocal"])
def test_mirrored_bins_at_extreme_bin_widths_match_contract(bin_width):
    # 1 / 4e-323 overflows to inf, and 1e-308 is subnormal with a finite
    # reciprocal; neither may raise a floating-point warning
    t = half_bin_grid(0.0, bin_width, seed=26, n=80)
    window = 12.3 * bin_width
    assert edge_delays(t, window, bin_width) > 0
    got = kernels.pair_histogram(t, t, window, bin_width, exclude_self=True)
    assert np.array_equal(got, auto_contract(t, window, bin_width))


def test_exclude_self_removes_exactly_n_zero_delay_pairs():
    t = np.array([0.0, 100.0, 250.0])
    with_self = kernels.pair_histogram(t, t, 500.0, 50.0, exclude_self=False)
    without = kernels.pair_histogram(t, t, 500.0, 50.0, exclude_self=True)
    diff = with_self - without
    centers = kernels.bin_centers(500.0, 50.0)
    assert diff[centers == 0.0] == len(t)
    assert diff.sum() == len(t)


def test_bin_centers_layout():
    centers = kernels.bin_centers(500.0, 100.0)
    assert np.array_equal(centers, [-500.0, -400.0, -300.0, -200.0, -100.0,
                                    0.0, 100.0, 200.0, 300.0, 400.0, 500.0])
    assert len(centers) % 2 == 1
    # non-integer window/bin ratio rounds to the nearest bin count
    assert len(kernels.bin_centers(520.0, 100.0)) == 11


def test_invalid_arguments():
    t = np.array([0.0, 1.0])
    with pytest.raises(ValueError):
        kernels.pair_histogram(t, t, -1.0, 10.0)
    with pytest.raises(ValueError):
        kernels.pair_histogram(t, t, 100.0, 0.0)
    # a NaN or inf time would be cast to an arbitrary int64 bin
    with pytest.raises(ValueError, match="finite"):
        kernels.pair_histogram(t, np.array([0.0, np.nan]), 100.0, 10.0)
    with pytest.raises(ValueError, match="finite"):
        kernels.pair_histogram(np.array([0.0, np.inf]), t, 100.0, 10.0)
    # the partner ranges of either orientation need sorted streams
    with pytest.raises(ValueError, match="times must be sorted ascending"):
        kernels.pair_histogram(t, t[::-1], 100.0, 10.0)
    with pytest.raises(ValueError, match="times must be sorted ascending"):
        kernels.pair_histogram(np.array([2.0, 1.0, 3.0]), t, 100.0, 10.0)
