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
