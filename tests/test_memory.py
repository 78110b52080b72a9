"""Memory guards for the OS predictor: its CV sweep rotates the design into
the full Gram's range, a few columns wide, and its prediction evaluates
cosine features in blocks of ``ROW_BLOCK`` rows, so neither holds a second
copy of a large design.

Peaks are numpy's allocations as tracemalloc sees them, above what was
allocated before the call (LAPACK's workspace is not among them).  The fit
is measured at the default 500 features.  Its sweep decomposes the 2 MB
full Gram once, rotates the design into its range (14-18 directions on the
benchmark's worlds) in one product and gathers each fold's rows of that
once, for their moments, so above the design it holds the Gram, its
eigenvectors, the rotated design and one fold's rows of it: 6.0 MiB at 20k
rows, against 8.8 MiB when held-out rows were rotated 4 MiB at a time and
kept to score the folds, and 10.1 MiB when each fold's 500 x 500 training
Gram was formed.  A copy of one fold's rows would add 15 MiB.
"""

import tracemalloc

import numpy as np

from ppgen.regression import _median_bandwidth, flexible_fit

MIB = 2**20
N_ROWS = 20_000


def _peak_bytes(fn, *args, **kwargs) -> int:
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def _data(n: int, seed: int):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, n)
    return x, np.sin(4 * x) + rng.normal(0, 0.5, n)


def test_flexible_fit_peaks_at_its_design_plus_14_mib():
    x, y = _data(N_ROWS, 1)
    design = N_ROWS * 500 * 8  # the default 500 features
    assert _peak_bytes(flexible_fit, x, y, seed=2) <= design + 14 * MIB


def test_predict_on_20k_rows_peaks_under_8_mib():
    fit = flexible_fit(*_data(2_000, 3), seed=4)  # the default 500 features
    assert fit.frequencies.shape[0] == 500
    x = np.random.default_rng(5).uniform(-1, 1, N_ROWS)
    assert _peak_bytes(fit.predict, x) <= 8 * MIB


def test_median_bandwidth_at_1000_points_peaks_under_10_mib():
    # the 1000 x 1000 distance matrix alone would take 7.6 MiB, its upper-triangle indices 7.6 more
    x = np.random.default_rng(6).uniform(-1, 1, 1000)
    assert _peak_bytes(_median_bandwidth, x, np.random.default_rng(7)) <= 10 * MIB
