import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppgen.domain import (
    OS,
    TARGET,
    TRIAL,
    CompositeSample,
    KernelParams,
    check_names,
    derive_seed,
    read_sample_csv,
    write_sample_csv,
)


def make_sample():
    records = [
        (0.1, 0.2, TRIAL, 1, 1.5),
        (-0.5, 0.0, TARGET, -1, math.nan),
        (0.9, -0.3, TRIAL, 0, -0.2),
    ]
    return CompositeSample.from_records(records)


# The accessors partition a sample's rows by population label and arm.


def test_partition_by_s_and_a():
    sample = make_sample()
    x, y = sample.trial_arm_arrays(1)
    assert x.tolist() == [0.1] and y.tolist() == [1.5]


def test_partition_counts_match():
    records = [
        (0.0, 0.0, TARGET, -1, math.nan),
        (0.3, 0.0, TARGET, -1, math.nan),
        (0.1, 0.2, TRIAL, 1, 1.0),
    ]
    sample = CompositeSample.from_records(records)
    assert len(sample.target_x()) == 2 == np.count_nonzero(sample.s == TARGET)


def test_partition_empty_result_allowed():
    records = [(0.1, 0.2, TRIAL, 0, 1.0), (0.0, 0.0, TARGET, -1, math.nan)]
    sample = CompositeSample.from_records(records)
    x, y = sample.trial_arm_arrays(1)
    assert x.shape == y.shape == (0,)


_finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def sample_columns(draw, values=_finite):
    """Random valid columns: any labels, arms and finite ``values``."""
    n = draw(st.integers(0, 40))

    def column(elements):
        return np.array(draw(st.lists(elements, min_size=n, max_size=n)))

    s = column(st.sampled_from([TARGET, TRIAL, OS])).astype(np.int64)
    arm = column(st.sampled_from([0, 1])).astype(np.int64)
    x, u, y = (column(values).astype(float) for _ in range(3))
    target = s == TARGET
    return x, u, s, np.where(target, -1, arm), np.where(target, np.nan, y)


def _bits(values: np.ndarray) -> bytes:
    return np.ascontiguousarray(values, dtype=float).tobytes()


@given(sample_columns())
@settings(max_examples=60, deadline=None)
def test_columnar_sample_properties(columns):
    x, u, s, a, y = columns
    sample = CompositeSample(x, u, s, a, y)
    assert len(sample) == x.shape[0]

    # target rows and the two trial arms split the trial + target rows exactly
    assert _bits(sample.target_x()) == _bits(x[s == TARGET])
    split = sample.target_x().shape[0]
    for arm in (0, 1):
        xa, ya = sample.trial_arm_arrays(arm)
        rows = (s == TRIAL) & (a == arm)
        assert _bits(xa) == _bits(x[rows]) and _bits(ya) == _bits(y[rows])
        split += xa.shape[0]
    assert split == np.count_nonzero(sample.s == TRIAL) + np.count_nonzero(sample.s == TARGET)

    with tempfile.TemporaryDirectory() as tmp:
        for include_hidden in (True, False):
            path = Path(tmp) / "sample.csv"
            write_sample_csv(sample, path, include_hidden=include_hidden)
            back = read_sample_csv(path)
            assert _bits(back.x_array()) == _bits(x)
            assert np.array_equal(back.s_array(), s) and np.array_equal(back.a_array(), a)
            assert _bits(back.y_array()) == _bits(y)
            if include_hidden:
                assert _bits(back.u) == _bits(u)
            else:
                assert np.isnan(back.u).all()


@given(sample_columns(), st.data())
@settings(max_examples=60, deadline=None)
def test_columnar_sample_rejects_invalid_columns(columns, data):
    x, u, s, a, y = columns
    n = x.shape[0]
    with pytest.raises(ValueError):  # unequal column lengths
        CompositeSample(x, u, s, a, np.append(y, 0.0))
    if n == 0:
        return
    with pytest.raises(ValueError):  # labels are integers
        CompositeSample(x, u, s.astype(float), a, y)
    i = data.draw(st.integers(0, n - 1))
    bad_x = x.copy()
    bad_x[i] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    with pytest.raises(ValueError, match="column x must be finite"):
        CompositeSample(bad_x, u, s, a, y)
    bad_label = s.copy()
    bad_label[i] = data.draw(st.sampled_from([-1, 3, 7]))
    with pytest.raises(ValueError):
        CompositeSample(x, u, bad_label, a, y)
    if s[i] == TARGET:
        # a target row carrying a treatment, an outcome, or both
        for bad_a, bad_y in ((1, np.nan), (-1, 0.5), (0, 0.5)):
            a2, y2 = a.copy(), y.copy()
            a2[i], y2[i] = bad_a, bad_y
            with pytest.raises(ValueError):
                CompositeSample(x, u, s, a2, y2)
    else:
        # a trial or observational row missing its treatment, its outcome, or both
        for bad_a, bad_y in ((-1, y[i]), (a[i], np.nan), (-1, np.nan)):
            a2, y2 = a.copy(), y.copy()
            a2[i], y2[i] = bad_a, bad_y
            with pytest.raises(ValueError):
                CompositeSample(x, u, s, a2, y2)
        # a treatment outside {0, 1}, or an infinite outcome
        for bad_a, bad_y, column in ((2, y[i], "a"), (-2, y[i], "a"), (a[i], np.inf, "y"), (a[i], -np.inf, "y")):
            a2, y2 = a.copy(), y.copy()
            a2[i], y2[i] = bad_a, bad_y
            with pytest.raises(ValueError, match=f"column {column} must be"):
                CompositeSample(x, u, s, a2, y2)


# floats whose text form is easy to get wrong: signed zeros, subnormals and the largest double
_EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1.5e-308, 1.7976931348623157e308])


@given(sample_columns(st.one_of(_finite, _EDGE_FLOATS)), st.booleans())
@settings(max_examples=100, deadline=None)
def test_sample_csv_round_trip_keeps_every_bit(columns, include_hidden):
    x, u, s, a, y = columns
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sample.csv"
        write_sample_csv(CompositeSample(x, u, s, a, y), path, include_hidden=include_hidden)
        back = read_sample_csv(path)
    want = (x, u if include_hidden else np.full(x.shape[0], np.nan), s, a, y)
    for name, column in zip("xusay", want):
        got = getattr(back, name)
        assert got.dtype == column.dtype and got.tobytes() == column.tobytes(), name


def test_concat_keeps_row_order():
    trial = CompositeSample.cohort(TRIAL, [0.1, 0.2], [0.0, 0.0], [1, 0], [1.0, 2.0])
    target = CompositeSample.cohort(TARGET, [0.3], [0.5])
    both = CompositeSample.concat(trial, target)
    assert both.x_array().tolist() == [0.1, 0.2, 0.3]
    assert both.s_array().tolist() == [TRIAL, TRIAL, TARGET]
    assert both.a_array().tolist() == [1, 0, -1]
    assert (np.count_nonzero(both.s == TRIAL), np.count_nonzero(both.s == TARGET), len(both)) == (2, 1, 3)


@settings(max_examples=40, deadline=None)
@given(sizes=st.lists(st.tuples(st.sampled_from([TARGET, TRIAL, OS]), st.integers(0, 6)), min_size=1, max_size=4),
       seed=st.integers(0, 2**32 - 1))
def test_concat_of_checked_parts_equals_the_checked_construction(sizes, seed):
    rng = np.random.default_rng(seed)
    parts = []
    for s, n in sizes:
        x, u = rng.uniform(-1, 1, n), rng.uniform(-1, 1, n)
        if s == TARGET:
            parts.append(CompositeSample.cohort(s, x, u))
        else:
            parts.append(CompositeSample.cohort(s, x, u, rng.integers(0, 2, n), rng.normal(0, 1, n)))
    stacked = CompositeSample.concat(*parts)
    checked = CompositeSample(*(np.concatenate([getattr(p, c) for p in parts]) for c in "xusay"))
    assert stacked == checked
    for c in "xusay":
        assert getattr(stacked, c).dtype == getattr(checked, c).dtype
    assert [a.tolist() for a in stacked.trial_arm_arrays(1)] == [a.tolist() for a in checked.trial_arm_arrays(1)]


def test_observation_invariants():
    with pytest.raises(ValueError):
        CompositeSample.from_records([(0.0, 0.0, TARGET, 1, 1.0)])  # target records carry no a/y
    with pytest.raises(ValueError):
        CompositeSample.from_records([(0.0, 0.0, TRIAL, -1, math.nan)])  # trial records need both
    with pytest.raises(ValueError):
        CompositeSample.from_records([(0.0, 0.0, TRIAL, 1, math.nan)])  # a and y travel together
    for label, arm in ((1.5, 1), (TRIAL, 0.5)):  # labels and treatments are integers, not truncated to one
        with pytest.raises(ValueError, match="must hold integers"):
            CompositeSample.from_records([(0.1, 0.0, label, arm, 2.0)])


def test_csv_round_trip_with_hidden(tmp_path):
    sample = make_sample()
    path = tmp_path / "sample.csv"
    write_sample_csv(sample, path, include_hidden=True)
    back = read_sample_csv(path)
    assert back == sample


def test_csv_hides_u_by_default(tmp_path):
    sample = make_sample()
    path = tmp_path / "sample.csv"
    write_sample_csv(sample, path)
    back = read_sample_csv(path)
    assert all(math.isnan(u) for u in back.u)
    assert back.x_array().tolist() == sample.x_array().tolist()
    for column in ("s_array", "a_array", "y_array"):
        assert np.array_equal(getattr(back, column)(), getattr(sample, column)(), equal_nan=True)


def test_csv_text_unchanged(tmp_path):
    path = tmp_path / "sample.csv"
    write_sample_csv(make_sample(), path, include_hidden=True)
    assert path.read_text().splitlines() == [
        "x,u,s,a,y",
        "0.1,0.2,1,1,1.5",
        "-0.5,0.0,0,,",
        "0.9,-0.3,1,0,-0.2",
    ]


MALFORMED_CSV = [
    ("", "empty file"),
    ("x,u,s,a,y\n0.1,0.2,1,1,1.5\n0.3,0.4\n", "line 3: expected 5 cells, got 2"),
    ("x,u,s,a,y\n0.1,0.2,1,1,1.5,9\n", "line 2: expected 5 cells, got 6"),
    ("x,u,s,a,y\n0.1,0.2,1,2,1.5\n", "column a must be 0 or 1"),
    ("x,u,s,a,y\nnan,0.2,0,,\n", "column x must be finite"),
    ("x,u,s,a,y\n0.1,0.2,2,1,inf\n", "column y must be finite"),
]


@pytest.mark.parametrize("text, message", MALFORMED_CSV,
                         ids=["empty", "short-row", "long-row", "treatment-2", "nan-x", "infinite-y"])
def test_read_sample_csv_names_a_malformed_file(tmp_path, text, message):
    path = tmp_path / "sample.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(f"{path}") + ".*" + re.escape(message)):
        read_sample_csv(path)


def test_read_sample_csv_header_only_is_an_empty_sample(tmp_path):
    path = tmp_path / "sample.csv"
    path.write_text("x,u,s,a,y\n")
    sample = read_sample_csv(path)
    assert len(sample) == 0 and np.count_nonzero(sample.s == TRIAL) == np.count_nonzero(sample.s == TARGET) == 0


def test_os_records_not_counted():
    records = [
        (0.1, 0.2, TRIAL, 1, 1.0),
        (0.0, 0.0, TARGET, -1, math.nan),
        (0.5, 0.5, OS, 1, 2.0),
    ]
    sample = CompositeSample.from_records(records)
    assert (np.count_nonzero(sample.s == TRIAL), np.count_nonzero(sample.s == TARGET)) == (1, 1)
    assert [v.tolist() for v in sample.trial_arm_arrays(1)] == [[0.1], [1.0]]  # the OS row is in no trial arm


def test_kernel_params_validation():
    assert KernelParams(1.0, 0.0, 0.5, None).l_u is None
    with pytest.raises(ValueError):
        KernelParams(-1.0, 0.0, 0.5, 0.5)
    with pytest.raises(ValueError):
        KernelParams(1.0, 0.0, 0.0, 0.5)


@pytest.mark.parametrize("fields", [
    (math.nan, 0.0, 1.0, None), (1.0, math.inf, 1.0, None), (1.0, 0.0, math.nan, None),
    (1.0, 0.0, math.inf, None), (1.0, 0.0, 1.0, math.nan), (1.0, 0.0, 1.0, math.inf),
], ids=["nan-alpha_x", "inf-alpha_u", "nan-l_x", "inf-l_x", "nan-l_u", "inf-l_u"])
def test_kernel_params_reject_non_finite_values(fields):
    with pytest.raises(ValueError, match="finite"):
        KernelParams(*fields)


def test_derive_seed_stable():
    assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)
    assert derive_seed(1, "a", 2) != derive_seed(1, "a", 3)
    assert derive_seed(1, "ab") != derive_seed(1, "a", "b")


def test_derive_seed_pinned():
    # values the seeding has always produced; a change here reseeds every run
    assert derive_seed(7, "trial", 5) == 4752901248173105424
    assert derive_seed(7, "table2-trial", 1, 0, 3) == 9125784749034253097


def test_derive_seed_canonicalises_numpy_scalars():
    assert derive_seed(7, "trial", np.int64(5)) == derive_seed(7, "trial", 5)
    assert derive_seed(np.float64(0.5), np.bool_(True)) == derive_seed(0.5, True)
    assert derive_seed(np.str_("a")) == derive_seed("a")


def test_check_names_rejects_none_unknown_and_repeated_names():
    valid = ("a", "b", "c")
    assert check_names("letters", ["c", "a"], valid) == ("c", "a")
    for names, message in [([], "no letters selected"), (["a", "z"], "unknown letters ['z']; valid: a, b, c"),
                           (["b", "a", "b", "a"], "letters named more than once: ['a', 'b']")]:
        with pytest.raises(ValueError, match=re.escape(message)):
            check_names("letters", names, valid)


def test_derive_seed_rejects_other_types():
    for part in (None, (1, 2), [1], np.array([5]), 1j):
        with pytest.raises(TypeError):
            derive_seed(7, part)
