"""Agreement statistics against slow, loop-level oracles."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stridelab import (
    DegenerateVariance,
    DuplicateMeasurement,
    LengthMismatch,
    MeasurementTable,
    TooFewPairs,
    bland_altman,
    bootstrap_mean_diff_ci,
    classify_icc,
    compare_methods,
    icc,
    percentage_error,
)
from stridelab.stats import _BOOTSTRAP_BLOCK

# Frozen from d = a - b = (0.1, -0.1, 0.3, -0.3):
# sd   = sqrt((0.01 + 0.01 + 0.09 + 0.09) / 3) = sqrt(0.2 / 3)
# loa  = 0 +/- 1.96 * sd
_SD_4 = math.sqrt(0.2 / 3.0)          # 0.2581988897471611
_LOA_4 = 1.96 * _SD_4                 # 0.5060698239044358


def _table(values, subjects=None):
    v = np.asarray(values, dtype=float)
    rows = tuple(f"w{i}" for i in range(v.shape[0]))
    subjects = subjects or rows
    cols = tuple(f"m{j}" for j in range(v.shape[1]))
    return MeasurementTable(
        values=v, parameter="p", unit="u", rows=rows,
        subjects=tuple(subjects), columns=cols,
    )


def _icc_oracle(values, form):
    """Shrout-Fleiss ICC from explicit Python loops, no numpy reductions."""
    n = len(values)
    k = len(values[0])
    grand = sum(values[i][j] for i in range(n) for j in range(k)) / (n * k)
    row = [sum(values[i][j] for j in range(k)) / k for i in range(n)]
    col = [sum(values[i][j] for i in range(n)) / n for j in range(k)]
    bms = k * sum((r - grand) ** 2 for r in row) / (n - 1)
    jms = n * sum((c - grand) ** 2 for c in col) / (k - 1)
    ems = sum(
        (values[i][j] - row[i] - col[j] + grand) ** 2
        for i in range(n)
        for j in range(k)
    ) / ((n - 1) * (k - 1))
    if form == (2, 1):
        return (bms - ems) / (bms + (k - 1) * ems + k * (jms - ems) / n)
    if form == (2, "k"):
        return (bms - ems) / (bms + (jms - ems) / n)
    if form == (3, 1):
        return (bms - ems) / (bms + (k - 1) * ems)
    raise AssertionError(form)


@pytest.mark.parametrize("form", [(2, 1), (2, "k"), (3, 1)])
def test_icc_matches_loop_oracle(form):
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(3, 30))
        k = int(rng.integers(2, 6))
        subject = rng.normal(0.0, 2.0, size=(n, 1))
        rater = rng.normal(0.0, 0.5, size=(1, k))
        v = 10.0 + subject + rater + rng.normal(0.0, 0.3, size=(n, k))
        t = _table(v)
        expected = _icc_oracle(v.tolist(), form)
        assert icc(t, form) == pytest.approx(expected, abs=1e-9)


def test_icc_perfect_agreement_is_one():
    v = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [5.0, 5.0]])
    for form in [(2, 1), (2, "k"), (3, 1)]:
        assert icc(_table(v), form) == pytest.approx(1.0, abs=1e-12)


def test_icc_independent_columns_is_near_zero():
    rng = np.random.default_rng(123)
    v = rng.normal(0.0, 1.0, size=(1000, 2))
    for form in [(2, 1), (2, "k"), (3, 1)]:
        assert abs(icc(_table(v), form)) < 0.1


def test_icc_constant_table_is_degenerate():
    v = np.full((5, 3), 2.5)
    with pytest.raises(DegenerateVariance):
        icc(_table(v))


def test_icc_rejects_unknown_form():
    with pytest.raises(ValueError):
        icc(_table(np.eye(3) + 1.0), (1, 1))


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_icc_invariant_under_shift_scale_and_row_order(seed):
    rng = np.random.default_rng(seed)
    n, k = 8, 3
    v = rng.normal(0.0, 1.0, (n, 1)) + rng.normal(0.0, 0.2, (n, k))
    base = {form: icc(_table(v), form) for form in [(2, 1), (2, "k"), (3, 1)]}
    shifted = v + 37.5
    scaled = v * 4.0
    permuted = v[rng.permutation(n)]
    for form, ref in base.items():
        assert icc(_table(shifted), form) == pytest.approx(ref, abs=1e-8)
        assert icc(_table(scaled), form) == pytest.approx(ref, abs=1e-8)
        assert icc(_table(permuted), form) == pytest.approx(ref, abs=1e-8)


def test_classify_icc_bands():
    assert classify_icc(-0.2) == "poor"
    assert classify_icc(0.0) == "poor"
    assert classify_icc(0.49) == "poor"
    assert classify_icc(0.5) == "moderate"
    assert classify_icc(0.74) == "moderate"
    assert classify_icc(0.75) == "good"
    assert classify_icc(0.89) == "good"
    assert classify_icc(0.90) == "excellent"
    assert classify_icc(1.0) == "excellent"
    with pytest.raises(ValueError):
        classify_icc(1.2)
    with pytest.raises(ValueError):
        classify_icc(-1.5)


def test_bland_altman_frozen_example():
    b = np.array([10.0, 10.2, 10.4, 10.6])
    a = b + np.array([0.1, -0.1, 0.3, -0.3])
    ba = bland_altman(a, b)
    assert ba.bias == pytest.approx(0.0, abs=1e-12)
    assert ba.sd == pytest.approx(_SD_4, abs=1e-9)
    assert ba.loa_lower == pytest.approx(-_LOA_4, abs=1e-9)
    assert ba.loa_upper == pytest.approx(_LOA_4, abs=1e-9)
    assert ba.n == 4
    assert ba.reference_mean == pytest.approx(float(a.mean()))


def test_bland_altman_antisymmetric():
    rng = np.random.default_rng(11)
    a = rng.normal(1.3, 0.2, 25)
    b = a + rng.normal(0.05, 0.03, 25)
    ab = bland_altman(a, b)
    ba = bland_altman(b, a)
    assert ab.bias == pytest.approx(-ba.bias, abs=1e-12)
    assert ab.sd == pytest.approx(ba.sd, abs=1e-12)
    assert ab.loa_lower == pytest.approx(-ba.loa_upper, abs=1e-12)
    assert ab.loa_upper == pytest.approx(-ba.loa_lower, abs=1e-12)


def test_bland_altman_percent_fields():
    a = np.array([2.0, 2.2, 1.8, 2.0])
    b = np.array([1.9, 2.1, 1.7, 1.9])
    ba = bland_altman(a, b)
    assert ba.bias_pct == pytest.approx(100.0 * ba.bias / a.mean())
    assert ba.loa_upper_pct == pytest.approx(100.0 * ba.loa_upper / a.mean())


def test_bland_altman_input_checks():
    with pytest.raises(LengthMismatch):
        bland_altman([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(TooFewPairs):
        bland_altman([1.0], [1.0])


def test_bootstrap_is_deterministic():
    rng = np.random.default_rng(0)
    d = rng.normal(0.1, 0.3, 40)
    c1 = bootstrap_mean_diff_ci(d, resamples=2000, seed=42)
    c2 = bootstrap_mean_diff_ci(d, resamples=2000, seed=42)
    assert (c1.ci_lower, c1.ci_upper) == (c2.ci_lower, c2.ci_upper)
    c3 = bootstrap_mean_diff_ci(d, resamples=2000, seed=43)
    assert (c1.ci_lower, c1.ci_upper) != (c3.ci_lower, c3.ci_upper)


def test_bootstrap_constant_series_collapses():
    ci = bootstrap_mean_diff_ci([0.25] * 10, resamples=1000)
    assert ci.ci_lower == ci.ci_upper == ci.mean == 0.25


def test_bootstrap_width_tracks_standard_error():
    rng = np.random.default_rng(5)
    d = rng.normal(0.0, 1.0, 400)
    ci = bootstrap_mean_diff_ci(d, resamples=4000, seed=1)
    nominal = 2 * 1.96 * d.std(ddof=1) / math.sqrt(d.size)
    assert ci.ci_upper - ci.ci_lower == pytest.approx(nominal, rel=0.15)
    assert ci.ci_lower <= d.mean() <= ci.ci_upper


def _one_shot_ci(d, resamples, level, seed):
    """The bootstrap CI with every resample's indices drawn in one array:
    the plain statement of what bootstrap_mean_diff_ci computes."""
    dv = np.asarray(d, dtype=float)
    rng = np.random.default_rng(seed)
    means = dv[rng.integers(0, dv.size, size=(resamples, dv.size))].mean(axis=1)
    alpha = 100.0 * (1.0 - level) / 2.0
    lo, hi = np.percentile(means, [alpha, 100.0 - alpha])
    return float(lo), float(hi)


@pytest.mark.parametrize("resamples", [
    1000, _BOOTSTRAP_BLOCK, 2 * _BOOTSTRAP_BLOCK, 2 * _BOOTSTRAP_BLOCK + 1, 12_345,
])
@pytest.mark.parametrize("n", [2, 5, 12, 120])
def test_blocked_bootstrap_equals_one_shot_draw(n, resamples):
    """Drawing the resamples in blocks continues one random stream, so the
    CI is bit-identical to one draw of every index, for resample counts that
    are and are not a multiple of the block."""
    rng = np.random.default_rng(n * 7919 + resamples)
    d = rng.normal(0.05, 0.4, n)
    ci = bootstrap_mean_diff_ci(d, resamples=resamples, level=0.9, seed=n)
    assert (ci.ci_lower, ci.ci_upper) == _one_shot_ci(d, resamples, 0.9, n)


def test_bootstrap_memory_does_not_hold_every_index():
    """At 200 000 resamples of 12 values the one-shot draw held 19.2 MB of
    indices and as much again of resampled values (41 MB traced).  The
    blocked draw keeps the resample means (1.6 MB), percentile's copy of
    them and one block's indices and values (0.8 MB): 5.5 MB traced."""
    d = np.linspace(-0.5, 0.5, 12)
    bootstrap_mean_diff_ci(d, resamples=1000)
    tracemalloc.start()
    try:
        bootstrap_mean_diff_ci(d, resamples=200_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10e6


def test_bootstrap_input_checks():
    with pytest.raises(ValueError):
        bootstrap_mean_diff_ci([1.0, 2.0, 3.0], resamples=999)
    with pytest.raises(ValueError):
        bootstrap_mean_diff_ci([1.0, 2.0], level=1.0)
    with pytest.raises(TooFewPairs):
        bootstrap_mean_diff_ci([1.0])


def test_percentage_error_formula():
    rng = np.random.default_rng(2)
    a = rng.normal(1.3, 0.1, 30)
    b = a + rng.normal(0.0, 0.05, 30)
    expected = 100.0 * 1.96 * (a - b).std(ddof=1) / a.mean()
    assert percentage_error(a, b) == pytest.approx(expected, abs=1e-12)
    with pytest.raises(LengthMismatch):
        percentage_error([1.0, 2.0], [1.0])


def test_from_records_drops_incomplete_walks():
    records = [
        ("w1", "s1", "truth", 1.20), ("w1", "s1", "video", 1.22),
        ("w2", "s2", "truth", 1.30), ("w2", "s2", "video", 1.28),
        ("w3", "s3", "truth", 1.10),  # video row missing
    ]
    t = MeasurementTable.from_records(records, parameter="speed", unit="m/s")
    assert t.n == 2
    assert t.n_excluded == 1
    assert t.columns == ("truth", "video")
    assert t.subjects == ("s1", "s2")


def test_from_records_too_few_pairs():
    records = [("w1", "s1", "truth", 1.2), ("w1", "s1", "video", 1.2)]
    with pytest.raises(TooFewPairs):
        MeasurementTable.from_records(records, parameter="speed")


def test_from_records_refuses_a_walk_measured_twice_by_one_method():
    """A second value for one walk and method is an error naming both, not
    a silent replacement of the first."""
    records = [
        ("w1", "s1", "truth", 1.0), ("w1", "s1", "video", 1.1),
        ("w2", "s2", "truth", 2.0), ("w2", "s2", "video", 2.1),
        ("w1", "s1", "video", 9.0),
    ]
    with pytest.raises(DuplicateMeasurement, match="^walk 'w1' has two 'video' values"):
        MeasurementTable.from_records(records, parameter="speed")


def test_table_shape_validation():
    with pytest.raises(ValueError):
        _table(np.ones((1, 2)))
    with pytest.raises(ValueError):
        _table([[1.0, np.nan], [2.0, 3.0]])


def test_compare_methods_identical_columns():
    v = np.array([[1.1, 1.1], [1.3, 1.3], [1.0, 1.0], [1.4, 1.4]])
    agr = compare_methods(_table(v), resamples=1000)
    assert agr.icc_2k == pytest.approx(1.0, abs=1e-12)
    assert agr.bias == 0.0
    assert agr.loa == (0.0, 0.0)
    assert agr.bias_ci == (0.0, 0.0)
    assert agr.percentage_error == 0.0
    assert agr.classification == "excellent"


def test_compare_methods_fields_are_consistent():
    rng = np.random.default_rng(9)
    truth = rng.normal(1.3, 0.2, 20)
    video = truth + rng.normal(0.02, 0.04, 20)
    v = np.column_stack([truth, video])
    t = _table(v)
    agr = compare_methods(t, resamples=2000, seed=3)
    ba = bland_altman(truth, video)
    assert agr.n == 20
    assert agr.bias == pytest.approx(ba.bias)
    assert agr.sd_diff == pytest.approx(ba.sd)
    assert agr.loa == pytest.approx((ba.loa_lower, ba.loa_upper))
    assert agr.icc_2k == pytest.approx(icc(t, (2, "k")))
    assert agr.icc_21 == pytest.approx(icc(t, (2, 1)))
    assert agr.icc_31 == pytest.approx(icc(t, (3, 1)))
    assert agr.bias_ci[0] <= agr.bias <= agr.bias_ci[1]
    assert agr.classification == classify_icc(agr.icc_2k)
    assert agr.percentage_error == pytest.approx(percentage_error(truth, video))


def test_compare_methods_carries_its_table():
    """The agreement names the walks it paired, their values and the walks
    left out, which is everything the agreement JSON stores of the table."""
    records = [
        ("w1", "s1", "truth", 1.20), ("w1", "s1", "video", 1.22),
        ("w2", "s2", "truth", 1.30), ("w2", "s2", "video", 1.27),
        ("w3", "s3", "truth", 1.10),  # video row missing
        ("w4", "s4", "truth", 1.40), ("w4", "s4", "video", 1.43),
    ]
    t = MeasurementTable.from_records(records, parameter="speed", unit="m/s")
    agr = compare_methods(t, resamples=1000)
    assert (agr.n, agr.n_excluded) == (3, 1)
    assert agr.walks == ("w1", "w2", "w4")
    assert agr.pairs == ((1.20, 1.22), (1.30, 1.27), (1.40, 1.43))


def test_compare_methods_requires_two_columns():
    rng = np.random.default_rng(1)
    v = rng.normal(0.0, 1.0, (5, 3))
    with pytest.raises(ValueError):
        compare_methods(_table(v))
