"""Agreement and repeatability statistics for method-comparison studies.

Everything here operates on a MeasurementTable: a complete rows-by-columns
matrix where rows are walks (or subjects) and columns are methods (or
repeated trials).  Incomplete rows never enter a table; they are dropped at
construction from records and counted.

The intraclass correlations follow the Shrout-Fleiss two-way ANOVA forms.
With BMS the between-row mean square, JMS the between-column mean square and
EMS the residual mean square of the two-way decomposition:

    ICC(2,1) = (BMS - EMS) / (BMS + (k-1) EMS + k (JMS - EMS) / n)
    ICC(2,k) = (BMS - EMS) / (BMS + (JMS - EMS) / n)
    ICC(3,1) = (BMS - EMS) / (BMS + (k-1) EMS)

Bland-Altman limits of agreement use the sample SD (ddof=1) of the pairwise
differences, and the bootstrap confidence interval is the plain percentile
form: deterministic for a given seed, nested across confidence levels by
construction.
"""

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .errors import DegenerateVariance, DuplicateMeasurement, LengthMismatch, TooFewPairs

ICC_FORMS = ((2, 1), (2, "k"), (3, 1))


@dataclass(frozen=True, eq=False)
class MeasurementTable:
    """Complete matrix of one gait parameter: rows x columns, no gaps."""

    values: np.ndarray              # (n_rows, n_cols)
    parameter: str
    unit: str
    rows: tuple[str, ...]           # walk or subject label per row
    subjects: tuple[str, ...]       # subject label per row
    columns: tuple[str, ...]        # method or trial label per column
    n_excluded: int = 0             # incomplete rows dropped before construction

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.ndim != 2 or v.shape[0] < 2 or v.shape[1] < 2:
            raise ValueError(f"table must be at least 2x2, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("table contains non-finite cells")
        if len(self.rows) != v.shape[0] or len(self.subjects) != v.shape[0]:
            raise ValueError("row labels must match the number of rows")
        if len(self.columns) != v.shape[1]:
            raise ValueError("column labels must match the number of columns")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def k(self) -> int:
        return self.values.shape[1]

    @classmethod
    def from_records(
        cls,
        records: Iterable[tuple[str, str, str, float]],
        parameter: str,
        unit: str = "",
        columns: Optional[Sequence[str]] = None,
    ) -> "MeasurementTable":
        """Build from (walk_id, subject_id, method, value) records.

        Walks missing any method are excluded and counted in n_excluded,
        mirroring how incompletely measured walks leave a comparison study.
        A walk measured twice by one method raises DuplicateMeasurement.
        """
        by_walk: dict[str, dict[str, float]] = {}
        subj: dict[str, str] = {}
        seen_methods: list[str] = []
        for walk_id, subject_id, method, value in records:
            measured = by_walk.setdefault(walk_id, {})
            if method in measured:
                raise DuplicateMeasurement(
                    f"walk {walk_id!r} has two {method!r} values for {parameter!r}")
            measured[method] = float(value)
            subj[walk_id] = subject_id
            if method not in seen_methods:
                seen_methods.append(method)
        cols = tuple(columns) if columns is not None else tuple(seen_methods)
        complete = [w for w in by_walk if all(m in by_walk[w] for m in cols)]
        dropped = len(by_walk) - len(complete)
        if len(complete) < 2:
            raise TooFewPairs(
                f"only {len(complete)} complete walks for {parameter!r}"
            )
        values = np.array([[by_walk[w][m] for m in cols] for w in complete])
        return cls(
            values=values,
            parameter=parameter,
            unit=unit,
            rows=tuple(complete),
            subjects=tuple(subj[w] for w in complete),
            columns=cols,
            n_excluded=dropped,
        )


def _mean_squares(values: np.ndarray) -> tuple[float, float, float]:
    n, k = values.shape
    grand = values.mean()
    row_means = values.mean(axis=1)
    col_means = values.mean(axis=0)
    bms = k * float(np.sum((row_means - grand) ** 2)) / (n - 1)
    jms = n * float(np.sum((col_means - grand) ** 2)) / (k - 1)
    resid = values - row_means[:, None] - col_means[None, :] + grand
    ems = float(np.sum(resid**2)) / ((n - 1) * (k - 1))
    return bms, jms, ems


IccForm = Union[tuple[int, int], tuple[int, str]]


def icc(table: MeasurementTable, form: IccForm = (2, "k")) -> float:
    """Intraclass correlation of a complete table, Shrout-Fleiss forms."""
    if form not in ICC_FORMS:
        raise ValueError(f"form must be one of {ICC_FORMS}, got {form!r}")
    n, k = table.n, table.k
    bms, jms, ems = _mean_squares(table.values)
    scale = max(1.0, float(np.abs(table.values).max()) ** 2)
    if bms <= 1e-12 * scale and ems <= 1e-12 * scale:
        raise DegenerateVariance(
            "all cells are (numerically) identical; ICC is undefined"
        )
    if form == (2, 1):
        return (bms - ems) / (bms + (k - 1) * ems + k * (jms - ems) / n)
    if form == (2, "k"):
        return (bms - ems) / (bms + (jms - ems) / n)
    return (bms - ems) / (bms + (k - 1) * ems)


def classify_icc(value: float) -> str:
    """Band an ICC: poor / moderate / good / excellent.

    Boundaries belong to the upper band (0.90 is excellent); negative values
    are poor.
    """
    if not -1.0 <= value <= 1.0 + 1e-12:
        raise ValueError(f"ICC must lie in [-1, 1], got {value}")
    if value < 0.5:
        return "poor"
    if value < 0.75:
        return "moderate"
    if value < 0.90:
        return "good"
    return "excellent"


@dataclass(frozen=True)
class BlandAltman:
    bias: float
    sd: float
    loa_lower: float
    loa_upper: float
    reference_mean: float
    n: int
    bias_pct: float       # bias as % of the reference-series mean
    loa_lower_pct: float
    loa_upper_pct: float

    def __post_init__(self) -> None:
        if not self.loa_lower <= self.bias <= self.loa_upper:
            raise ValueError("limits of agreement must bracket the bias")


def _paired(a: Sequence[float], b: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Two paired series as equal-length 1D arrays of at least 2 values."""
    av = np.asarray(a, dtype=float)
    bv = np.asarray(b, dtype=float)
    if av.shape != bv.shape or av.ndim != 1:
        raise LengthMismatch(
            f"paired series must be equal-length 1D, got {av.shape} and {bv.shape}"
        )
    if av.size < 2:
        raise TooFewPairs(f"need at least 2 pairs, got {av.size}")
    return av, bv


def _percent_of(ref: float):
    """x -> x in percent of ref; NaN when ref is (numerically) zero."""
    return (lambda x: 100.0 * x / ref) if abs(ref) > 1e-12 else (lambda x: math.nan)


def bland_altman(a: Sequence[float], b: Sequence[float]) -> BlandAltman:
    """Bland-Altman agreement between paired series (differences a - b).

    Percentage fields are relative to the mean of the reference series `a`.
    """
    av, bv = _paired(a, b)
    d = av - bv
    bias = float(d.mean())
    sd = float(d.std(ddof=1))
    ref = float(av.mean())
    pct = _percent_of(ref)
    return BlandAltman(
        bias=bias,
        sd=sd,
        loa_lower=bias - 1.96 * sd,
        loa_upper=bias + 1.96 * sd,
        reference_mean=ref,
        n=int(av.size),
        bias_pct=pct(bias),
        loa_lower_pct=pct(bias - 1.96 * sd),
        loa_upper_pct=pct(bias + 1.96 * sd),
    )


@dataclass(frozen=True)
class BootstrapCI:
    mean: float
    ci_lower: float
    ci_upper: float
    level: float
    resamples: int
    seed: int

    def __post_init__(self) -> None:
        if not self.ci_lower <= self.mean <= self.ci_upper:
            raise ValueError("bootstrap CI must bracket the sample mean")


def bootstrap_mean_diff_ci(
    d: Sequence[float],
    resamples: int = 10_000,
    level: float = 0.95,
    seed: int = 0,
) -> BootstrapCI:
    """Percentile bootstrap CI for the mean of `d`, deterministic per seed."""
    dv = np.asarray(d, dtype=float)
    if dv.ndim != 1 or dv.size < 2:
        raise TooFewPairs(f"need at least 2 values, got {dv.size}")
    if resamples < 1000:
        raise ValueError(f"resamples must be at least 1000, got {resamples}")
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, dv.size, size=(resamples, dv.size))
    means = dv[idx].mean(axis=1)
    alpha = 100.0 * (1.0 - level) / 2.0
    lo, hi = np.percentile(means, [alpha, 100.0 - alpha])
    return BootstrapCI(
        mean=float(dv.mean()),
        ci_lower=float(lo),
        ci_upper=float(hi),
        level=level,
        resamples=resamples,
        seed=seed,
    )


def percentage_error(a: Sequence[float], b: Sequence[float]) -> float:
    """Critchley-style percentage error: 100 * 1.96 * SD(a-b) / mean(a)."""
    av, bv = _paired(a, b)
    ref = float(av.mean())
    if abs(ref) <= 1e-12:
        return math.nan
    return 100.0 * 1.96 * float((av - bv).std(ddof=1)) / ref


@dataclass(frozen=True)
class ParameterAgreement:
    """Between-methods agreement for one gait parameter."""

    parameter: str
    unit: str
    n: int
    n_excluded: int          # incomplete walks left out of the table
    mean_ref: float
    sd_ref: float
    mean_other: float
    sd_other: float
    icc_2k: float
    icc_21: float
    icc_31: float
    bias: float
    bias_ci: tuple[float, float]
    bias_pct: float
    bias_ci_pct: tuple[float, float]
    loa: tuple[float, float]
    loa_pct: tuple[float, float]
    sd_diff: float
    percentage_error: float
    classification: str      # band of ICC(2,k)
    walks: tuple[str, ...]   # row labels of the table
    pairs: tuple[tuple[float, float], ...]  # (reference, other) per walk

    def __post_init__(self) -> None:
        if not self.loa[0] <= self.bias <= self.loa[1]:
            raise ValueError("limits of agreement must bracket the bias")
        if not self.bias_ci[0] <= self.bias <= self.bias_ci[1]:
            raise ValueError("bootstrap CI must bracket the bias")


def compare_methods(
    table: MeasurementTable,
    resamples: int = 10_000,
    level: float = 0.95,
    seed: int = 0,
) -> ParameterAgreement:
    """Full two-method agreement for one parameter.

    The table must have exactly two columns, reference method first.
    """
    if table.k != 2:
        raise ValueError(f"expected exactly 2 methods, table has {table.k}")
    a = table.values[:, 0]
    b = table.values[:, 1]
    ba = bland_altman(a, b)
    ci = bootstrap_mean_diff_ci(a - b, resamples=resamples, level=level, seed=seed)
    pct = _percent_of(ba.reference_mean)
    icc_2k = icc(table, (2, "k"))
    return ParameterAgreement(
        parameter=table.parameter,
        unit=table.unit,
        n=table.n,
        n_excluded=table.n_excluded,
        mean_ref=float(a.mean()),
        sd_ref=float(a.std(ddof=1)),
        mean_other=float(b.mean()),
        sd_other=float(b.std(ddof=1)),
        icc_2k=icc_2k,
        icc_21=icc(table, (2, 1)),
        icc_31=icc(table, (3, 1)),
        bias=ba.bias,
        bias_ci=(ci.ci_lower, ci.ci_upper),
        bias_pct=ba.bias_pct,
        bias_ci_pct=(pct(ci.ci_lower), pct(ci.ci_upper)),
        loa=(ba.loa_lower, ba.loa_upper),
        loa_pct=(ba.loa_lower_pct, ba.loa_upper_pct),
        sd_diff=ba.sd,
        percentage_error=percentage_error(a, b),
        classification=classify_icc(icc_2k),
        walks=table.rows,
        pairs=tuple(map(tuple, table.values.tolist())),
    )
