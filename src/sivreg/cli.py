"""Command-line front end: CSV in, JSON reports out.

Subcommands
-----------
estimate   point estimate plus inference report for one estimator and spec
robust-ci  identification-robust confidence set with exact endpoints
simulate   run the bias and size experiment grids from a JSON config
audit      group-size audit and design summary for a dataset

Reports carry a ``schema_version`` field and no timestamps, so identical
inputs and flags produce byte-identical output.  Exit codes: 0 success,
2 validation error, 3 numerical failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import enum
import hashlib
import json
import re
import sys
import warnings
from dataclasses import dataclass, fields as dataclass_fields, replace
from functools import cache
from pathlib import Path

import numpy as np

from .blockops import _cell_means, apply_M_W, apply_P
from .design import (
    DesignError,
    GroupAudit,
    Sample,
    SaturatedDesign,
    _code,
    _Coded,
    _coder,
    _design_from_columns,
    _require_number,
    design_summary,
    filter_design,
    validate_group_sizes,
)
from .estimators import EstimationError, EstimatorKind, estimate_tsls_generic
from .inference import Fit, _check_alpha, _normal_report
from .simulation import (
    SCHEMA_VERSION,
    SimConfig,
    _json_ready,
    _run_grid,
    summarize,
)

__all__ = [
    "SpecChoice",
    "DatasetSchema",
    "CliValidationError",
    "cmd_estimate",
    "cmd_robust_ci",
    "cmd_simulate",
    "cmd_audit",
    "main",
]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


class CliValidationError(ValueError):
    """Bad flags, malformed data, or an unsupported spec/estimator pairing."""


class SpecChoice(enum.Enum):
    """How instruments and controls enter the design."""

    NOT_SATURATED = "not-saturated"
    FULLY_SATURATED = "fully-saturated"
    SATURATED_INSTRUMENTS = "saturated-instruments"
    SATURATED_CONTROLS = "saturated-controls"


@dataclass(frozen=True)
class DatasetSchema:
    """Column roles for a CSV dataset."""

    outcome_col: str | None
    treatment_col: str | None
    instrument_col: str
    covariate_cols: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "covariate_cols", tuple(self.covariate_cols))
        if not self.instrument_col:
            raise CliValidationError("an instrument column is required")
        named = [
            c
            for c in (self.outcome_col, self.treatment_col, self.instrument_col)
            if c
        ]
        named.extend(self.covariate_cols)
        dupes = sorted({c for c in named if named.count(c) > 1})
        if dupes:
            raise CliValidationError(
                f"columns assigned to more than one role: {', '.join(dupes)}"
            )


# The csv module refuses cells longer than 131,072 characters by default;
# numpy's tokenizer has no such limit, and neither path may have one.
_FIELD_LIMIT = sys.maxsize


@contextlib.contextmanager
def _csv_field_limit():
    previous = csv.field_size_limit(_FIELD_LIMIT)
    try:
        yield
    finally:
        csv.field_size_limit(previous)


def _read_columns(csv_path, wanted) -> dict[str, _Coded]:
    """One ``csv.reader`` pass keeping the wanted header columns, each as its
    stripped cells coded (``_Coded``), the form the tokenizer gives text in.

    This is the checked path: it alone raises the row-shape and file-level
    errors, and it reads every file that ``_tokenized_columns`` hands over.
    Blank lines are skipped and not counted, as ``csv.DictReader`` does, so
    data row i is the i-th non-blank line after the header.  Wanted names
    that are not in the header are left out of the result.  A ``csv.Error``
    is reported as a validation error naming the row it stopped in.
    """
    i = -1  # the header is row 0
    with open(csv_path, newline="", encoding="utf-8-sig") as fh, _csv_field_limit():
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise CliValidationError(
                    f"{csv_path}: empty file; a header row is required"
                )
            if len(set(header)) != len(header):
                raise CliValidationError(f"{csv_path}: duplicate column names in header")
            columns = {c: [] for c in wanted if c in header}
            slots = [(header.index(c), cells.append) for c, cells in columns.items()]
            width = len(header)
            i = 0
            for row in reader:
                if not row:
                    continue
                i += 1
                if len(row) != width:
                    side = "more" if len(row) > width else "fewer"
                    raise CliValidationError(
                        f"data row {i}: {side} fields than header columns"
                    )
                for j, append in slots:
                    append(row[j])
        except csv.Error as exc:
            where = f"data row {i + 1}" if i >= 0 else "header row"
            raise CliValidationError(f"{csv_path}: {where}: {exc}") from None
    if not i:
        raise CliValidationError(f"{csv_path}: no data rows")
    return {c: _code(cells).relabel(str.strip) for c, cells in columns.items()}


def _tokenized_columns(csv_path, wanted, floats=()) -> dict | None:
    """The wanted columns read by numpy's C tokenizer, or None to hand the
    file over to ``_read_columns``.

    The header and the first data row are read with ``csv`` to type each
    column: int64 for a wanted column whose first cell is an ASCII integer
    literal, float64 for one whose first cell is another number, text for
    any other wanted column, one character for an unused one.  A column
    named in ``floats`` is never typed int64: a continuous one such as an
    outcome may start with an integer and hold decimals later.  An int64
    column is cast to float64 afterwards, which is exact: an int64 rounds to
    the double that strtod gives its digits.  Only an int64 cell that fails
    (a later ``2.5``, an integer past int64; numpy 1.x warns instead) has the
    file read once more with those columns as float64; any other failure
    hands it over at once.  A text column is coded as it is read: its
    converter numbers the distinct raw cells in order of first appearance,
    so the strip and the checks below run once per distinct cell.
    ``np.loadtxt`` reads every column, so a row with too many or too few
    fields raises, as does a number it cannot parse.  A blank cell or a line
    break inside a text cell of a wanted column is handed over too, so every
    error message comes from ``_read_columns`` and its readers.  Numbers come
    back as the float64 arrays ``_float_column`` would build, text as its
    stripped cells coded (``_Coded``).
    """
    try:
        with open(csv_path, newline="", encoding="utf-8-sig") as fh, _csv_field_limit():
            reader = csv.reader(fh)
            header = next(reader, None)
            # skiprows counts lines, so the header must be one line.
            if not header or reader.line_num != 1 or len(set(header)) != len(header):
                return None
            first = next(filter(None, reader), None)
        if first is None or len(first) != len(header):
            return None
        # An unused column is never read; one character is the cheapest to keep.
        kinds = [_kind(cell, c not in floats) if c in wanted else "U1"
                 for c, cell in zip(header, first)]
        try:
            table, text = _loadtxt(csv_path, kinds)
        except (ValueError, DeprecationWarning) as exc:
            if isinstance(exc, ValueError) and not _INT64_FAILURE.match(str(exc)):
                raise
            kinds = ["f8" if kind == "i8" else kind for kind in kinds]
            table, text = _loadtxt(csv_path, kinds)
    except (OSError, ValueError, UserWarning, DeprecationWarning, csv.Error):
        return None
    columns = {}
    for c in wanted:
        if c in columns or c not in header:
            continue
        j = header.index(c)
        values = table[f"f{j}"]
        if kinds[j] in ("i8", "f8"):
            # float64, with a -0 cell read as +0.0, as an int64 one is
            columns[c] = values + 0.0
            continue
        coded = _Coded(values.copy(), list(text[j])).relabel(str.strip)
        # loadtxt reads the file with universal newlines, so a quoted line
        # break may differ from the csv cell's.
        if "" in coded.labels or "\n" in "".join(coded.labels):
            return None
        columns[c] = coded
    return columns


_INTEGER = re.compile(r"[+-]?[0-9]+")
_INT64_FAILURE = re.compile(r"could not convert string .* to int64 at row ", re.S)


def _kind(cell: str, integer: bool = True) -> str:
    """How a wanted column whose first cell is ``cell`` is read: "i8" for an
    ASCII integer literal (if ``integer``), "f8" for another number, "text"
    otherwise."""
    cell = cell.strip()
    if integer and _INTEGER.fullmatch(cell):
        return "i8"
    try:
        float(cell)
    except ValueError:
        return "text"
    return "f8"


def _loadtxt(csv_path, kinds) -> tuple[np.ndarray, dict]:
    """One ``np.loadtxt`` of every column, column j as ``kinds[j]``; a text
    column ("text") is read as int64 codes through a fresh coder, returned by
    column index.

    Warnings are raised: a UserWarning for "no data", and the
    DeprecationWarning with which numpy 1.23 and later 1.x releases read an
    int64 cell such as ``2.5``, or one past int64, through a float and cast
    it instead of failing.
    """
    text = {j: _coder() for j, kind in enumerate(kinds) if kind == "text"}
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)
        warnings.simplefilter("error", DeprecationWarning)
        table = np.loadtxt(
            csv_path,
            dtype=[(f"f{j}", "i8" if j in text else kind) for j, kind in enumerate(kinds)],
            delimiter=",",
            comments=None,
            quotechar='"',
            encoding="utf-8-sig",
            skiprows=1,
            ndmin=1,
            converters={j: index.__getitem__ for j, index in text.items()},
        )
    return table, text


def _load_columns(csv_path, needed, binarize, floats=()) -> dict:
    """Read the needed columns and the ``--binarize`` ones, then recode the
    latter; ``floats`` names continuous columns (``_tokenized_columns``)."""
    # Only the column names here: a malformed spec is reported after the
    # row-shape and missing-column errors.
    recoded = [str(spec).rpartition(":")[0] for spec in binarize or ()]
    wanted = [*needed, *recoded]
    columns = (_tokenized_columns(csv_path, wanted, floats)
               or _read_columns(csv_path, wanted))
    missing = [c for c in needed if c not in columns]
    if missing:
        raise CliValidationError(f"missing columns: {', '.join(missing)}")
    for col, threshold in _parse_binarize(binarize):
        if col not in columns:
            raise CliValidationError(f"--binarize column {col!r} not in header")
        if recoded.count(col) > 1:  # a second threshold would recode the 0/1 column
            raise CliValidationError(f"--binarize names column {col!r} more than once")
        columns[col] = (_finite_column(columns, col) > threshold).astype(np.float64)
    return columns


def _float_column(columns: dict, col: str, strings_ok: bool = False):
    """The column's stripped cells as float64, each distinct label converted
    once.

    A blank cell is an error, and so is a cell that is not a number, unless
    ``strings_ok``: then the coded cells are returned as they are.  An error
    names the first row of the first bad label; labels are numbered in order
    of first appearance, so that is the first bad row.
    """
    values = columns[col]
    if isinstance(values, np.ndarray):  # tokenized, or recoded by --binarize
        return values
    codes, labels = values
    numbers = []
    for k, label in enumerate(labels):
        try:
            numbers.append(float(label))
            continue
        except ValueError:
            if strings_ok and "" not in labels:
                return values
        k = labels.index("") if strings_ok else k
        row = int(np.argmax(codes == k)) + 1
        problem = f"cannot parse {labels[k]!r} as a number" if labels[k] else "missing value"
        raise CliValidationError(f"column {col!r}, data row {row}: {problem}")
    # + 0.0 reads a -0 cell as +0.0, as the tokenizer's int64 columns do.
    return (np.array(numbers, dtype=np.float64) + 0.0)[codes]


def _reject_first(col: str, values: np.ndarray, bad: np.ndarray, message: str) -> None:
    """Name the first row flagged in ``bad``; ``message`` may format its value."""
    rows = np.flatnonzero(bad)
    if rows.size:
        i = int(rows[0])
        raise CliValidationError(
            f"column {col!r}, data row {i + 1}: {message.format(values[i])}"
        )


def _finite_column(columns: dict, col: str) -> np.ndarray:
    """``_float_column`` for the outcome, the treatment and a ``--binarize``
    column, which must hold finite numbers."""
    values = _float_column(columns, col)
    _reject_first(col, values, ~np.isfinite(values), "{} is not a finite number")
    return values


def _binary_column(columns: dict, col: str) -> np.ndarray:
    values = _float_column(columns, col)
    bad = np.flatnonzero((values != 0.0) & (values != 1.0))
    if bad.size:
        i = int(bad[0])
        raise CliValidationError(
            f"column {col!r} must be 0/1 but data row {i + 1} has "
            f"{values[i]}; a threshold can be applied with --binarize {col}:THRESH"
        )
    return values.astype(np.int64)


def _parse_binarize(specs) -> list[tuple[str, float]]:
    parsed = []
    for spec in specs or ():
        col, sep, raw = str(spec).rpartition(":")
        if not sep or not col:
            raise CliValidationError(f"--binarize expects COL:THRESH, got {spec!r}")
        try:
            threshold = float(raw)
        except ValueError:
            raise CliValidationError(
                f"--binarize threshold {raw!r} is not a number"
            ) from None
        # NaN or an infinity would recode every row to one value.
        if not np.isfinite(threshold):
            raise CliValidationError(
                f"--binarize threshold {raw!r} is not a finite number"
            )
        parsed.append((col, threshold))
    return parsed


def _covariate_column(columns: dict, col: str):
    """A float array if every cell parses as a number, else the stripped cells
    coded."""
    values = _float_column(columns, col, strings_ok=True)
    if isinstance(values, np.ndarray):
        _reject_first(col, values, np.isnan(values), "NaN is not a covariate value")
    return values


def _raw_design(columns: dict, schema: DatasetSchema) -> SaturatedDesign:
    instrument = _binary_column(columns, schema.instrument_col)
    covariates = [_covariate_column(columns, c) for c in schema.covariate_cols]
    return _design_from_columns(covariates, instrument)


@dataclass(frozen=True)
class _Prepared:
    raw_design: SaturatedDesign
    design: SaturatedDesign
    sample: Sample
    audit: GroupAudit


def _prepare(
    csv_path, schema: DatasetSchema, min_active: int, min_inactive: int, binarize
) -> _Prepared:
    if not schema.outcome_col or not schema.treatment_col:
        raise CliValidationError(
            "outcome and treatment columns are required for this command"
        )
    needed = [schema.outcome_col, schema.treatment_col, schema.instrument_col]
    columns = _load_columns(
        csv_path, [*needed, *schema.covariate_cols], binarize, [schema.outcome_col]
    )
    raw_design = _raw_design(columns, schema)
    sample = Sample(
        outcome=_finite_column(columns, schema.outcome_col),
        treatment=_finite_column(columns, schema.treatment_col),
    )
    audit = validate_group_sizes(raw_design, min_active, min_inactive)
    design, sample = filter_design(raw_design, audit, sample)
    return _Prepared(raw_design=raw_design, design=design, sample=sample, audit=audit)


def _audit_dict(raw_design: SaturatedDesign, audit: GroupAudit) -> dict:
    violations = []
    for g, n_g, m_g, reason in audit.violations:
        item = {
            "group": int(g),
            "group_size": int(n_g),
            "active_count": int(m_g),
            "reason": reason,
        }
        if raw_design.group_keys is not None:
            item["key"] = list(raw_design.group_keys[g])
        violations.append(item)
    return {
        "violations": violations,
        "kept_groups": [int(g) for g in audit.kept_groups],
    }


def _report_head(command, prep: _Prepared, alpha, min_active, min_inactive, **labels):
    """The keys ``estimate`` and ``robust-ci`` reports open with, in order;
    ``labels`` go between the command and ``alpha``."""
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        **labels,
        "alpha": alpha,
        "thresholds": {"min_active": min_active, "min_inactive": min_inactive},
        "design_summary": design_summary(prep.design),
        "audit": _audit_dict(prep.raw_design, prep.audit),
    }


def _within(design: SaturatedDesign, v: np.ndarray) -> np.ndarray:
    """``M_W v`` after shifting each group by one of its values, so a group
    constant leaves no rounding residue for the rank checks to take for
    variation."""
    shift = np.empty(design.G)
    shift[design.group_of] = v
    return apply_M_W(design, v - shift[design.group_of])


def _generic_fit(
    spec: SpecChoice, schema: DatasetSchema, prep: _Prepared
) -> tuple[float, float]:
    """Treatment coefficient and HC0 variance of the spec's textbook 2SLS,
    on at most 2 + p columns.  Group dummies W as controls are partialled out
    by within-group demeaning (Frisch-Waugh-Lovell: same coefficient and
    residuals); interactions ``W q`` as instruments enter through the fitted
    treatment, which gives the same projected regressors."""
    design, sample = prep.design, prep.sample
    Y, T = sample.outcome, sample.treatment
    q = design.instrument.astype(np.float64)
    if spec in (SpecChoice.SATURATED_CONTROLS, SpecChoice.FULLY_SATURATED):
        Y, T = _within(design, Y), _within(design, T)
        if spec is SpecChoice.SATURATED_CONTROLS:
            Z, zname = apply_M_W(design, q), "instrument"
        else:
            # P T is the fit of the demeaned T on the demeaned interactions.
            Z, zname = apply_P(design, T), "fitted treatment"
        return estimate_tsls_generic(Y, T, Z[:, None], None, [zname], [])

    # A string column keys its groups by str values, a numeric one by floats.
    key = design.group_keys[0]
    bad = [c for c, v in zip(schema.covariate_cols, key) if isinstance(v, str)]
    if bad:
        raise CliValidationError(
            f"covariate columns {', '.join(bad)} are not numeric; "
            f"spec {spec.value!r} enters covariates linearly"
        )
    x = np.asarray(design.group_keys, dtype=np.float64)[design.group_of]
    C = np.column_stack([np.ones(design.n), x])
    if spec is SpecChoice.NOT_SATURATED:
        Z, zname = q, "instrument"
    else:
        # x is constant within groups, so the span of [W q, 1, x] is the
        # active-cell dummies on active rows plus [1, x] on inactive rows:
        # the fitted T is the active-cell mean there and an OLS fit here.
        inactive = design.instrument == 0
        coef = np.linalg.lstsq(C[inactive], T[inactive], rcond=None)[0]
        Z = np.where(inactive, C @ coef, _cell_means(design, T)[design.cell])
        zname = "fitted treatment"
    return estimate_tsls_generic(
        Y, T, Z[:, None], C, [zname], ["intercept", *schema.covariate_cols]
    )


def cmd_estimate(
    csv_path,
    schema: DatasetSchema,
    spec: SpecChoice = SpecChoice.FULLY_SATURATED,
    estimator: EstimatorKind = EstimatorKind.SIVE,
    alpha: float = 0.05,
    min_active: int = 2,
    min_inactive: int = 2,
    binarize=(),
    reference: bool = False,
) -> dict:
    """Estimate one spec/estimator combination and report inference as JSON.

    The blockwise estimators require the fully saturated spec; every spec
    runs the generic two-stage path (``estimate_tsls_generic``).  The
    blockwise estimates and every first-stage strength read one moment table.
    The saturated TSLS and jackknife baselines carry no variance theory here,
    so their variance fields are null.  ``reference`` re-computes blockwise
    results with the dense reference implementation and attaches them.
    """
    _check_alpha(alpha)
    blockwise = estimator is not EstimatorKind.TSLS_GENERIC
    if blockwise and spec is not SpecChoice.FULLY_SATURATED:
        raise CliValidationError(
            f"unsupported combination: estimator {estimator.value!r} under "
            f"spec {spec.value!r} (blockwise estimators need "
            f"'{SpecChoice.FULLY_SATURATED.value}')"
        )
    if reference and not blockwise:
        raise CliValidationError(
            "--reference is available only for the blockwise estimators"
        )
    prep = _prepare(csv_path, schema, min_active, min_inactive, binarize)
    design, sample = prep.design, prep.sample

    fit = Fit(design, sample.outcome, sample.treatment)
    if estimator is EstimatorKind.SIVE:
        report = fit.report(alpha, 0.0)
    else:
        fitted = (fit.estimate(estimator), None) if blockwise else _generic_fit(spec, schema, prep)
        report = _normal_report(*fitted, alpha, 0.0, fit.first_stage_strength())
    del fit  # before the rows: freed after them, it leaves a heap that slows later ops

    payload = _report_head(
        "estimate", prep, alpha, min_active, min_inactive,
        spec=spec.value, estimator=estimator.value,
    )
    payload["estimate"] = report.to_json_dict()
    if reference:
        from .oracle import assemble, oracle_estimate, oracle_variance

        dense = assemble(design)
        ref_beta = oracle_estimate(
            estimator, dense, sample.outcome, sample.treatment
        )
        ref = {"beta_hat": ref_beta}
        if estimator is EstimatorKind.SIVE:
            ref["variance"] = oracle_variance(
                dense, sample.outcome, sample.treatment, ref_beta
            )
        payload["reference"] = ref
    return payload


def cmd_robust_ci(
    csv_path,
    schema: DatasetSchema,
    grid: dict | None = None,
    alpha: float = 0.05,
    min_active: int = 2,
    min_inactive: int = 2,
    binarize=(),
) -> dict:
    """Identification-robust confidence set for the effect, with exact endpoints.

    ``grid`` (``{"low", "high"}``) is the reporting window the exact set is
    clipped to.  The ``robust_ci`` block of the report carries
    ``intervals``, ``unbounded_within_grid``, ``unbounded`` (the exact set
    extends to infinity), ``grid`` and ``alpha``.
    """
    _check_alpha(alpha)
    prep = _prepare(csv_path, schema, min_active, min_inactive, binarize)
    # A fit of its own, freed before the rows, as in ``cmd_estimate``.
    result = Fit(prep.design, prep.sample.outcome, prep.sample.treatment).robust_ci(grid, alpha)
    payload = _report_head("robust-ci", prep, alpha, min_active, min_inactive)
    payload["robust_ci"] = result
    return payload


def cmd_audit(
    csv_path,
    schema: DatasetSchema,
    min_active: int = 2,
    min_inactive: int = 2,
    binarize=(),
    dump_design=None,
) -> dict:
    """Summarize group structure and threshold violations without estimating.

    Unlike the estimation commands this never fails on an all-violating
    dataset; the violation list is the point of the report.
    """
    columns = _load_columns(
        csv_path, [schema.instrument_col, *schema.covariate_cols], binarize
    )
    raw_design = _raw_design(columns, schema)
    audit = validate_group_sizes(raw_design, min_active, min_inactive)

    filtered = None
    if audit.kept_groups:
        placeholder = Sample(
            outcome=np.zeros(raw_design.n), treatment=np.zeros(raw_design.n)
        )
        filtered, _ = filter_design(raw_design, audit, placeholder)

    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "audit",
        "thresholds": {"min_active": min_active, "min_inactive": min_inactive},
        "raw_summary": design_summary(raw_design),
        "audit": _audit_dict(raw_design, audit),
        "filtered_summary": None if filtered is None else design_summary(filtered),
    }
    if dump_design is not None:
        if filtered is None:
            raise CliValidationError(
                "nothing to dump: every group violates the thresholds"
            )
        text = json.dumps(_json_ready(filtered.to_json_dict()), indent=2) + "\n"
        Path(dump_design).write_text(text, encoding="utf-8")
        payload["design_file"] = str(dump_design)
    return payload


_CONFIG_FIELDS = tuple(f.name for f in dataclass_fields(SimConfig))


def cmd_simulate(config_path, out_dir, seed=None) -> dict:
    """Run the bias and size grids from a JSON config and write artifacts.

    Each replication is drawn once per grid; each cell's draw feeds both grids.

    The config holds SimConfig fields, where ``L`` and ``p1`` may be lists,
    plus an optional ``alpha``.  ``seed`` overrides ``master_seed``.  Writes
    bias.csv/json, size.csv/json and a manifest keyed by the config hash;
    nothing in the outputs depends on wall-clock time.
    """
    raw = json.loads(Path(config_path).read_text(encoding="utf-8"))
    if not isinstance(raw, dict):
        raise CliValidationError("config must be a JSON object")
    unknown = sorted(set(raw) - set(_CONFIG_FIELDS) - {"alpha"})
    if unknown:
        raise CliValidationError(f"unknown config keys: {', '.join(unknown)}")

    def as_list(value):
        return list(value) if isinstance(value, (list, tuple)) else [value]

    L_values = as_list(raw.get("L", SimConfig.L))
    p1_values = as_list(raw.get("p1", SimConfig.p1))
    if not L_values or not p1_values:
        raise CliValidationError("L and p1 must each have at least one value")
    alpha = raw.get("alpha", 0.05)
    _require_number("alpha", alpha)
    _check_alpha(alpha)
    scalars = {
        k: raw[k] for k in _CONFIG_FIELDS if k in raw and k not in ("L", "p1")
    }
    if seed is not None:
        scalars["master_seed"] = seed
    base = SimConfig(L=L_values[0], p1=p1_values[0], **scalars)
    # SimConfig checks and normalizes every grid value, before any output.
    L_values = [replace(base, L=v).L for v in L_values]
    p1_values = [replace(base, p1=v).p1 for v in p1_values]

    config_dict = {f: getattr(base, f) for f in _CONFIG_FIELDS}
    config_dict["L"] = L_values
    config_dict["p1"] = p1_values
    config_dict["alpha"] = alpha
    canonical = json.dumps(config_dict, sort_keys=True, separators=(",", ":"))

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    bias_rows, size_rows = _run_grid(base, L_values, p1_values, alpha=alpha)
    summarize(bias_rows, out / "bias.csv", out / "bias.json")
    summarize(size_rows, out / "size.csv", out / "size.json")

    manifest = {
        "schema_version": SCHEMA_VERSION,
        "command": "simulate",
        "config": config_dict,
        "config_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
        "master_seed": base.master_seed,
        "outputs": ["bias.csv", "bias.json", "size.csv", "size.json"],
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return manifest


def _emit(payload: dict, out_file) -> None:
    text = json.dumps(_json_ready(payload), indent=2, allow_nan=False) + "\n"
    if out_file:
        Path(out_file).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _data_kwargs(args) -> dict:
    """The dataset arguments of ``estimate``, ``robust-ci`` and ``audit``."""
    covariates = [c.strip() for c in args.covariates.split(",") if c.strip()]
    schema = DatasetSchema(
        outcome_col=getattr(args, "outcome", None),
        treatment_col=getattr(args, "treatment", None),
        instrument_col=args.instrument,
        covariate_cols=tuple(covariates),
    )
    return {
        "csv_path": args.data,
        "schema": schema,
        "min_active": args.min_active,
        "min_inactive": args.min_inactive,
        "binarize": args.binarize or (),
    }


def _grid_from_args(args) -> dict | None:
    has_low = args.grid_low is not None
    has_high = args.grid_high is not None
    if has_low != has_high:
        raise CliValidationError("--grid-low and --grid-high must be given together")
    if not has_low:
        return None
    return {"low": args.grid_low, "high": args.grid_high}


def _add_data_flags(p: argparse.ArgumentParser, with_outcome: bool) -> None:
    p.add_argument("--data", required=True, help="CSV dataset path")
    if with_outcome:
        p.add_argument("--outcome", required=True, help="outcome column")
        p.add_argument("--treatment", required=True, help="treatment column")
    p.add_argument("--instrument", required=True, help="binary instrument column")
    p.add_argument(
        "--covariates",
        default="",
        help="comma-separated covariate columns (groups = unique value tuples)",
    )
    p.add_argument(
        "--binarize",
        action="append",
        metavar="COL:THRESH",
        help="recode a column to 1[value > THRESH]; repeatable",
    )
    p.add_argument("--min-active", type=int, default=2, dest="min_active")
    p.add_argument("--min-inactive", type=int, default=2, dest="min_inactive")
    p.add_argument("--out", default=None, help="write the JSON report here")


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves no state on it."""
    parser = argparse.ArgumentParser(
        prog="sivreg",
        description="Saturated instrumental-variables estimation and inference.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="point estimate and inference report")
    _add_data_flags(est, with_outcome=True)
    est.add_argument(
        "--spec",
        choices=[s.value for s in SpecChoice],
        default=SpecChoice.FULLY_SATURATED.value,
    )
    est.add_argument(
        "--estimator",
        choices=[k.value for k in EstimatorKind],
        default=EstimatorKind.SIVE.value,
    )
    est.add_argument("--alpha", type=float, default=0.05)
    est.add_argument(
        "--reference",
        action="store_true",
        help="attach dense reference recomputation (blockwise estimators only)",
    )
    est.set_defaults(
        handler=lambda args: cmd_estimate(
            **_data_kwargs(args),
            spec=SpecChoice(args.spec),
            estimator=EstimatorKind(args.estimator),
            alpha=args.alpha,
            reference=args.reference,
        )
    )

    rci = sub.add_parser(
        "robust-ci", help="identification-robust confidence set, exact endpoints"
    )
    _add_data_flags(rci, with_outcome=True)
    rci.add_argument("--alpha", type=float, default=0.05)
    rci.add_argument("--grid-low", type=float, default=None, dest="grid_low")
    rci.add_argument("--grid-high", type=float, default=None, dest="grid_high")
    rci.set_defaults(
        handler=lambda args: cmd_robust_ci(
            **_data_kwargs(args), grid=_grid_from_args(args), alpha=args.alpha
        )
    )

    sim = sub.add_parser("simulate", help="run bias and size experiment grids")
    sim.add_argument("--config", required=True, help="JSON config path")
    sim.add_argument("--out", required=True, help="output directory")
    sim.add_argument("--seed", type=int, default=None, help="override master_seed")
    sim.set_defaults(
        handler=lambda args: cmd_simulate(args.config, args.out, seed=args.seed),
        out_is_dir=True,
    )

    aud = sub.add_parser("audit", help="group-size audit and design summary")
    _add_data_flags(aud, with_outcome=False)
    aud.add_argument(
        "--dump-design",
        default=None,
        dest="dump_design",
        help="also write the filtered design as JSON to this path",
    )
    aud.set_defaults(
        handler=lambda args: cmd_audit(**_data_kwargs(args), dump_design=args.dump_design)
    )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        payload = args.handler(args)
        out_file = None if getattr(args, "out_is_dir", False) else args.out
        _emit(payload, out_file)
    except EstimationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (DesignError, CliValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
