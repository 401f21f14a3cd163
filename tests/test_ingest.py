"""CSV ingest: numpy's tokenizer against the csv.reader path, and the
finiteness rule both paths share."""

import csv
import json
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from sivreg import cli
from sivreg.cli import (
    CliValidationError,
    _float_column,
    _read_columns,
    _tokenized_columns,
    main,
)
from sivreg.design import _code, _Coded

from conftest import random_design, strong_sample

NAMES = ["y", "t", "z", "w", "note"]
# The integer literals type a first-row column as int64; the last one is past
# int64, and 2**53 + 1 rounds to 2**53 as float64.
NUMBERS = ["0", "1", "-2.5", "3", "0.125", "-0", "+7", "007", "9007199254740993",
           "99999999999999999999"]
ODD_NUMBERS = ["1_0", "nan", "-nan", "inf", "-inf", "Infinity", "+1.5", ".5", "1e5",
               "١", "1\x1c"]
TEXT = ["abc", "a b", "region_01", "été", 'x"y', "", "1,5", "a\nb", "a\r\nb"]
PADS = ["", "", "", " ", "  ", "\t", "\xa0"]


def quoted(cell):
    return '"' + cell.replace('"', '""') + '"'


@st.composite
def cells(draw, numeric):
    if numeric:
        base = draw(st.sampled_from(NUMBERS * 4 + ODD_NUMBERS + TEXT[:2]))
    else:
        base = draw(st.sampled_from(TEXT + NUMBERS[:2]))
    cell = draw(st.sampled_from(PADS)) + base + draw(st.sampled_from(PADS))
    needs_quotes = any(ch in cell for ch in ',"\r\n')
    style = draw(st.sampled_from(["plain", "plain", "quoted"]))
    if style == "quoted" or (needs_quotes and draw(st.booleans())):
        return quoted(cell)
    return cell  # unquoted: a comma splits it, a line break ends the row


@st.composite
def csv_texts(draw):
    """CSV text with its wanted columns: line ends, blank and whitespace lines,
    ragged rows, quoting, padded and unusual numbers, BOM, final newline."""
    header = draw(st.permutations(NAMES))[: draw(st.integers(1, 4))]
    numeric = [draw(st.booleans()) or name in "ytz" for name in header]
    lines = [",".join(header)]
    for _ in range(draw(st.integers(1, 5))):
        row = [draw(cells(num)) for num in numeric]
        shape = draw(st.sampled_from(["ok"] * 8 + ["more", "fewer"]))
        if shape == "more":
            row.append(draw(cells(True)))
        elif shape == "fewer":
            row.pop()
        lines += draw(st.lists(st.sampled_from(["", "  ", "\t"]), max_size=1))
        lines.append(",".join(row))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = end.join(lines) + draw(st.sampled_from([end, ""]))
    if draw(st.booleans()):
        text = "﻿" + text
    wanted = draw(st.lists(st.sampled_from([*NAMES, "absent"]), max_size=4))
    return text, wanted


def read_csv_path(path, wanted):
    """What the csv.reader path returns, or the error it raises."""
    try:
        return _read_columns(path, wanted)
    except Exception as exc:  # the tokenizer must then have handed over
        return exc


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(csv_texts())
def test_tokenizer_agrees_with_csv_reader_or_hands_over(tmp_path, case):
    text, wanted = case
    path = tmp_path / "case.csv"
    path.write_bytes(text.encode("utf-8"))
    fast = _tokenized_columns(str(path), wanted)
    if fast is None:
        event("handed over")
        return
    event("tokenized")
    expected = read_csv_path(str(path), wanted)
    assert not isinstance(expected, Exception), expected
    assert list(fast) == list(expected)
    for col, values in fast.items():
        if isinstance(values, np.ndarray):
            ref = _float_column(expected, col)
            assert isinstance(ref, np.ndarray), col
            assert values.dtype == np.float64 and values.shape == ref.shape
            assert np.array_equal(values.view(np.int64), ref.view(np.int64)), col
        else:
            # A text column comes back coded; compare it cell by cell.
            assert isinstance(values, _Coded), col
            assert values.cells() == expected[col].cells(), col


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8"))
    return str(path)


@pytest.mark.parametrize(
    "text",
    [
        "y,t,w\n1,0,a\n2,1,b\n",
        "﻿y,t,w\r\n1,0,a\r\n\r\n2,1,b",  # BOM, CRLF, blank line, no final newline
        "y,t,w\r1,0,a\r2,1,b\r",  # CR-only line ends
        'y,t,w,note\n 1 ,\t0,"b, c",x"y\n"2",1,  b ,"q ""r"""\n',  # padding and quotes
        "y,t,w\n1,0,a\n",  # a single data row
    ],
)
def test_tokenizer_reads_ordinary_files(tmp_path, text):
    path = write(tmp_path, "ok.csv", text)
    fast = _tokenized_columns(path, ["y", "t", "w"])
    assert fast is not None
    expected = _read_columns(path, ["y", "t", "w"])
    for col in ("y", "t"):
        assert fast[col].tolist() == _float_column(expected, col).tolist()
    assert fast["w"].cells() == expected["w"].cells()


@pytest.mark.parametrize(
    "text",
    [
        "y,w\n1,a\n1_0,b\n",  # loadtxt rejects 1_0, float() accepts it
        "y,w\n1,a\n١,b\n",  # a non-ASCII digit
        "y,w\n1,a\n2,b,c\n",  # too many fields
        "y,w\n1,a\n2\n",  # too few fields
        "y,w\n1,a\nx,b\n",  # a numeric-looking first row, then a string
        "y,w\n1,a\n2, \n",  # a blank text cell
        'y,w\r\n1,"a\r\nb"\r\n',  # loadtxt's universal newlines would give "a\nb"
        '"y\n",w\n1,a\n',  # a header over two lines
        "y,w,w\n1,a,b\n",  # duplicate names
        "y,w\n\n\n",  # no data rows
        "",  # empty file
    ],
)
def test_tokenizer_hands_over(tmp_path, text):
    assert _tokenized_columns(write(tmp_path, "odd.csv", text), ["y", "w"]) is None


@pytest.mark.parametrize("later", ["2.5", "99999999999999999999", "-0.0"])
def test_integer_column_with_a_later_non_integer_is_still_tokenized(tmp_path, later):
    # The first cell types y as int64; the read that fails on the later cell
    # is done again with y as float64 instead of handing the file over.
    path = write(tmp_path, "later.csv", f"y,w\n-0,a\n3,b\n{later},c\n")
    fast = _tokenized_columns(path, ["y", "w"])
    assert fast is not None
    expected = _float_column(_read_columns(path, ["y"]), "y")
    assert fast["y"].tobytes() == expected.tobytes()
    assert fast["y"].tolist() == [0.0, 3.0, float(later)]
    assert not np.signbit(fast["y"]).any()


@pytest.mark.parametrize("later", ["2.5", "99999999999999999999"])
def test_integer_column_read_through_a_float_with_a_warning_is_retried(
    tmp_path, monkeypatch, later
):
    # numpy 1.23 and later 1.x releases do not fail on such a cell in an
    # int64 column: they read it through a float, cast it, and only issue a
    # DeprecationWarning.  That warning must lead to the float64 retry too.
    real = np.loadtxt

    def warning_loadtxt(fname, dtype, converters, **kwargs):
        wide = [(name, "f8" if kind == "i8" and int(name[1:]) not in converters else kind)
                for name, kind in dtype]
        table = real(fname, dtype=wide, converters=converters, **kwargs)
        for (name, kind), (_, read_as) in zip(dtype, wide):
            values = table[name]
            if kind != read_as and not np.all((values == np.trunc(values))
                                              & (np.abs(values) < 2.0**63)):
                warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                              DeprecationWarning, stacklevel=2)
        with np.errstate(invalid="ignore"):
            return table.astype(dtype)  # truncated, or cast out of range

    monkeypatch.setattr(np, "loadtxt", warning_loadtxt)
    path = write(tmp_path, "later.csv", f"y,w\n1,a\n3,b\n{later},c\n")
    fast = _tokenized_columns(path, ["y", "w"])
    assert fast is not None
    assert fast["y"].tolist() == [1.0, 3.0, float(later)]


@pytest.mark.parametrize(
    "text, reads",
    [
        ("y,t,z,w\n0.5,0,1,0\n1.5,1,0,0\n2.5,0,1,0,9\n", 1),  # a ragged last row
        ("y,t,z,w\n0.5,0,1,0\n1.5,1,0,0\nx,0,1,0\n", 1),  # a bad float in y
        ("y,t,z,w\n0.5,0,1,0\n1.5,1,0,0\n2.5,3.5,1,0\n", 2),  # 3.5 in an int64 column
    ],
)
def test_only_a_failed_int64_cell_reads_the_file_again(tmp_path, capsys, monkeypatch,
                                                      text, reads):
    # A float64 read fails wherever the int64 read failed on anything but an
    # int64 cell, so such a file is handed over after one read.
    kinds = []
    real = cli._loadtxt
    monkeypatch.setattr(cli, "_loadtxt", lambda path, k: kinds.append(k) or real(path, k))
    data = write(tmp_path, "d.csv", text)
    fast = _tokenized_columns(data, ["y", "t", "z", "w"], floats=["y"])
    assert kinds[0] == ["f8", "i8", "i8", "i8"] and len(kinds) == reads
    if reads == 2:
        assert fast["t"].tolist() == [0.0, 1.0, 3.5]
        return
    assert fast is None
    first, second = both_paths(["estimate", "--data", data, *BASE], capsys, monkeypatch)
    assert first[0] == 2 and first[2].startswith("error: ")
    assert first == second


def test_outcome_column_is_never_typed_int64(tmp_path, monkeypatch):
    # A continuous outcome whose first cell is an integer is read as float64
    # at once, so a decimal anywhere later costs no second read.
    kinds = []
    real = cli._loadtxt
    monkeypatch.setattr(cli, "_loadtxt", lambda path, k: kinds.append(k) or real(path, k))
    outcomes = ["12"] + [f"{i}.5" for i in range(1, 40)]
    rows = [f"{y},{i % 2},{i % 2},{i % 3}" for i, y in enumerate(outcomes)]
    path = write(tmp_path, "y.csv", "y,t,z,g\n" + "\n".join(rows) + "\n")
    assert main(["estimate", "--data", path, "--outcome", "y", "--treatment", "t",
                 "--instrument", "z", "--covariates", "g", "--estimator", "tsls-saturated",
                 "--out", str(tmp_path / "out.json")]) == 0
    assert kinds == [["f8", "i8", "i8", "i8"]]


def test_loadtxt_rejects_underscores_that_float_accepts(tmp_path):
    # Known disagreement: the csv path reads "1_0" as 10, so the tokenizer
    # must hand such a file over rather than report it.
    assert float("1_0") == 10.0
    with pytest.raises(ValueError):
        np.loadtxt(["1_0"], delimiter=",", comments=None)
    path = write(tmp_path, "u.csv", "y\n1_0\n2\n")
    assert _tokenized_columns(path, ["y"]) is None
    assert _float_column(_read_columns(path, ["y"]), "y").tolist() == [10.0, 2.0]


def float_column_by_rows(cells, col, strings_ok=False):
    """``_float_column`` on a list of raw cells, converted row by row: the
    reference that the label-at-a-time conversion is pinned to."""
    try:
        # + 0.0 reads a -0 cell as +0.0.
        return np.array(list(map(float, map(str.strip, cells)))) + 0.0
    except ValueError:
        pass
    if strings_ok:
        coded = _code(cells).relabel(str.strip)
        if "" not in coded.labels:
            return coded
    for i, cell in enumerate(map(str.strip, cells), start=1):
        if not cell:
            raise CliValidationError(f"column {col!r}, data row {i}: missing value")
        try:
            float(cell)
        except ValueError:
            if not strings_ok:
                raise CliValidationError(
                    f"column {col!r}, data row {i}: cannot parse {cell!r} as a number"
                ) from None


def outcome(call):
    """What ``call()`` returns, or the message of the validation error it raises."""
    try:
        return call()
    except CliValidationError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(PADS),
            st.sampled_from(NUMBERS * 3 + ["1.0", "-0.0", "nan", "-inf", "abc", "a b", ""]),
            st.sampled_from(PADS),
        ).map("".join),
        min_size=1,
        max_size=12,
    ),
    st.booleans(),
)
def test_float_column_converts_each_label_as_rows_were_converted(cells, strings_ok):
    # The form _read_columns gives every column.
    columns = {"x": _code(cells).relabel(str.strip)}
    got = outcome(lambda: _float_column(columns, "x", strings_ok))
    want = outcome(lambda: float_column_by_rows(cells, "x", strings_ok))
    assert type(got) is type(want)
    if isinstance(want, np.ndarray):
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
    elif isinstance(want, _Coded):
        assert got.cells() == want.cells()
    else:
        assert got == want


def test_loadtxt_with_usecols_accepts_ragged_rows():
    # Known disagreement: with usecols, loadtxt reads rows with too many or
    # too few fields, which the csv path rejects; hence no usecols.
    lines = ["1,2", "3,4,5", "6"]
    assert np.loadtxt(lines, delimiter=",", comments=None, usecols=[0]).tolist() == [
        1.0, 3.0, 6.0
    ]
    with pytest.raises(ValueError):
        np.loadtxt(lines, delimiter=",", comments=None)


# --- the command line with and without the tokenizer -------------------------


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def both_paths(argv, capsys, monkeypatch):
    """Exit code, stdout and stderr with the tokenizer, then without it."""
    first = run(argv, capsys)
    with monkeypatch.context() as m:
        m.setattr(cli, "_tokenized_columns", lambda csv_path, wanted, floats=(): None)
        second = run(argv, capsys)
    return first, second


def noisy_text(seed=50, region=False, end="\n"):
    rng = np.random.default_rng(seed)
    d = random_design(rng, G=4, size_range=(8, 12))
    s = strong_sample(rng, d, tau=1.0, pi=1.2)
    lines = ["id,y,t,z,w"]
    columns = zip(s.outcome.tolist(), s.treatment.tolist(), d.instrument.tolist(),
                  d.group_of.tolist())
    for i, (y, t, z, g) in enumerate(columns):
        lines.append(f"{i},{y!r},{t!r},{z},{f'r{g}' if region else g}")
    return end.join(lines) + end


BASE = ["--outcome", "y", "--treatment", "t", "--instrument", "z", "--covariates", "w"]


@pytest.mark.parametrize("region", [False, True])
@pytest.mark.parametrize("end", ["\n", "\r\n"])
def test_cli_outputs_equal_with_and_without_tokenizer(tmp_path, capsys, monkeypatch,
                                                       region, end):
    data = write(tmp_path, "d.csv", noisy_text(region=region, end=end))
    assert _tokenized_columns(data, ["y", "t", "z", "w"]) is not None
    for argv in (["estimate", *BASE], ["estimate", *BASE, "--estimator", "jive2"],
                 ["robust-ci", *BASE], ["audit", "--instrument", "z", "--covariates", "w"]):
        first, second = both_paths([argv[0], "--data", data, *argv[1:]], capsys, monkeypatch)
        assert first[0] == 0, first[2]
        assert first == second


# Cells of one label that differ only by surrounding whitespace (quoted or
# not), and numeric-looking cells below a text first row: group g's cells.
PADDED = [[" x", "x", "x ", '"x  "'], ["1"], ["1.0"], ["b", "\tb", '" b"'], [" 2.5 "]]


def padded_text(seed=51):
    rng = np.random.default_rng(seed)
    d = random_design(rng, G=len(PADDED), size_range=(8, 12))
    s = strong_sample(rng, d, tau=1.0, pi=1.2)
    lines = ["y,t,z,w"]
    columns = zip(s.outcome.tolist(), s.treatment.tolist(), d.instrument.tolist(),
                  d.group_of.tolist())
    for i, (y, t, z, g) in enumerate(columns):
        # Row 0 opens group 0, with a padded variant.
        cell = PADDED[g][0 if i == 0 else int(rng.integers(len(PADDED[g])))]
        lines.append(f"{y!r},{t!r},{z},{cell}")
    return "\n".join(lines) + "\n"


def test_cli_outputs_equal_with_padded_text_cells(tmp_path, capsys, monkeypatch):
    data = write(tmp_path, "padded.csv", padded_text())
    fast = _tokenized_columns(data, ["y", "t", "z", "w"])
    assert isinstance(fast["w"], _Coded)
    assert fast["w"].labels == ["x", "1", "1.0", "b", "2.5"]
    audit = ["audit", "--data", data, "--instrument", "z", "--covariates", "w"]
    for argv in (["estimate", "--data", data, *BASE], audit, [*audit, "--min-active", "99"]):
        first, second = both_paths(argv, capsys, monkeypatch)
        assert first[0] == 0, first[2]
        assert first == second
    # Every group violates the last audit's threshold, so each key is listed.
    keys = [v["key"] for v in json.loads(first[1])["audit"]["violations"]]
    assert keys == [["x"], ["1"], ["1.0"], ["b"], ["2.5"]]


@pytest.mark.parametrize(
    "text",
    [
        "y,t,z,w\n1,0,1,0\n1,0,1,0,9\n",
        "y,t,z,w\n1,0,1,0\n\n1,x,1,0\n",
        "y,t,z,w\n1,0,1,0\n1, ,1,0\n",
        "y,t,z,w\n1,0,1,0\n1,0,2,0\n",
        "y,t,z\n1,0,1\n",
        "y,t,z,w\nx,0,1,\n",
        "y,t,z,w\n1,0,1,0\n1,inf,1,0\n",
        "y,t,z,w\n1,0,1,nan\n",
    ],
)
def test_cli_errors_equal_with_and_without_tokenizer(tmp_path, capsys, monkeypatch, text):
    data = write(tmp_path, "bad.csv", text)
    first, second = both_paths(["estimate", "--data", data, *BASE], capsys, monkeypatch)
    assert first[0] == 2 and first[2].startswith("error: ")
    assert first == second


@pytest.mark.parametrize("row", [1, 7])
def test_cli_outputs_equal_with_a_cell_past_the_csv_field_limit(tmp_path, capsys,
                                                                monkeypatch, row):
    # 200,000 characters in the unused id column, past the csv module's
    # default limit of 131,072 per cell.
    lines = noisy_text().splitlines()
    lines[row] = "x" * 200_000 + lines[row][lines[row].index(","):]
    data = write(tmp_path, "long.csv", "\n".join(lines) + "\n")
    limit = csv.field_size_limit()
    assert _tokenized_columns(data, ["y", "t", "z", "w"]) is not None
    for argv in (["estimate", *BASE], ["robust-ci", *BASE],
                 ["audit", "--instrument", "z", "--covariates", "w"]):
        first, second = both_paths([argv[0], "--data", data, *argv[1:]], capsys, monkeypatch)
        assert first[0] == 0, first[2]
        assert first == second
    assert csv.field_size_limit() == limit


@pytest.mark.parametrize(
    "text,where",
    [("y,t,z,w\n1,0,1,0\n\n1,0,1,123456789\n", "data row 2"),
     ("y,t,z,w123456789\n1,0,1,0\n", "header row")],
)
def test_csv_error_is_a_validation_error_naming_the_row(tmp_path, capsys, monkeypatch,
                                                         text, where):
    data = write(tmp_path, "d.csv", text)
    monkeypatch.setattr(cli, "_FIELD_LIMIT", 8)
    monkeypatch.setattr(cli, "_tokenized_columns", lambda csv_path, wanted, floats=(): None)
    code, out, err = run(["estimate", "--data", data, *BASE], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: {data}: {where}: field larger than field limit (8)\n"


# --- non-finite numbers ------------------------------------------------------

SIX_ROWS = [("1.5", "1", "1", "0"), ("2", "1", "1", "0"), ("0.5", "0", "0", "0"),
            ("1", "0", "0", "0"), ("2.5", "1", "1", "0"), ("0", "0", "0", "0")]


def six_row_csv(tmp_path, column, value):
    """The six rows, plus a column ``e`` of years of schooling, with ``value``
    in ``column`` on data row 2."""
    rows = [dict(zip("ytzw", row), e=str(8 + 2 * i)) for i, row in enumerate(SIX_ROWS)]
    rows[1][column] = value
    lines = ["y,t,z,w,e"] + [",".join(r[c] for c in "ytzwe") for r in rows]
    return write(tmp_path, f"nonfinite_{column}.csv", "\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "column, value, message",
    [
        ("y", "inf", "column 'y', data row 2: inf is not a finite number"),
        ("y", "nan", "column 'y', data row 2: nan is not a finite number"),
        ("t", "-inf", "column 't', data row 2: -inf is not a finite number"),
        ("t", "-Infinity", "column 't', data row 2: -inf is not a finite number"),
    ],
)
def test_nonfinite_outcome_or_treatment_names_column_and_row(
    tmp_path, capsys, monkeypatch, column, value, message
):
    data = six_row_csv(tmp_path, column, value)
    first, second = both_paths(["estimate", "--data", data, *BASE], capsys, monkeypatch)
    assert first == second == (2, "", f"error: {message}\n")


def test_nonfinite_binarize_column_names_column_and_row(tmp_path, capsys, monkeypatch):
    # nan > 12 is false, so the row would silently become instrument 0.
    data = six_row_csv(tmp_path, "e", "nan")
    message = "error: column 'e', data row 2: nan is not a finite number\n"
    roles = ["--instrument", "e", "--covariates", "w", "--binarize", "e:12"]
    for argv in (["estimate", "--outcome", "y", "--treatment", "t", *roles],
                 ["robust-ci", "--outcome", "y", "--treatment", "t", *roles],
                 ["audit", *roles]):
        argv = [argv[0], "--data", data, *argv[1:]]
        first, second = both_paths(argv, capsys, monkeypatch)
        assert first == second == (2, "", message)


def test_nonfinite_outcome_comes_before_treatment(tmp_path, capsys):
    rows = "\n".join(["1,0,1,0", "1,0,1,0", "inf,nan,0,0", "1,0,0,0"])
    data = write(tmp_path, "both.csv", f"y,t,z,w\n{rows}\n")
    code, _, err = run(["estimate", "--data", data, *BASE], capsys)
    assert code == 2
    assert err == "error: column 'y', data row 3: inf is not a finite number\n"
