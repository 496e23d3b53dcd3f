import copy
import csv
import dataclasses
import io
import pickle
import re
from collections import Counter

import numpy as np
import pytest

import gen
import scmkit.estimate as estimate_module
from scmkit.estimate import (
    DataError,
    Dataset,
    MissingDataPresent,
    TooManyDegenerateResamples,
    bootstrap_interval,
    empirical_joint,
    load_table,
    plug_in,
)
from scmkit.expr import ConditioningOnZero, eval_estimand, parse_estimand
from scmkit.graph import parse_graph
from scmkit.identify import Identified, identify, parse_query
from scmkit.scm import intervene, observational_joint, sample

BACKDOOR = parse_graph("var X\nvar Y\nvar Z\nZ -> X\nZ -> Y\nX -> Y\n")


# --- loading ---------------------------------------------------------------------


def test_load_basic_table():
    d = load_table(io.StringIO("X,Y\n0,1\n1,1\n"))
    assert d.columns == ("X", "Y")
    assert d.n == 2
    assert d.domains == {"X": ("0", "1"), "Y": ("1",)}


def test_load_missing_token():
    d = load_table(io.StringIO("X,Y\n0,NA\n1,1\n"))
    assert d.rows[0] == ("0", None)
    assert d.domains["Y"] == ("1",)
    assert d.has_missing


def test_load_ragged_rows_error():
    with pytest.raises(DataError, match="line 3"):
        load_table(io.StringIO("X,Y\n0,1\n0\n"))


def test_load_empty_file_error():
    with pytest.raises(DataError, match="empty"):
        load_table(io.StringIO(""))


def test_load_duplicate_header_error():
    with pytest.raises(DataError, match="duplicate"):
        load_table(io.StringIO("X,X\n0,1\n"))


def test_load_from_path(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("A,B\n0,1\n")
    d = load_table(p)
    assert d.columns == ("A", "B")


# --- empirical joint ---------------------------------------------------------------


def test_empirical_joint_frequencies():
    d = load_table(io.StringIO("X,Y\n0,0\n0,0\n1,1\n1,1\n"))
    j = empirical_joint(d)
    assert j.prob({"X": "0", "Y": "0"}) == pytest.approx(0.5, abs=1e-15)
    assert j.prob({"X": "1", "Y": "1"}) == pytest.approx(0.5, abs=1e-15)


def test_empirical_joint_total_mass():
    r = gen.rng(41)
    for _ in range(20):
        m = gen.random_scm(r, 3, 3)
        d = sample(m, 500, seed=int(r.integers(0, 10_000)))
        j = empirical_joint(d)
        assert sum(j.mass.values()) == pytest.approx(1.0, abs=1e-12)


def test_empirical_joint_refuses_missing():
    d = load_table(io.StringIO("X,Y\n0,NA\n1,1\n"))
    with pytest.raises(MissingDataPresent):
        empirical_joint(d)


def test_empirical_joint_within_four_sigma_of_model():
    r = gen.rng(42)
    g = parse_graph("var X\nvar Y\nX -> Y")
    m = gen.scm_for_admg(g, r)
    n = 100_000
    d = sample(m, n, seed=4242)
    j_emp = empirical_joint(d)
    j_true = observational_joint(m)
    for key, p in j_true.mass.items():
        sigma = (p * (1 - p) / n) ** 0.5
        got = j_emp.mass.get(tuple(key), 0.0)
        assert abs(got - p) <= 4 * sigma


# --- plug-in ------------------------------------------------------------------------


def test_plug_in_marginal_frequency():
    d = load_table(io.StringIO("Y\n1\n1\n0\n1\n"))
    est = plug_in(parse_estimand("P(Y=1)"), d)
    assert est.value == pytest.approx(0.75, abs=1e-15)
    assert est.n == 4


def test_plug_in_equals_eval_on_empirical_joint():
    r = gen.rng(43)
    m = gen.scm_for_admg(BACKDOOR, r)
    d = sample(m, 2000, seed=9)
    e = parse_estimand("sum_{z} P(Y=1|X=0,z) * P(z)")
    a = plug_in(e, d).value
    b = eval_estimand(e, empirical_joint(d), {})
    assert a == b


def test_plug_in_adjustment_close_to_interventional_truth():
    r = gen.rng(44)
    m = gen.scm_for_admg(BACKDOOR, r)
    res = identify(BACKDOOR, parse_query("P(Y=1|do(X=1))"))
    assert isinstance(res, Identified)
    d = sample(m, 100_000, seed=77)
    est = plug_in(res.estimand, d)
    truth = observational_joint(intervene(m, {"X": "1"})).prob({"Y": "1"})
    assert abs(est.value - truth) < 0.01


def test_plug_in_names_empty_stratum():
    # stratum (X=1, Z=1) has no rows, so the z=1 term cannot be evaluated
    d = load_table(io.StringIO("X,Y,Z\n0,1,0\n1,1,0\n0,0,1\n0,1,1\n"))
    e = parse_estimand("sum_{z} P(Y=1|X=1,z) * P(z)")
    with pytest.raises(ConditioningOnZero, match="Z=1"):
        plug_in(e, d)


def test_plug_in_conditioning_on_zero_names_context():
    d = load_table(io.StringIO("X,Y\n0,1\n0,0\n"))
    with pytest.raises(ConditioningOnZero, match="X=1"):
        plug_in(parse_estimand("P(Y=1|X=1)"), d)


# --- bootstrap -----------------------------------------------------------------------


def test_bootstrap_deterministic_under_seed():
    r = gen.rng(45)
    m = gen.scm_for_admg(BACKDOOR, r)
    d = sample(m, 800, seed=11)
    e = parse_estimand("sum_{z} P(Y=1|X=1,z) * P(z)")
    e1 = bootstrap_interval(e, d, B=200, level=0.95, seed=5)
    e2 = bootstrap_interval(e, d, B=200, level=0.95, seed=5)
    assert e1 == e2
    e3 = bootstrap_interval(e, d, B=200, level=0.95, seed=6)
    assert e3.interval != e1.interval


def test_bootstrap_interval_contains_point():
    r = gen.rng(46)
    m = gen.scm_for_admg(BACKDOOR, r)
    d = sample(m, 500, seed=12)
    e = parse_estimand("P(Y=1|X=1)")
    est = bootstrap_interval(e, d, B=300, level=0.9, seed=1)
    lo, hi, level = est.interval
    assert lo <= est.value <= hi
    assert level == 0.9


def test_bootstrap_b_too_small():
    d = load_table(io.StringIO("X\n0\n1\n"))
    with pytest.raises(DataError, match="too small"):
        bootstrap_interval(parse_estimand("P(X=1)"), d, B=10)


def test_bootstrap_level_validated():
    d = load_table(io.StringIO("X\n0\n1\n"))
    with pytest.raises(DataError):
        bootstrap_interval(parse_estimand("P(X=1)"), d, B=100, level=1.5)


def test_bootstrap_degenerate_resamples_error():
    # a stratum with a single supporting row dies in many resamples
    rows = "\n".join(["0,0"] * 50 + ["1,1"])
    d = load_table(io.StringIO("X,Y\n" + rows))
    with pytest.raises(TooManyDegenerateResamples):
        bootstrap_interval(parse_estimand("P(Y=1|X=1)"), d, B=200, seed=3)


def test_bootstrap_coverage():
    # 95% interval should contain the exact estimand value in 90-99% of
    # simulated datasets
    r = gen.rng(47)
    m = gen.scm_for_admg(BACKDOOR, r)
    e = parse_estimand("sum_{z} P(Y=1|X=1,z) * P(z)")
    truth = eval_estimand(e, observational_joint(m), {})
    hits = 0
    runs = 500
    for i in range(runs):
        d = sample(m, 400, seed=10_000 + i)
        try:
            est = bootstrap_interval(e, d, B=199, level=0.95, seed=i)
        except (TooManyDegenerateResamples, ConditioningOnZero):
            continue
        lo, hi, _ = est.interval
        if lo - 1e-12 <= truth <= hi + 1e-12:
            hits += 1
    assert 0.90 * runs <= hits <= 0.99 * runs


def test_consistency_error_shrinks_with_n():
    r = gen.rng(48)
    m = gen.scm_for_admg(BACKDOOR, r)
    e = parse_estimand("sum_{z} P(Y=1|X=1,z) * P(z)")
    truth = eval_estimand(e, observational_joint(m), {})
    meds = []
    for n in (1000, 10_000, 100_000):
        errs = []
        for i in range(15):
            d = sample(m, n, seed=777 + 31 * i)
            errs.append(abs(plug_in(e, d).value - truth))
        meds.append(float(np.median(errs)))
    assert meds[2] <= meds[0]
    assert meds[2] < 0.01


# --- dataset type ----------------------------------------------------------------------


def test_dataset_validates_rectangularity():
    with pytest.raises(DataError):
        Dataset(("X", "Y"), (("0",),))


def test_dataset_needs_rows():
    with pytest.raises(DataError):
        Dataset(("X",), ())


LOAD_REFUSALS = {
    "empty file": ("", "empty file"),
    "empty header name": ("X,\n0,1\n", "empty column name in header"),
    "duplicate header": ("X,X\n0,1\n", "duplicate header names"),
    # blank lines count in line numbers
    "width mismatch": ("X,Y\n0,1\n\n0\n", "line 4: row has 1 cells, expected 2"),
    "ragged before empty": ("X,Y\n0, \n0\n", "line 3: row has 1 cells, expected 2"),
    # a ragged line is reported before a field the csv module refuses below it
    "ragged before malformed": (
        "X,Y\n0,1\n0\n" + "x" * 200_000 + ",1\n", "line 3: row has 1 cells, expected 2"
    ),
    "header only": ("X,Y\n", "no data rows"),
    "blank lines only": ("X,Y\n\n\n", "no data rows"),
    # blank lines do not count in row numbers
    "whitespace-only cell": ("X,Y\n\n0,1\n1, \n", "row 2 has an empty cell"),
}

DATASET_REFUSALS = {
    "duplicate columns": (("X", "X"), (("0", "1"),), "duplicate column names"),
    "no rows": (("X",), (), "dataset needs at least one row"),
    "width": (("X", "Y"), (("0", "1"), ("0",)), "row 2 has 1 cells, expected 2"),
    "empty cell": (("X", "Y"), (("0", "1"), (None, "")), "row 2 has an empty cell"),
    # the first bad row wins; within a row, width comes before empty cells
    "empty above ragged": (("X", "Y"), (("0", ""), ("1",)), "row 1 has an empty cell"),
    "ragged above empty": (
        ("X", "Y"), (("0", "1"), ("1",), ("", "")), "row 2 has 1 cells, expected 2"
    ),
    "ragged row with empty cell": (
        ("X", "Y"), (("", "", ""),), "row 1 has 3 cells, expected 2"
    ),
}


@pytest.mark.parametrize("text, message", LOAD_REFUSALS.values(), ids=LOAD_REFUSALS.keys())
def test_load_refusal_messages(text, message):
    with pytest.raises(DataError) as info:
        load_table(io.StringIO(text))
    assert str(info.value) == message


@pytest.mark.parametrize(
    "columns, rows, message", DATASET_REFUSALS.values(), ids=DATASET_REFUSALS.keys()
)
def test_dataset_refusal_messages(columns, rows, message):
    with pytest.raises(DataError) as info:
        Dataset(columns, rows)
    assert str(info.value) == message


# tokens of a generated CSV cell, common ones first: quoted fields (with a
# comma, an escaped quote, a line break), padding, NA, empty and blank cells,
# and a carriage return the csv module refuses outside quotes
CSV_TOKENS = ("0", "1", "2", " 1", "2 ", "NA", " NA ", '"0"', '"a,b"', '"x""y"',
              '"two\nlines"', "", " ", "b\rc")
CSV_WEIGHTS = np.array([30, 30, 20, 4, 4, 4, 2, 2, 1, 1, 1, 1, 1, 0.3])


def _csv_text(r) -> str:
    """A small CSV text; a few in a hundred hold a field past the csv
    module's limit, a ragged line, a byte-order mark or a bad header."""
    if r.random() < 0.01:
        return ""
    width = int(r.integers(1, 4))
    header = [f" C{j} " if r.random() < 0.2 else f"C{j}" for j in range(width)]
    if r.random() < 0.03:
        header[-1] = header[0] if r.random() < 0.5 else ""
    lines = [",".join(header)]
    for _ in range(int(r.integers(0, 25))):
        roll = r.random()
        if roll < 0.08:
            lines.append("")
            continue
        p = CSV_WEIGHTS / CSV_WEIGHTS.sum()
        cells = [str(t) for t in r.choice(CSV_TOKENS, size=width, p=p)]
        if roll > 0.993 and width > 1:
            cells.pop()
        elif roll > 0.985:
            cells.append("1")
        if r.random() < 0.004:
            cells[0] = "x" * (csv.field_size_limit() + 1)
        lines.append(",".join(cells))
    text = ("\r\n" if r.random() < 0.3 else "\n").join(lines)
    text += "\n" if r.random() < 0.7 else ""
    return "\ufeff" + text if r.random() < 0.1 else text


def _row_codes(d):
    """Each row's codes, read from a dataset's stored lists."""
    distinct = list(zip(*d._cols)) if d._cols else [()] * len(d._count)
    return [list(distinct[i]) for i in d._index]


def _read_outcome(read, source):
    try:
        d = read(source)
    except DataError as exc:
        return "refused", str(exc)
    codes = d.codes if read is gen.load_table_by_rows else _row_codes(d)
    return d.columns, d.domains, d.rows, codes


# bytes UTF-8 cannot decode there: a byte that starts no character, a
# continuation byte with no lead, a lead byte followed by ASCII, a surrogate,
# a lone lead byte
UNDECODABLE = (b"\xff", b"\x80", b"\xe2\x28", b"\xed\xa0\x80", b"\xc3")


def test_reader_agrees_with_row_by_row_oracle(tmp_path):
    r = gen.rng(91)
    kinds = Counter()
    for i in range(1500):
        text = _csv_text(r)
        if i % 2:
            path = tmp_path / f"{i}.csv"
            data = text.encode("utf-8")
            if r.random() < 0.15:  # one undecodable run of bytes, anywhere
                at = int(r.integers(0, len(data) + 1))
                data = data[:at] + UNDECODABLE[int(r.integers(0, len(UNDECODABLE)))] + data[at:]
            path.write_bytes(data)
            got = _read_outcome(load_table, path)
            want = _read_outcome(gen.load_table_by_rows, path)
        else:
            got = _read_outcome(load_table, io.StringIO(text))
            want = _read_outcome(gen.load_table_by_rows, io.StringIO(text))
        assert got == want, text[:300]
        kinds[re.sub(r"\d+", "N", want[1]) if want[0] == "refused" else "read"] += 1
    # every refusal the reader makes, and plenty of tables read
    assert kinds["read"] > 500
    assert {
        "empty file", "empty column name in header", "duplicate header names",
        "no data rows", "row N has an empty cell", "line N: row has N cells, expected N",
        "line N: field larger than field limit (N)",
        "line N: cannot decode byte Nxff as UTF-N: invalid start byte",
        "line N: cannot decode byte NxeN as UTF-N: invalid continuation byte",
    } <= set(kinds)
    assert any(k.startswith("line N: new-line character") for k in kinds)


def test_header_field_over_the_csv_limit_is_refused_with_its_line():
    wide = "x" * (csv.field_size_limit() + 1)
    limit = f"field larger than field limit ({csv.field_size_limit()})"
    for text, line in ((f"{wide},Y\n0,1\n", 1), (f'"a\nb",{wide}\n0,1\n', 2)):
        for read in (load_table, gen.load_table_by_rows):
            with pytest.raises(DataError) as info:
                read(io.StringIO(text))
            assert str(info.value) == f"line {line}: {limit}"


_WIDE = "x" * (csv.field_size_limit() + 1)
_LIMIT = f"field larger than field limit ({csv.field_size_limit()})"
_BULK = "".join(f"{i % 3},{i % 2}\n" for i in range(10_000))
# more distinct lines than the reader samples, so it reads them in file order
_DISTINCT = "".join(f"{i},{i % 2}\n" for i in range(2_000))

# texts whose lines the reader dedupes before the csv module reads them, or
# that hold a quote or start with mostly distinct lines and are read line by
# line; each with what reading it as a file gives: None for a table, or the
# refusal
ENDING_CASES = {
    "mixed endings": ("X,Y\r\n0,1\n1,0\r1,1\r\n0,0\n", None),
    "one record in three endings": ("X,Y\n0,1\n0,1\r\n0,1\r1,0\n0,1", None),
    "blank lines in three endings": ("X,Y\n\n0,1\r\n\r\n1,0\r\r0,1\n", None),
    "ragged behind repeated endings": (
        "X,Y\n0,1\r\n0,1\n0,1,1\r0,1\n", "line 4: row has 3 cells, expected 2"),
    "empty cell behind repeated endings": (
        "X,Y\n0,1\r\n\n0,1\n0,\r\n", "row 3 has an empty cell"),
    "NUL in a repeated line": (
        "X,Y\n0,\x001\n1,0\r\n0,\x001\n0,\x001\r\n", "line 2: line contains NUL"),
    "NUL in a repeated ragged line": (
        "X,Y\n0,1\n\x00,1,1\n0,1\n\x00,1,1\r\n", "line 3: line contains NUL"),
    "ragged before a NUL line": ("X,Y\n0,1,1\n\x00,1\n0,1\n", "line 2: row has 3 cells, expected 2"),
    "NUL in the header": ("X\x00,Y\n0,1\n", "line 1: line contains NUL"),
    "NUL after distinct lines": ("X,Y\n" + _DISTINCT + "0,1\n3,\x00\n", "line 2003: line contains NUL"),
    "NUL after a quoted line break": ('X,Y\n"0\n1",1\n1,\x00\n', "line 4: line contains NUL"),
    "malformed behind repeats": (
        f"X,Y\n0,1\n0,1\r\n{_WIDE},1\n0,1,1\n", f"line 4: {_LIMIT}"),
    "ragged before malformed": (
        f"X,Y\n0,1\n0,1,1\n0,1\r\n{_WIDE}\n", "line 3: row has 3 cells, expected 2"),
    "malformed repeated": (f"X,Y\n0,1\n{_WIDE}\n1,1\n{_WIDE}\n", f"line 3: {_LIMIT}"),
    "carriage return inside a line": ("X,Y\n0,1\nb\rc,1\n1,1\n", "line 3: row has 1 cells, expected 2"),
    "quote after 10,000 lines": ("X,Y\n" + _BULK + '"0",1\n0,1\r\n', None),
    "quoted line break after 10,000 lines": (
        "X,Y\n" + _BULK + '"0\n1",1\n2,2\n', None),
    "ragged after a late quote": (
        "X,Y\n" + _BULK + '"0",1\n1,1,1\n', "line 10003: row has 3 cells, expected 2"),
    "malformed after a late quote": (
        "X,Y\n" + _BULK + f'"0\n1",1\n{_WIDE},1\n', f"line 10004: {_LIMIT}"),
    "one record in three endings after distinct lines": (
        "X,Y\n" + _DISTINCT + "0,1\r\n0,1\r\n\n0,1", None),
    "ragged after distinct lines": (
        "X,Y\n" + _DISTINCT + "0,1\r\n0,1,1\n", "line 2003: row has 3 cells, expected 2"),
    "empty cell after distinct lines": (
        "X,Y\n\n" + _DISTINCT + "0,\r\n", "row 2001 has an empty cell"),
    "ragged before malformed after distinct lines": (
        "X,Y\n" + _DISTINCT + f"0,1,1\n{_WIDE}\n", "line 2002: row has 3 cells, expected 2"),
    "distinct lines after repeated ones": ("X,Y\n" + _BULK[:8_000] + _DISTINCT, None),
}


@pytest.mark.parametrize("text, refusal", ENDING_CASES.values(), ids=ENDING_CASES.keys())
def test_reader_agrees_with_row_by_row_oracle_on_endings_nuls_and_late_quotes(
    text, refusal, tmp_path
):
    path = tmp_path / "t.csv"
    path.write_text(text, encoding="utf-8", newline="")
    got = _read_outcome(load_table, path)
    assert got == _read_outcome(gen.load_table_by_rows, path)
    assert got[0] == "refused" if refusal else got[0] == ("X", "Y")
    if refusal:
        assert got[1] == refusal
    # a text stream splits lines at "\n" only, so "b\rc" is one malformed line
    stream = _read_outcome(load_table, io.StringIO(text))
    assert stream == _read_outcome(gen.load_table_by_rows, io.StringIO(text))


def test_reader_merges_lines_that_differ_only_in_their_ending(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("X,Y\n0,1\n0,1\r\n1,0\r0,1", encoding="utf-8", newline="")
    d = load_table(path)
    assert d.rows == (("0", "1"), ("0", "1"), ("1", "0"), ("0", "1"))
    assert d._count == [3, 1]


# past the first 8,192-byte chunk of the file, so the lines above it are read
_LATE_BYTE = b"0,1\n" * 5000 + b"\xff\n"


@pytest.mark.parametrize("head, refusal", [
    (b"X,Y\n", None),
    (b"X,X\n", "duplicate header names"),
    (b"X,Y\n0,1,1\n", None),
    (b"X,Y\n" + _WIDE.encode() + b",1\n", f"line 2: {_LIMIT}"),
    (b'X,Y\n"0",1\n', None),
    (b'X,Y\n"0",1\n' + _WIDE.encode() + b"\n", f"line 3: {_LIMIT}"),
    (b"X,Y\n" + _DISTINCT.encode() + b"0,1,1\n", None),
    (b"X,Y\n" + _DISTINCT.encode() + _WIDE.encode() + b"\n", f"line 2002: {_LIMIT}"),
], ids=["table", "bad header", "ragged line", "malformed line", "quoted", "quoted malformed",
        "ragged after distinct lines", "malformed after distinct lines"])
def test_undecodable_byte_is_met_where_the_csv_module_reads_it(head, refusal, tmp_path):
    # a refusal on the lines above the byte wins; otherwise the byte is
    # refused with its line, also past a ragged line, which is checked after
    # the whole read
    path = tmp_path / "bad.csv"
    path.write_bytes(head + _LATE_BYTE)
    with pytest.raises(DataError) as info:
        load_table(path)
    line = head.count(b"\n") + 5001
    assert str(info.value) == (
        refusal or f"line {line}: cannot decode byte 0xff as UTF-8: invalid start byte")
    assert _read_outcome(gen.load_table_by_rows, path) == ("refused", str(info.value))


_BAD_START = "cannot decode byte 0xff as UTF-8: invalid start byte"


@pytest.mark.parametrize("data, refusal", [
    (b"X,Y\n0,1\n\xff,1\n", f"line 3: {_BAD_START}"),
    (b"\xef\xbb\xbfX,Y\r\n0,1\r\n1,\xff\r\n", f"line 3: {_BAD_START}"),
    (b"X,Y\r0,1\r\r1,0\r\n\xff", f"line 5: {_BAD_START}"),
    (b"\xef\xbb\xbf\xff,Y\n0,1\n", f"line 1: {_BAD_START}"),
    (b"X,Y\n" + b"0,1\r\n" * 3000 + b"1,\xff\r\n", f"line 3002: {_BAD_START}"),
    (b"X,Y\n0,\xe2\x82",
     "line 2: cannot decode byte 0xe2 as UTF-8: unexpected end of data"),
], ids=["plain", "byte-order mark and CRLF", "CR endings", "header", "late CRLF",
        "truncated at the end"])
def test_undecodable_byte_is_refused_with_its_line(data, refusal, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(data)
    with pytest.raises(DataError) as info:
        load_table(path)
    assert str(info.value) == refusal
    assert _read_outcome(gen.load_table_by_rows, path) == ("refused", refusal)


@pytest.mark.parametrize("data, encoding, refusal", [
    (b"X,Y\n0,1\n\xff,1\n", "utf-8", "cannot decode byte 0xff as utf-8: invalid start byte"),
    (b"X,Y\n" + b"0,1\n" * 5000 + b"\xe2\x28,1\n", "utf-8",
     "cannot decode byte 0xe2 as utf-8: invalid continuation byte"),
    (b"X,Y\n0,1\n\x80,1\n", "ascii", "cannot decode byte 0x80 as ascii: ordinal not in range(128)"),
], ids=["short", "past the first chunk", "ascii"])
def test_undecodable_byte_in_a_text_stream_is_refused_without_its_line(data, encoding, refusal):
    # the stream's bytes cannot be read again to count the lines before it
    for read in (load_table, gen.load_table_by_rows):
        stream = io.TextIOWrapper(io.BytesIO(data), encoding, newline="")
        assert _read_outcome(read, stream) == ("refused", refusal)


def test_load_skips_blank_lines_and_strips_tokens():
    d = load_table(io.StringIO(" X , Y \n\n 0 , NA \n\n1 ,  10\n"))
    assert d.columns == ("X", "Y")
    assert d.rows == (("0", None), ("1", "10"))
    assert d.domains == {"X": ("0", "1"), "Y": ("10",)}


def test_dataset_distinct_rows_are_sorted_and_counted():
    d = load_table(io.StringIO("X,Y\n1,0\n0,NA\n1,0\n0,1\n0,NA\n1,0\n"))
    assert d._cols == ([0, 0, 1], [-1, 1, 0])
    assert d._count == [2, 1, 3]
    assert list(d._index) == [2, 0, 2, 1, 0, 2]


@pytest.mark.parametrize("copy_of", [
    lambda d: pickle.loads(pickle.dumps(d)), copy.deepcopy, copy.copy,
])
def test_dataset_copies_keep_codes_read_only(copy_of):
    d = load_table(io.StringIO("X,Y\n0,1\n1,NA\n0,1\n"))
    d.has_missing, d.rows  # cached views are not carried into the copy
    c = copy_of(d)
    assert (c.columns, c.domains, c._cols, c._count) == (d.columns, d.domains, d._cols, d._count)
    assert c._index == d._index and c._index.typecode == "q"
    assert "has_missing" not in vars(c) and "rows" not in vars(c)
    # a copy is frozen like the original: its code lists cannot be rebound
    with pytest.raises(dataclasses.FrozenInstanceError):
        c._cols = ()
    assert c.rows == d.rows and c.has_missing


def test_dataset_select_projects_columns():
    d = load_table(io.StringIO("X,Y,Z\n0,1,2\n"))
    assert d.select(("Z", "X")).columns == ("Z", "X")
    assert d.select(("Z", "X")).rows == (("2", "0"),)


def test_dataset_codes_index_domains():
    d = load_table(io.StringIO("X,Y,Z\nb,NA,0\na,1,NA\nc,10,NA\na,NA,0\n"))
    assert d.domains == {"X": ("a", "b", "c"), "Y": ("1", "10"), "Z": ("0",)}
    codes = _row_codes(d)
    assert codes == [[1, -1, 0], [0, 0, -1], [2, 1, -1], [0, -1, 0]]
    for row, row_codes in zip(d.rows, codes):
        for c, cell, code in zip(d.columns, row, row_codes):
            assert (cell is None) == (code == -1)
            assert cell is None or d.domains[c][code] == cell
    part = d.select(("Z", "X"))
    assert _row_codes(part) == [[row[2], row[0]] for row in codes]
    assert part.has_missing
    assert not d.select(("X",)).has_missing


# --- batched bootstrap against one evaluation per replicate ------------------------

FRONT_DOOR = parse_graph(
    "var W\nvar X\nvar M\nvar Y\nW -> X\nX -> M\nM -> Y\nW -> Y\nX <-> Y\n"
)


def _dataset(columns, codes):
    return Dataset(tuple(columns), tuple(tuple(str(c) for c in row) for row in codes))


def ternary_front_door_data(r, n):
    """W -> X -> M -> Y, W -> Y, with a hidden cause of X and Y."""

    def noise():
        return r.choice(3, n, p=[0.6, 0.3, 0.1])

    u = noise()
    w = noise()
    x = (w + u + noise()) % 3
    m = (x + noise()) % 3
    y = (m + w + u + noise()) % 3
    return _dataset("WXMY", np.stack([w, x, m, y], axis=1))


def sparse_backdoor_data(r, n, rare):
    """Binary Z, X, Y in which the stratum Z=1, X=1 holds ``rare`` rows."""
    z = (r.random(n) < 0.3).astype(int)
    x = np.where(z == 1, 0, r.integers(0, 2, n))
    x[np.flatnonzero(z == 1)[:rare]] = 1
    y = (r.random(n) < 0.3 + 0.4 * x).astype(int)
    return _dataset("ZXY", np.stack([z, x, y], axis=1))


def assert_matches_reference(e, d, B, seed, level=0.95):
    point, lo, hi, dropped = gen.bootstrap_by_replicate(e, d, {}, B, level, seed)
    est = bootstrap_interval(e, d, {}, B=B, level=level, seed=seed)
    assert est.value == pytest.approx(point, abs=1e-12)
    assert est.interval[0] == pytest.approx(lo, abs=1e-12)
    assert est.interval[1] == pytest.approx(hi, abs=1e-12)
    return dropped


def test_bootstrap_matches_reference_on_ternary_front_door():
    r = gen.rng(49)
    d = ternary_front_door_data(r, 3000)
    for k, query in enumerate(["P(Y=2|do(X=0))", "P(Y=1|do(X=2),W=0)"]):
        res = identify(FRONT_DOOR, parse_query(query))
        assert isinstance(res, Identified)
        assert assert_matches_reference(res.estimand, d, B=100, seed=k) == 0


def assert_refusal_matches_reference(e, d, B, seed):
    _, lo, _, dropped = gen.bootstrap_by_replicate(e, d, {}, B, 0.95, seed)
    assert lo is None
    with pytest.raises(TooManyDegenerateResamples) as info:
        bootstrap_interval(e, d, B=B, seed=seed)
    assert str(info.value) == f"{dropped} of {B} resamples hit an empty stratum"


def test_bootstrap_drops_match_reference():
    e = identify(BACKDOOR, parse_query("P(Y=1|do(X=1))")).estimand
    # a few dropped resamples: the rest give the interval
    d = sparse_backdoor_data(gen.rng(50), 300, rare=4)
    assert 0 < assert_matches_reference(e, d, B=200, seed=2) <= 20
    # too many dropped: the refusal names the same count
    d = sparse_backdoor_data(gen.rng(51), 300, rare=1)
    assert_refusal_matches_reference(e, d, B=200, seed=3)


def test_bootstrap_spans_several_blocks():
    e = identify(BACKDOOR, parse_query("P(Y=1|do(X=1))")).estimand
    d = sparse_backdoor_data(gen.rng(52), 400, rare=5)
    B = 2 * estimate_module.BOOTSTRAP_BLOCK + 37
    assert assert_matches_reference(e, d, B=B, seed=4) > 0


def test_bootstrap_blocks_of_one_replicate(monkeypatch):
    # every block whose replicates all hit an empty stratum is dropped whole
    monkeypatch.setattr(estimate_module, "BOOTSTRAP_BLOCK", 1)
    e = identify(BACKDOOR, parse_query("P(Y=1|do(X=1))")).estimand
    d = sparse_backdoor_data(gen.rng(50), 300, rare=4)
    assert assert_matches_reference(e, d, B=200, seed=2) > 0
    d = sparse_backdoor_data(gen.rng(51), 300, rare=1)
    assert_refusal_matches_reference(e, d, B=200, seed=3)


def test_bootstrap_quantiles_equal_numpy_bit_for_bit():
    # the interval's percentiles avoid np.quantile, which imports
    # numpy.ma; they must still be its values exactly
    r = gen.rng(53)
    for k in range(50_000):
        n = int(r.integers(1, 301))
        # every other array is drawn from five values, so ties are common
        values = r.random(n) if k % 2 else r.integers(0, 5, n) / 4.0
        lo_q = (1.0 - r.uniform(0.5, 0.99)) / 2.0
        levels = [lo_q, 1.0 - lo_q] + ([0.0, 0.5, 1.0] if k < 300 else [])
        want = [float(x).hex() for x in np.quantile(values, levels)]
        assert [x.hex() for x in estimate_module._quantiles(values, levels)] == want, k
