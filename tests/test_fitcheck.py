import io
import math
import sys
import tracemalloc

import pytest

import gen
from scmkit.estimate import DataError, Dataset, MissingDataPresent, load_table
from scmkit.fitcheck import _chi2_sf, fit_indices, g_squared_ci, render_fit_report
from scmkit.graph import parse_graph
from scmkit.scm import parse_scm, sample

BACKDOOR = parse_graph("var X\nvar Y\nvar Z\nZ -> X\nZ -> Y\nX -> Y\n")
CHAIN = parse_graph("var X\nvar Y\nvar Z\nX -> Z\nZ -> Y\n")


def chain_scm(noise_m=0.15, noise_y=0.2):
    """X -> Z -> Y with XOR noise; Z -> Y strong, X only through Z."""
    lines = [
        "exo UX {0: 0.5, 1: 0.5}",
        f"exo UZ {{0: {1 - noise_m}, 1: {noise_m}}}",
        f"exo UY {{0: {1 - noise_y}, 1: {noise_y}}}",
        "endo X (UX) {(0) -> 0, (1) -> 1}",
        "endo Z (X, UZ) {(0,0) -> 0, (0,1) -> 1, (1,0) -> 1, (1,1) -> 0}",
        "endo Y (Z, UY) {(0,0) -> 0, (0,1) -> 1, (1,0) -> 1, (1,1) -> 0}",
    ]
    return parse_scm("\n".join(lines))


def direct_effect_scm(flip=0.25):
    """Chain plus a direct X -> Y edge of adjustable strength."""
    lines = [
        "exo UX {0: 0.5, 1: 0.5}",
        "exo UZ {0: 0.8, 1: 0.2}",
        f"exo UY {{0: {1 - flip}, 1: {flip}}}",
        "endo X (UX) {(0) -> 0, (1) -> 1}",
        "endo Z (X, UZ) {(0,0) -> 0, (0,1) -> 1, (1,0) -> 1, (1,1) -> 0}",
        # Y = X OR (Z xor UY): depends on X directly
        "endo Y (X, Z, UY) {(0,0,0) -> 0, (0,0,1) -> 1, (0,1,0) -> 1, (0,1,1) -> 0,"
        " (1,0,0) -> 1, (1,0,1) -> 1, (1,1,0) -> 1, (1,1,1) -> 1}",
    ]
    return parse_scm("\n".join(lines))


# --- G-squared core -------------------------------------------------------------


def test_g_squared_hand_computed():
    # one stratum, 2x2 table: counts [[30, 10], [10, 30]]
    rows = (
        ["0,0"] * 30 + ["0,1"] * 10 + ["1,0"] * 10 + ["1,1"] * 30
    )
    d = load_table(io.StringIO("U,V\n" + "\n".join(rows)))
    stat, dof, p, used, pooled = g_squared_ci(d, "U", "V", ())
    expected = 0.0
    for o, r, c in ((30, 40, 40), (10, 40, 40), (10, 40, 40), (30, 40, 40)):
        e = r * c / 80
        expected += 2 * o * math.log(o / e)
    assert stat == pytest.approx(expected, abs=1e-12)
    assert dof == 1
    assert used == 1 and pooled == 0
    # one degree of freedom: P(chi2 > x) = erfc(sqrt(x / 2))
    assert p == pytest.approx(math.erfc(math.sqrt(expected / 2)), abs=1e-15)


def test_chi2_tail_matches_scipy():
    chi2 = pytest.importorskip("scipy.stats").chi2
    stats = [0.01 * (400 / 0.01) ** (k / 99) for k in range(100)]
    for dof in range(1, 121):
        for x in stats:
            want = float(chi2.sf(x, dof))
            assert _chi2_sf(x, dof) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_chi2_tail_wide_dof_matches_full_series():
    # the dof of the 300 x 300-value, 10-stratum G2 test below, around its
    # median and in both tails; odd and even dof take different series
    for dof in (894_010, 894_011):
        for f in (0.99, 0.998, 1.0, 1.002, 1.01, 1.05):
            want = gen.chi2_sf_by_series(dof * f, dof)
            assert _chi2_sf(dof * f, dof) == pytest.approx(want, rel=1e-12, abs=0.0)
    for dof in range(1, 60):
        for x in (0.3, 5.0, 41.0, 170.0):
            want = gen.chi2_sf_by_series(x, dof)
            assert _chi2_sf(x, dof) == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("dof", [1001, 894_010, 5_000_000])
def test_chi2_tail_matches_mpmath_at_wide_dof(dof):
    mpmath = pytest.importorskip("mpmath")
    for f in (0.99, 0.998, 1.0, 1.002, 1.01):
        with mpmath.workdps(40):
            want = mpmath.gammainc(mpmath.mpf(dof) / 2, mpmath.mpf(dof * f) / 2,
                                   regularized=True)
        assert _chi2_sf(dof * f, dof) == pytest.approx(float(want), rel=1e-12, abs=0.0)


def test_chi2_tail_work_grows_with_the_statistic_not_dof():
    lines = 0

    def counting(frame, event, arg):
        nonlocal lines
        if frame.f_code is _chi2_sf.__code__:
            lines += event == "line"
            return counting
        return None

    before = sys.gettrace()
    for f in (0.99, 1.0, 1.01, 2.0):
        lines = 0
        sys.settrace(counting)
        try:
            p = _chi2_sf(5_000_000 * f, 5_000_000)
        finally:
            sys.settrace(before)
        assert 0.0 <= p <= 1.0
        # summed outward from the largest term, near j = x/2, until terms no
        # longer change the sum: at most about 12 sqrt(x) terms (27k here) of
        # four lines each; the full series has 2,500,000 terms
        assert 0 < lines < 150_000


def test_chi2_tail_edges():
    assert _chi2_sf(0.0, 3) == 1.0
    # even dof = 2: P(chi2 > x) = exp(-x / 2)
    assert _chi2_sf(3.0, 2) == pytest.approx(math.exp(-1.5), rel=1e-15)
    # far beyond where exp(-x/2) underflows the tail sits near its median
    assert 0.45 < _chi2_sf(2000.0, 2000) < 0.55
    assert _chi2_sf(1e5, 4) == 0.0


def test_g_squared_pools_small_strata():
    rows = ["0,0,0"] * 20 + ["1,1,0"] * 20 + ["0,1,1", "1,0,1"]  # stratum Z=1 has 2 rows
    d = load_table(io.StringIO("U,V,Z\n" + "\n".join(rows)))
    stat, dof, p, used, pooled = g_squared_ci(d, "U", "V", ("Z",))
    assert used == 1
    assert pooled == 1
    assert dof == 1


def test_g_squared_matches_row_scan_reference():
    # few rows over many strata, so small strata get pooled out
    r = gen.rng(71)
    names = ("A", "B", "C", "D")
    seen_pooled = seen_empty_given = False
    for _ in range(120):
        sizes = r.integers(1, 4, size=len(names))
        n = int(r.integers(1, 300))
        rows = tuple(
            tuple(str(int(r.integers(0, k))) for k in sizes) for _ in range(n)
        )
        d = Dataset(names, rows)
        u, v = (str(c) for c in r.choice(names, size=2, replace=False))
        given = tuple(c for c in names if c not in (u, v) and r.random() < 0.6)
        stat, dof, p, used, pooled = g_squared_ci(d, u, v, given)
        want = gen.g_squared_by_rows(d, u, v, given)
        assert stat == pytest.approx(want[0], rel=1e-12)
        assert (dof, used, pooled) == (want[1], want[3], want[4])
        assert p == pytest.approx(want[2], rel=1e-9)
        seen_pooled |= pooled > 0 and used > 0
        seen_empty_given |= not given
    assert seen_pooled and seen_empty_given


def test_g_squared_memory_follows_rows_not_domains():
    # 300 x 300 values over 10 strata: a dense (strata, |u|, |v|) table of
    # counts would take 7.2 MB for 6000 rows
    r = gen.rng(73)
    rows = tuple(
        (str(int(r.integers(0, 300))), str(int(r.integers(0, 300))),
         str(int(r.integers(0, 10))))
        for _ in range(6000)
    )
    d = Dataset(("U", "V", "Z"), rows)
    assert (d.n, len(d._cols)) == (6000, 3)  # encoded before the measurement
    tracemalloc.start()
    try:
        stat, dof, p, used, pooled = g_squared_ci(d, "U", "V", ("Z",))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    want = gen.g_squared_by_rows(d, "U", "V", ("Z",))
    assert stat == pytest.approx(want[0], rel=1e-12)
    assert (dof, used, pooled) == (want[1], want[3], want[4])
    assert dof == 10 * 299 * 299
    assert peak < 2_000_000


def test_g_squared_refuses_missing_cells():
    # X is 30% missing: counted as a category it would be a 3x2 table
    # reported with one degree of freedom
    r = gen.rng(72)
    rows = tuple(
        (None if r.random() < 0.3 else str(int(r.integers(0, 2))),
         str(int(r.integers(0, 2))),
         str(int(r.integers(0, 2))))
        for _ in range(2000)
    )
    d = Dataset(("X", "Y", "Z"), rows)
    for u, v, given in (("X", "Y", ()), ("Y", "X", ()), ("Y", "Z", ("X",))):
        with pytest.raises(MissingDataPresent, match="^column X has missing cells"):
            g_squared_ci(d, u, v, given)
    stat, dof, _, _, _ = g_squared_ci(d, "Y", "Z", ())  # X is not tested here
    assert dof == 1 and stat == pytest.approx(gen.g_squared_by_rows(d, "Y", "Z", ())[0])


def test_g_squared_zero_when_independent_counts():
    rows = ["0,0"] * 25 + ["0,1"] * 25 + ["1,0"] * 25 + ["1,1"] * 25
    d = load_table(io.StringIO("U,V\n" + "\n".join(rows)))
    stat, dof, p, _, _ = g_squared_ci(d, "U", "V", ())
    assert stat == pytest.approx(0.0, abs=1e-12)
    assert p == pytest.approx(1.0, abs=1e-12)


# --- fit indices -----------------------------------------------------------------


def test_complete_graph_reports_null():
    d = load_table(io.StringIO("X,Y,Z\n0,0,0\n1,1,1\n"))
    report = fit_indices(BACKDOOR, d)
    assert report.null
    assert render_fit_report(report) == "NULL"
    assert render_fit_report(report, porcelain=True) == "NULL"


def test_compatible_chain_data_passes():
    m = chain_scm()
    d = sample(m, 100_000, seed=31)
    report = fit_indices(CHAIN, d, alpha=0.05)
    assert len(report.entries) == 1
    entry = report.entries[0]
    assert entry.statement.render() == "X _||_ Y | Z"
    assert entry.p_value > 0.05
    assert not entry.rejected


def test_direct_edge_detected():
    m = direct_effect_scm()
    d = sample(m, 100_000, seed=32)
    report = fit_indices(CHAIN, d, alpha=0.05)
    assert report.entries[0].p_value < 1e-3
    assert report.entries[0].rejected


def test_monotone_power_in_effect_size():
    # rejection rate grows along a 3-point grid of direct-effect strength
    rates = []
    for strength, base_seed in ((0.0, 100), (0.5, 200), (1.0, 300)):
        rejections = 0
        runs = 60
        for i in range(runs):
            if strength == 0.0:
                m = chain_scm()
            else:
                # interpolate: direct effect only fires when UY says so
                flip = 0.5 * strength
                lines = [
                    "exo UX {0: 0.5, 1: 0.5}",
                    "exo UZ {0: 0.8, 1: 0.2}",
                    f"exo UD {{0: {1 - flip}, 1: {flip}}}",
                    "endo X (UX) {(0) -> 0, (1) -> 1}",
                    "endo Z (X, UZ) {(0,0) -> 0, (0,1) -> 1, (1,0) -> 1, (1,1) -> 0}",
                    "endo Y (X, Z, UD) {(0,0,0) -> 0, (0,0,1) -> 0, (0,1,0) -> 1,"
                    " (0,1,1) -> 1, (1,0,0) -> 0, (1,0,1) -> 1, (1,1,0) -> 1, (1,1,1) -> 1}",
                ]
                m = parse_scm("\n".join(lines))
            d = sample(m, 4000, seed=base_seed + i)
            report = fit_indices(CHAIN, d, alpha=0.05)
            if report.entries[0].rejected:
                rejections += 1
        rates.append(rejections / runs)
    assert rates[0] <= rates[1] <= rates[2] or (rates[0] < 0.12 and rates[2] > 0.9)
    assert rates[2] > rates[0]


def test_missing_data_refused():
    d = load_table(io.StringIO("X,Y,Z\n0,NA,0\n1,1,1\n"))
    with pytest.raises(MissingDataPresent):
        fit_indices(CHAIN, d)


def test_dataset_must_cover_graph():
    d = load_table(io.StringIO("X,Y\n0,0\n"))
    with pytest.raises(DataError, match="lacks graph columns"):
        fit_indices(CHAIN, d)


def test_bonferroni_flag_scales_cutoff():
    g = parse_graph("var A\nvar B\nvar C\nvar D\n")  # edgeless: 6 statements
    rows = ["0,0,0,0", "1,1,1,1", "0,1,0,1", "1,0,1,0"] * 10
    d = load_table(io.StringIO("A,B,C,D\n" + "\n".join(rows)))
    plain = fit_indices(g, d, alpha=0.05)
    bonf = fit_indices(g, d, alpha=0.05, bonferroni=True)
    assert len(plain.entries) == 6
    for p_entry, b_entry in zip(plain.entries, bonf.entries):
        assert b_entry.rejected == (b_entry.p_value < 0.05 / 6)
        assert p_entry.rejected == (p_entry.p_value < 0.05)


def test_report_order_follows_testable_implications():
    g = parse_graph("var A\nvar B\nvar C\n")
    rows = ["0,0,0", "1,1,1", "0,1,0", "1,0,1"] * 5
    d = load_table(io.StringIO("A,B,C\n" + "\n".join(rows)))
    report = fit_indices(g, d)
    rendered = [e.statement.render() for e in report.entries]
    assert rendered == ["A _||_ B", "A _||_ C", "B _||_ C"]


def test_porcelain_format():
    g = CHAIN
    m = chain_scm()
    d = sample(m, 5000, seed=33)
    report = fit_indices(g, d)
    line = render_fit_report(report, porcelain=True)
    ci, stat, dof, p = line.split("\t")
    assert ci == "X _||_ Y | Z"
    assert int(dof) >= 1
    float(stat), float(p)
