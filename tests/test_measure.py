"""Grid measures, the flat metric and pushforwards."""

import numpy as np
import pytest

import mfglab as M
from mfglab import errors
from mfglab.hjb import _grid_lipschitz
from mfglab.measure import _d1_lp


def grid1d(dx=0.025, lo=-2.0, hi=2.0):
    n = int(round((hi - lo) / dx)) + 1
    return M.GridSpec((lo,), (hi,), (n,), dx, 1.0, 3)


def random_measure(grid, rng):
    w = rng.random(grid.n_points)
    return M.GridMeasure(grid, w / w.sum())


def duality_gap_check(m1, m2, witness):
    """d_1(m1, m2) - (int w dm1 - int w dm2) for a 1-Lipschitz witness.

    Raises NotLipschitz when the witness violates the grid-edge Lipschitz
    bound.  The gap is nonnegative up to float error for any valid witness.
    """
    w = np.asarray(witness, dtype=float)
    if _grid_lipschitz(m1.grid, w) > 1 + 1e-9 + 1e-12:
        raise errors.NotLipschitz("witness exceeds slope 1 on a grid edge")
    pairing = float(np.dot(w, m1.weights - m2.weights))
    return M.wasserstein1(m1, m2) - pairing


# ---------------------------------------------------------------------------
# construction and invariants


def test_mass_and_validation():
    g = grid1d()
    m = M.GridMeasure.uniform_on(g, -1.0, 1.0)
    assert m.weights.sum() == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        M.GridMeasure(g, np.full(g.n_points, -1.0 / g.n_points))
    with pytest.raises(ValueError):
        M.GridMeasure(g, np.ones(g.n_points))  # mass far from 1


def test_dirac_support_and_moments():
    g = grid1d()
    m = M.GridMeasure.dirac(g, 0.5)
    assert list(m.support()) == [g.nearest_node(0.5)]
    assert m.mean() == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# Wasserstein-1: exact values, metric axioms, duality


def test_wasserstein_between_diracs():
    g = grid1d()
    d0 = M.GridMeasure.dirac(g, 0.0)
    d1 = M.GridMeasure.dirac(g, 1.0)
    assert M.wasserstein1(d0, d1) == pytest.approx(1.0, abs=1e-14)


def test_wasserstein_split_mass():
    # half the mass moves distance 1, the other half stays
    g = grid1d()
    d0 = M.GridMeasure.dirac(g, 0.0)
    d1 = M.GridMeasure.dirac(g, 1.0)
    half = M.GridMeasure(g, (d0.weights + d1.weights) / 2)
    assert M.wasserstein1(half, d0) == pytest.approx(0.5, abs=1e-14)


def test_wasserstein_uniform_to_dirac():
    # continuum value is E|X| = w/2 for the uniform law on [-w, w]
    g = grid1d()
    for w in (1.0, 0.5, 0.25):
        u = M.GridMeasure.uniform_on(g, -w, w)
        d = M.wasserstein1(u, M.GridMeasure.dirac(g, 0.0))
        assert d == pytest.approx(w / 2, abs=g.dx[0])
    # weak-* compatibility: the distance shrinks as the law concentrates
    dists = [M.wasserstein1(M.GridMeasure.uniform_on(g, -w, w),
                            M.GridMeasure.dirac(g, 0.0)) for w in (1.0, 0.5, 0.25)]
    assert dists[0] > dists[1] > dists[2]


def test_wasserstein_metric_axioms():
    g = grid1d()
    rng = np.random.default_rng(3)
    a, b, c = (random_measure(g, rng) for _ in range(3))
    assert M.wasserstein1(a, a) == 0.0
    assert M.wasserstein1(a, b) == pytest.approx(M.wasserstein1(b, a), abs=1e-15)
    assert M.wasserstein1(a, c) <= M.wasserstein1(a, b) + M.wasserstein1(b, c) + 1e-12


def test_duality_gap_with_cdf_potential():
    g = grid1d()
    rng = np.random.default_rng(3)
    a, b = random_measure(g, rng), random_measure(g, rng)
    phi = M.kantorovich_potential_1d(a, b)
    slopes = np.abs(np.diff(phi)) / g.dx[0]
    assert slopes.max() <= 1.0 + 1e-9
    gap = duality_gap_check(a, b, phi)
    assert -1e-12 <= gap <= 1e-9


def test_duality_rejects_steep_witness():
    g = grid1d()
    rng = np.random.default_rng(4)
    a, b = random_measure(g, rng), random_measure(g, rng)
    with pytest.raises(errors.NotLipschitz):
        duality_gap_check(a, b, 2.0 * g.axes[0])


# ---------------------------------------------------------------------------
# pushforward


def test_pushforward_halving_map():
    g = grid1d()
    u = M.GridMeasure.uniform_on(g, -1.0, 1.0)
    ph = M.pushforward(u, lambda x: x / 2.0)
    assert ph.weights.sum() == pytest.approx(1.0, abs=1e-14)
    assert ph.mean() == pytest.approx(u.mean() / 2.0, abs=1e-12)
    # multilinear deposition is 1-Lipschitz against the flat metric:
    # d1(T#m, m) <= max |T(x) - x| = 0.5 on the support
    assert M.wasserstein1(ph, u) <= 0.5 + 1e-12


def test_pushforward_escaping_map_raises():
    g = grid1d()
    u = M.GridMeasure.uniform_on(g, -1.0, 1.0)
    with pytest.raises(errors.EscapedBox):
        M.pushforward(u, lambda x: x + 100.0)


# ---------------------------------------------------------------------------
# two dimensions: the LP route agrees with the 1-D CDF route


def grid2d(dx=0.1, lo=-2.0, hi=2.0):
    n = int(round((hi - lo) / dx)) + 1
    return M.GridSpec((lo, lo), (hi, hi), (n, n), dx, 1.0, 3)


def test_wasserstein_2d_diracs():
    g2 = grid2d()
    e00 = M.GridMeasure.dirac(g2, (0.0, 0.0))
    e10 = M.GridMeasure.dirac(g2, (1.0, 0.0))
    e01 = M.GridMeasure.dirac(g2, (0.0, 1.0))
    mix = M.GridMeasure(g2, (e10.weights + e01.weights) / 2)
    assert M.wasserstein1(e00, e10) == pytest.approx(1.0, abs=1e-9)
    assert M.wasserstein1(e00, mix) == pytest.approx(1.0, abs=1e-9)


def test_wasserstein_2d_matches_1d_on_axis():
    g2 = grid2d()
    g1 = grid1d(dx=0.1)

    def lift(m1d):
        w = np.zeros(g2.n_points)
        for i, x in enumerate(g1.points):
            w[g2.nearest_node((*x, 0.0))] += m1d.weights[i]
        return M.GridMeasure(g2, w)

    rng = np.random.default_rng(5)
    a, b = random_measure(g1, rng), random_measure(g1, rng)
    d1 = M.wasserstein1(a, b)
    d2 = M.wasserstein1(lift(a), lift(b))
    assert d2 == pytest.approx(d1, abs=1e-9)


def test_wasserstein_2d_support_cap():
    g2 = grid2d(dx=0.05)  # 81 x 81 = 6561 nodes > the LP support cap
    w = np.ones(g2.n_points) / g2.n_points
    a = M.GridMeasure(g2, w)
    with pytest.raises(errors.SupportTooLarge):
        M.wasserstein1(a, M.GridMeasure.dirac(g2, (0.0, 0.0)))


# One row of a fictitious-play gap on bench/ri2.json refined to dx = dt = 0.1
# (61x61 nodes, v_max 3, 31 velocities): 60 sources, 9 sinks, each part of
# mass 0.0294983, smallest entry 9.4e-8.  HiGHS called its transport LP
# infeasible until blocks were scaled to unit mass.
FAILING_ROW = {  # node index -> mu - nu
    1612: 9.674981103554697e-08, 1613: 6.0983340891920325e-06, 1614: 9.365381708248219e-08,
    1618: 9.365381708248219e-08, 1619: 6.098334089190691e-06, 1620: 9.674981103554703e-08,
    1673: 6.0983340891920325e-06, 1674: 0.000855303775857982, 1675: 0.0009978903998600144,
    1676: 0.0004185618780294014, 1677: 0.0003193214955504505, 1678: 0.0004185618780293988,
    1679: 0.000997890399860011, 1680: 0.0008553037758579872, 1681: 6.098334089194204e-06,
    1734: 9.365381708248213e-08, 1735: 0.000997890399860018, 1736: 0.00206838000664716,
    1737: 0.00038561704977037314, 1738: 0.0005149566493349855, 1739: 0.0003856170497703697,
    1740: 0.0020683800066471567, 1741: 0.0009978903998600248, 1742: 9.365381708300205e-08,
    1796: 0.00041856187802940224, 1797: 0.0003856170497703766, 1798: -0.002677547020499757,
    1799: -0.0032840239319805384, 1800: -0.0026775470204997674, 1801: 0.0003856170497703766,
    1802: 0.0004185618780294092, 1857: 0.0003193214955504505, 1858: 0.0005149566493349786,
    1859: -0.0032840239319805384, 1860: -0.005652041423413717, 1861: -0.0032840239319805453,
    1862: 0.0005149566493349786, 1863: 0.0003193214955504609, 1918: 0.0004185618780293979,
    1919: 0.00038561704977037314, 1920: -0.0026775470204997674,
    1921: -0.0032840239319805453, 1922: -0.002677547020499778, 1923: 0.0003856170497703662,
    1924: 0.00041856187802940745, 1978: 9.365381708248213e-08, 1979: 0.0009978903998600092,
    1980: 0.00206838000664716, 1981: 0.00038561704977037314, 1982: 0.0005149566493349786,
    1983: 0.0003856170497703662, 1984: 0.0020683800066471497, 1985: 0.000997890399860023,
    1986: 9.365381708300205e-08, 2039: 6.098334089190691e-06, 2040: 0.0008553037758579881,
    2041: 0.000997890399860023, 2042: 0.0004185618780294092, 2043: 0.0003193214955504609,
    2044: 0.00041856187802940745, 2045: 0.000997890399860023, 2046: 0.0008553037758579924,
    2047: 6.098334089194157e-06, 2100: 9.674981103554697e-08, 2101: 6.0983340891941976e-06,
    2102: 9.365381708300205e-08, 2106: 9.365381708300205e-08, 2107: 6.098334089194157e-06,
    2108: 9.674981103558991e-08
}


def test_d1_lp_solves_a_row_with_small_total_mass():
    g = M.GridSpec((-3.0, -3.0), (3.0, 3.0), (61, 61), 0.1, 3.0, 31)
    row = np.zeros(g.n_points)
    row[list(FAILING_ROW)] = list(FAILING_ROW.values())
    assert _d1_lp(g, row) == pytest.approx(0.0065651676269311, rel=1e-12)


def test_d1_lp_solves_a_row_whose_parts_differ_by_rounding():
    # a row of W_{k+1} - W_k late in a theta = 0.5 solve on a 9x9 grid: its
    # parts hold 2.0489e-10 each but differ by 4e-17, which is 2e-7 of that
    # mass; one sink, so the plan is forced and d_1 has a closed form
    g = grid2d(dx=0.5)
    row = np.zeros(g.n_points)
    edge, corner = 4.6566125955216364e-11, 4.656611901632246e-12
    row[[31, 39, 41, 49]] = edge
    row[[30, 32, 48, 50]] = corner
    row[40] = -2.0489099306075786e-10
    src = np.flatnonzero(row > 0)
    want = row[src] @ np.linalg.norm(g.points[src] - g.points[40], axis=1)
    assert _d1_lp(g, row) == pytest.approx(want, rel=1e-6)
