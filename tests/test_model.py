"""Lagrangian models, the Legendre transform, and the standing-assumption checks."""

import re
from collections import Counter

import numpy as np
import pytest

import mfglab as M
from mfglab import errors


def grid1d(dx=0.02, dt=0.02, lo=-4.0, hi=4.0, v_max=4.0):
    n = int(round((hi - lo) / dx)) + 1
    vn = int(round(2 * v_max / dx)) + 1
    return M.GridSpec((lo,), (hi,), (n,), dt, v_max, vn)


# ---------------------------------------------------------------------------
# Legendre transform


def test_legendre_pure_kinetic():
    # sup_v (p v - v^2/2) = p^2/2, attained at v = p
    L = M.quadratic_kinetic()
    g = grid1d()
    H, v = M.legendre_transform(L, np.zeros(1), 1.0, g)
    assert H == pytest.approx(0.5, abs=1e-10)
    assert v == pytest.approx(1.0, abs=1e-8)


def test_legendre_with_potential():
    # L = v^2/2 + phi(x)  =>  H(x, p) = p^2/2 - phi(x)
    L = M.quadratic_kinetic(potential=lambda x: -np.exp(-(x ** 2).sum(-1)), C3=1.0)
    g = grid1d()
    H, _ = M.legendre_transform(L, np.zeros(1), 1.0, g)
    assert H == pytest.approx(1.5, abs=1e-10)


def test_legendre_matches_brute_force():
    L = M.quadratic_kinetic(potential=lambda x: 0.3 * np.cos(x).sum(-1), C3=0.3)
    g = grid1d()
    for x, p in ((0.7, -1.3), (-2.1, 0.45), (1.0, 2.0)):
        H, _ = M.legendre_transform(L, np.array([x]), p, g)
        brute = np.max(g.velocities @ [p] - L.eval(np.full_like(g.velocities, x), g.velocities))
        assert H >= brute - 1e-12  # refinement only improves the grid sup
        assert H == pytest.approx(brute, abs=1e-3)


def test_legendre_reversible_symmetry():
    L = M.quadratic_kinetic(potential=lambda x: -np.exp(-(x ** 2).sum(-1)), C3=1.0)
    g = grid1d()
    for x in ([-1.2], [0.0], [0.6]):
        x = np.array(x)
        Hp, _ = M.legendre_transform(L, x, 0.8, g)
        Hm, _ = M.legendre_transform(L, x, -0.8, g)
        assert Hp == pytest.approx(Hm, abs=1e-12)


def test_legendre_prefers_the_refined_vertex_on_a_tie():
    # the vertex ties the grid velocity (4.396..., 0) in H, which is 5.9e-10 off p
    g = M.GridSpec([-1.0, -1.0], [1.0, 1.0], [3, 3], 0.1, 4.945548304054752, 37)
    p = np.array([4.396042936937556, 5.885881954918945e-10])
    H, v = M.legendre_transform(M.quadratic_kinetic(), np.zeros(2), p, g)
    sq = float(p @ p)
    assert abs(H - 0.5 * sq) <= 1e-12 * (1.0 + sq)
    np.testing.assert_allclose(v, p, rtol=0, atol=1e-12 * (1.0 + sq))


def test_legendre_maximizer_on_boundary():
    g = grid1d(v_max=0.5)
    L = M.quadratic_kinetic()
    with pytest.raises(errors.MaximizerOnBoundary):
        M.legendre_transform(L, np.zeros(1), 3.0, g)  # wants v = 3 > v_max


@pytest.mark.parametrize("dim, x", [(1, 0.0), (1, np.zeros((1, 1))), (2, np.zeros(1)),
                                    (2, np.zeros(3))])
def test_legendre_names_the_point_shape(dim, x):
    g = M.GridSpec((-1.0,) * dim, (1.0,) * dim, (5,) * dim, 0.5, 1.0, 5)
    want = f"a point on a {dim}-D grid is an array of shape ({dim},), got shape {np.shape(x)}"
    with pytest.raises(ValueError, match=re.escape(want)):
        M.legendre_transform(M.quadratic_kinetic(), x, np.full(dim, 0.5), g)


# ---------------------------------------------------------------------------
# strict Tonelli check


def test_tonelli_reference_instance(ri1):
    rep = M.check_strict_tonelli(ri1.L, ri1.grid)
    assert rep.passed
    assert rep.violations == []
    # derived growth constants: alpha = C3 + C1, beta = C1/2 + C3
    assert rep.alpha == pytest.approx(ri1.L.C3 + ri1.L.C1)
    assert rep.beta == pytest.approx(ri1.L.C1 / 2 + ri1.L.C3)


def grid2d(nodes=25):
    return M.GridSpec((-3.0, -3.0), (3.0, 3.0), (nodes, nodes), 0.25, 4.0, 17)


# L = v^4 has L_vv = 12 v^2: zero at v = 0, unbounded at large v
QUARTIC = M.LagrangianModel(lambda x, v: (v ** 4).sum(-1), C1=1.0, C2=1.0, C3=0.0)
# the mixed Hessian of 0.9 x.v is 0.9 I, above C2 (1 + |v|) = 0.1 (1 + |v|)
DRIFT = M.LagrangianModel(lambda x, v: (0.5 * v ** 2 + 0.9 * x * v).sum(-1),
                          C1=1.0, C2=0.1, C3=1.0)
# |L(x, 0)| + |D_x L(x, 0)| is (1 + 2 sqrt 2) e^-2 = 0.52 at the samples x = (+-1, +-1)
WELL = M.quadratic_kinetic(potential=lambda p: -np.exp(-(p ** 2).sum(-1)), C3=0.5)
# a NaN C3 fails the data bound at every sample x, and the growth bounds built on it
NAN_C3 = M.LagrangianModel(lambda x, v: 0.5 * (v ** 2).sum(-1), C1=1.0, C2=1.0, C3=np.nan)


@pytest.mark.parametrize("L, grid, violations, flags", [
    (QUARTIC, grid1d(), {"vv_bounds": 63}, {"energy_growth": 36, "dv_growth": 54}),
    (QUARTIC, grid2d(), {"vv_bounds": 144}, {"energy_growth": 128, "dv_growth": 128}),
    (DRIFT, grid1d(), {"vx_bound": 63, "c3_bound": 6}, {"energy_growth": 16, "dv_growth": 6}),
    (DRIFT, grid2d(), {"vx_bound": 144, "c3_bound": 16},
     {"energy_growth": 28, "dv_growth": 12}),
    (WELL, grid2d(), {"c3_bound": 4}, {}),
    (NAN_C3, grid1d(), {"c3_bound": 9}, {"energy_growth": 63}),
], ids=["quartic-1d", "quartic-2d", "drift-1d", "drift-2d", "well-2d", "nan-c3-1d"])
def test_tonelli_report_kinds(L, grid, violations, flags):
    rep = M.check_strict_tonelli(L, grid)
    assert not rep.passed
    assert Counter(v[0] for v in rep.violations) == violations
    assert Counter(f[0] for f in rep.growth_flags) == flags
    # entries run over the sample x, then the sample v, in the grid's point shape
    for entries in (rep.violations, rep.growth_flags):
        for e in entries:
            assert np.shape(e[1]) == grid.points.shape[1:]
        xs = [tuple(np.atleast_1d(e[1])) for e in entries]
        assert xs == sorted(xs)
    # the v = 0 data bound does not depend on v: one c3_bound entry per sample x
    c3_xs = [tuple(np.atleast_1d(e[1])) for e in rep.violations if e[0] == "c3_bound"]
    assert len(c3_xs) == len(set(c3_xs))


def test_tonelli_entries_carry_the_finite_difference_values():
    # sum v_i^4 has D^2_vv L = diag(12 v_i^2) up to the 2 h^2 of the stencil
    for grid in (grid1d(), grid2d()):
        for _, _, v, lo, hi in M.check_strict_tonelli(QUARTIC, grid).violations:
            v2 = np.atleast_1d(v) ** 2
            assert (lo, hi) == pytest.approx((12 * v2.min(), 12 * v2.max()), rel=1e-6, abs=1e-5)
    # 0.9 x_0 v_1 has the mixed Hessian [[0, 0], [0.9, 0]], of spectral norm 0.9
    shear = M.LagrangianModel(
        lambda x, v: 0.5 * (np.asarray(v) ** 2).sum(axis=-1) + 0.9 * x[..., 0] * v[..., 1],
        C1=1.0, C2=0.1, C3=1.0)
    mixed = [e for e in M.check_strict_tonelli(shear, grid2d()).violations if e[0] == "vx_bound"]
    assert len(mixed) == 144
    for _, _, v, norm, bound in mixed:
        assert norm == pytest.approx(0.9, rel=1e-6)
        assert bound == pytest.approx(0.1 * (1 + np.hypot(*v)))


def test_tonelli_check_calls_L_once_per_stencil_offset():
    # the gate evaluates L on all sample pairs at once, whatever the grid size
    calls = []

    def kinetic(x, v):
        calls.append(np.shape(v))
        return 0.5 * (np.asarray(v) ** 2).sum(axis=-1)

    L = M.LagrangianModel(kinetic, C1=1.0, C2=1.0, C3=1.0)
    counts = []
    for nodes in (5, 25):
        calls.clear()
        assert M.check_strict_tonelli(L, grid2d(nodes)).passed
        counts.append(len(calls))
        assert set(calls) == {(16, 9, 2)}  # 4 x 4 positions times 3 x 3 velocities
    assert counts[0] == counts[1] <= 64


def test_tonelli_rejects_undeclared_data_bound():
    # |L(x, 0)| reaches 1 but C3 claims 0.1
    L = M.quadratic_kinetic(potential=lambda x: -np.exp(-(x ** 2).sum(-1)), C3=0.1)
    rep = M.check_strict_tonelli(L, grid1d())
    assert not rep.passed


def test_growth_constants_formulas():
    L = M.LagrangianModel(lambda x, v: 0.5 * (v ** 2).sum(-1), C1=2.0, C2=1.0, C3=0.7)
    assert L.alpha == pytest.approx(2.7)
    assert L.beta == pytest.approx(1.7)


# ---------------------------------------------------------------------------
# coupling: geometry, Lipschitz data, confinement gap, common minimizer


def test_coupling_profile_lipschitz_within_declared(ri1):
    # the separable factor is f(x) = -exp(-x^2); max |f'| = sqrt(2/e)
    g = ri1.grid
    f = -np.exp(-g.axes[0] ** 2)
    slopes = np.abs(np.diff(f)) / g.dx[0]
    assert slopes.max() == pytest.approx(np.sqrt(2 / np.e), abs=1e-3)
    assert slopes.max() <= ri1.coupling.lip2


def test_coupling_geometry_validation():
    def coupling(lo, hi):
        return M.separable_coupling(lambda x: -np.exp(-(x ** 2).sum(-1)),
                                    lambda s: 2.0 + np.tanh(s), lo, hi, 0.36, 0.86)
    with pytest.raises(ValueError):
        coupling((-5.0,), (5.0,)).validate_geometry(grid1d())  # K0 not strictly inside the box
    for lo, hi in (((-1.0, -5.0), (1.0, 2.0)), ((-1.0,), (1.0, 2.0))):  # one coordinate per axis
        with pytest.raises(ValueError, match="coupling: 'K0'"):
            coupling(lo, hi).validate_geometry(grid1d())


def test_confinement_gap_reference_instance(ri1):
    probes = M.default_probes(ri1.coupling, ri1.grid)
    gap = M.check_F4_gap(ri1.coupling, ri1.L, ri1.grid, probes)
    assert gap >= ri1.coupling.delta0


def test_confinement_gap_violation_raises(ri1):
    inflated = M.separable_coupling(lambda x: -np.exp(-(x ** 2).sum(-1)),
                                    lambda s: 2.0 + np.tanh(s),
                                    (-1.0,), (1.0,), 10.0, 0.86)
    with pytest.raises(errors.GapViolated):
        M.check_F4_gap(inflated, ri1.L, ri1.grid, M.default_probes(inflated, ri1.grid))


def test_confinement_gap_fails_a_nan_delta0(ri1):
    c = ri1.coupling
    nan_gap = M.Coupling(c.values, c.K0_lo, c.K0_hi, float("nan"), c.lip2)
    with pytest.raises(errors.GapViolated):
        M.check_F4_gap(nan_gap, ri1.L, ri1.grid, M.default_probes(nan_gap, ri1.grid))


def test_common_minimizer_reference_instance(ri1):
    probes = M.default_probes(ri1.coupling, ri1.grid)
    ok, witness = M.check_F5(ri1.coupling, ri1.L, ri1.grid, probes)
    assert ok
    assert witness == ri1.grid.nearest_node(0.0)


def test_common_minimizer_fails_for_shifted_well(ri1):
    # non-separable well whose bottom tracks the measure's mean
    shift = M.Coupling(
        lambda grid, W: -np.exp(-((grid.points - (W @ grid.points)[:, None] / 2.0) ** 2).sum(-1)),
        (-1.0,), (1.0,), 0.1, 1.0, name="shifted-well")
    ok, witness = M.check_F5(shift, M.quadratic_kinetic(), ri1.grid,
                             M.default_probes(shift, ri1.grid))
    assert not ok
    assert witness is None


def well(p):
    return -np.exp(-(p ** 2).sum(-1))


@pytest.mark.parametrize("grid", [grid1d(dx=0.25, dt=0.25), grid2d()], ids=["1d", "2d"])
def test_rest_landscape_is_L_at_rest_plus_F(grid):
    # L(x, 0) = 0.3 sum_i cos(x_i) and F(x, m) = f(x) G(integral of f dm), node by node
    L = M.quadratic_kinetic(potential=lambda p: 0.3 * np.cos(p).sum(-1), C3=0.6)
    G = lambda s: 2.0 + np.tanh(s)
    c = M.separable_coupling(well, G, (-1.0,) * grid.dim, (1.0,) * grid.dim, 0.1, 1.0)
    for m in (M.GridMeasure.dirac(grid, (0.5,) * grid.dim),
              M.GridMeasure(grid, np.full(grid.n_points, 1.0 / grid.n_points))):
        mean_f = sum(w * well(x) for w, x in zip(m.weights, grid.points))
        want = [0.3 * np.cos(x).sum() + well(x) * G(mean_f) for x in grid.points]
        np.testing.assert_allclose(M.rest_landscape(L, c, grid, m), want, rtol=1e-13, atol=1e-15)


def test_separable_path_values_match_per_measure(ri1):
    g = ri1.grid
    f = lambda x: -np.exp(-(x ** 2).sum(-1))
    G = lambda s: 2.0 + np.tanh(s)
    rng = np.random.default_rng(0)
    rows = rng.random((4, g.n_points))
    rows /= rows.sum(axis=1, keepdims=True)
    batch = ri1.coupling.path_values(g, rows)
    for k in range(4):  # f(x) G(integral of f dm), one measure at a time
        one = f(g.points) * G(np.dot(rows[k], f(g.points)))
        np.testing.assert_allclose(batch[k], one, atol=1e-14)
        np.testing.assert_array_equal(ri1.coupling.values_on(g, M.GridMeasure(g, rows[k])),
                                      batch[k])


# ---------------------------------------------------------------------------
# the callable contract: a point or a velocity is a row of n coordinates


@pytest.mark.parametrize("grid", [
    M.GridSpec(-2.0, 2.0, 9, 0.25, 1.0, 5),
    M.GridSpec((-2.0, -2.0), (2.0, 2.0), (9, 9), 0.25, 1.0, 5),
], ids=["1d", "2d"])
def test_callables_get_arrays_of_n_coordinates(grid):
    seen = {}  # callable name -> shape of every array it was called with

    def recorded(name, fn):
        def call(*args):
            seen.setdefault(name, []).extend(np.shape(a) for a in args)
            return fn(*args)
        return call

    n = grid.dim
    kin = M.quadratic_kinetic(recorded("potential", lambda x: 0.1 * np.cos(x).sum(-1)), C3=1.0)
    L = M.LagrangianModel(recorded("lagrangian", kin.eval), kin.C1, kin.C2, kin.C3)
    uf = M.TerminalDatum(recorded("terminal", lambda x: 0.1 * (x ** 2).sum(-1)), 1.0, 0.0)
    f = recorded("profile", lambda x: -np.exp(-(x ** 2).sum(-1)))
    coupling = M.separable_coupling(f, lambda s: 2.0 + np.tanh(s), (-1.0,) * n, (1.0,) * n,
                                    0.1, 1.0)
    m = M.GridMeasure.uniform_on(grid, (-1.0,) * n, (1.0,) * n)

    M.check_strict_tonelli(L, grid)
    M.rest_landscape(L, coupling, grid, m)
    _, vstar = M.legendre_transform(L, grid.points[3], np.full(n, 0.2), grid)
    vf = M.solve_backward(M.BellmanStep(L, grid), coupling.values_on(grid, m), uf,
                          0.5)  # validates uf

    assert sorted(seen) == ["lagrangian", "potential", "profile", "terminal"]
    for name, shapes in seen.items():
        assert all(s[-1:] == (n,) for s in shapes), (name, set(shapes))
    K = len(vf.times) - 1
    assert vstar.shape == m.mean().shape == (n,)
    assert grid.velocities[vf.policy].shape == (K, grid.n_points, n)


# ---------------------------------------------------------------------------
# grid plumbing


def test_grid_time_steps_requires_multiple():
    g = grid1d()
    assert g.time_steps(1.0) == 50
    with pytest.raises(ValueError):
        g.time_steps(1.03)


def test_grid_budget_admits_the_61_document_and_bounds_each_array():
    g = M.GridSpec((-3.0, -3.0), (3.0, 3.0), (61, 61), 0.1, 3.0, 31)
    assert g.n_points * len(g.velocities) == 3_575_881
    too_big = [  # GridSpec arguments, and the array and keys the error names
        (((-3.0, -3.0), (3.0, 3.0), (61, 61), 0.1, 3.0, 101),
         "3721 nodes x 10201 velocities (dx=0.1,0.1, v_nodes=101)"),
        ((-1.0, 1.0, 3, 1.0, 10.0, 1_000_001),  # a 22 x 1000001 weight matrix
         "a departure stage (dx=1, dt=1, v_max=10)"),
    ]
    for args, given in too_big:
        with pytest.raises(ValueError, match=re.escape(given)):
            M.GridSpec(*args)


def test_grid_rejects_a_departure_step_lost_at_the_box_edge():
    # the smallest nonzero departure step dt * 2 v_max / (v_nodes - 1) is dt / 20
    # here, and half an ulp of the edge coordinate 4 is 4.4e-16
    M.GridSpec(-4.0, 4.0, 81, 1e-14, 4.0, 161)
    for args in ((-4.0, 4.0, 81, 1e-15, 4.0, 161),
                 ((-1.0, -1e3), (1.0, 1e3), (3, 3), 1e-12, 4.0, 161)):  # lost on axis 1 only
        with pytest.raises(ValueError, match=re.escape(f"(dt={args[3]:g}, v_max=4, v_nodes=161)")):
            M.GridSpec(*args)


def test_grid_ball_and_nodes():
    g = grid1d()
    assert g.contains_ball(3.9)
    assert not g.contains_ball(4.1)
    mask = g.ball_mask(2.0)
    assert np.abs(g.points[mask]).max() <= 2.0 + 1e-12
    assert g.points[g.nearest_node(0.011)] == pytest.approx(0.02)
