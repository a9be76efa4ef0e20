"""Long-time convergence metrics and inequality checks.

The two headline errors compare a finite-horizon solve against the
stationary solution on a ball B_R:

    e_u(T) = sup over grid times and nodes in B_R of
             |(u^T(t, x) - u_bar(x)) / T + lambda (1 - t/T)|
    e_F(T) = (1/T) int_0^T sup over B_R of |F(., m^T(s)) - F(., m_bar)| ds

Both should decay at least like T^(-1/(n+2)).  The sup of e_u can sit at
t = T, where u^T is the terminal datum and not the solve (t_sup, the t/T of
that sup, says where), so the turnpike is read in the middle of the
horizon, t in [T/4, 3T/4], with x* the Mather node:

    E_mid(T) = sup over those t and x in B_R of
               |u^T(t, x) - u^T(t, x*) - (u_bar(x) - u_bar(x*))|
    D_mid(T) = sup over those t of sum_x m^T(t, x) |x - x*|

m_bar is the Dirac at x*, so D_mid is the d_1 distance to it, with no LP.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import LipschitzExceeded, NonPositiveError, RadiusTooSmall
from .hjb import _grid_lipschitz


@dataclass
class ConvergenceReport:
    R: float
    T_list: list
    e_u: list
    e_F: list
    rate_u: dict = field(default_factory=dict)
    rate_F: dict = field(default_factory=dict)
    C_hat_u: float = 0.0
    C_hat_F: float = 0.0
    n: int = 1
    E_mid: list = field(default_factory=list)
    D_mid: list = field(default_factory=list)
    t_sup: list = field(default_factory=list)

    def rows(self):
        p = 1.0 / (self.n + 2.0)
        for T, eu, ef in zip(self.T_list, self.e_u, self.e_F):
            yield T, eu, ef, eu * T**p, ef * T**p


def convergence_metrics(solutions, ergodic_solution, coupling, R):
    """Errors e_u(T), e_F(T) and the turnpike for a ladder of finite-horizon solutions.

    solutions: mapping T -> MFGSolution on the same grid as the ergodic
    solution.  Raises RadiusTooSmall when a measured attainable radius
    exceeds R (a support inside the closed ball B_R is measured) or the
    ball does not fit the box.
    """
    erg = ergodic_solution
    grid = erg.grid
    if not grid.contains_ball(R):
        raise RadiusTooSmall(f"B_{R} does not fit the box")
    mask = grid.ball_mask(R)
    Fbar = coupling.values_on(grid, erg.m_bar)
    star = erg.mather_node
    ubar_rel = erg.u_bar[mask] - erg.u_bar[star]
    dist = np.linalg.norm(grid.points - grid.points[star], axis=1)  # |x - x*|
    T_list = sorted(solutions)
    e_u, e_F, E_mid, D_mid, t_sup = [], [], [], [], []
    for T in T_list:
        sol = solutions[T]
        R1 = sol.diagnostics.get("measured_R1", 0.0)
        if R1 > R:
            raise RadiusTooSmall(f"measured attainable radius {R1!r} > R={R!r}")
        vf = sol.u
        times = vf.times
        w_ref = erg.u_bar[None, mask] - erg.lam * (T - times)[:, None]
        diff = np.abs(vf.values[:, mask] - w_ref).max(axis=1) / T
        e_u.append(float(diff.max()))
        t_sup.append(float(times[diff.argmax()] / T))
        F = coupling.path_values(grid, sol.m_path.weights)
        sup_t = np.abs(F[:, mask] - Fbar[None, mask]).max(axis=1)
        e_F.append(float(sup_t[:-1].sum() * grid.dt / T))
        K = len(times) - 1
        mid = slice(-(-K // 4), 3 * K // 4 + 1)  # t = kT/K in [T/4, 3T/4]
        u_mid = vf.values[mid]
        E_mid.append(float(np.abs(u_mid[:, mask] - u_mid[:, [star]] - ubar_rel).max()))
        D_mid.append(float((sol.m_path.weights[mid] @ dist).max()))
    p = 1.0 / (grid.dim + 2.0)
    rep = ConvergenceReport(R, T_list, e_u, e_F, n=grid.dim, E_mid=E_mid, D_mid=D_mid,
                            t_sup=t_sup)
    rep.C_hat_u = float(max(e * T**p for e, T in zip(e_u, T_list)))
    rep.C_hat_F = float(max(e * T**p for e, T in zip(e_F, T_list)))
    rep.rate_u = rate_fit(T_list, e_u)
    rep.rate_F = rate_fit(T_list, e_F)
    return rep


def rate_fit(T_list, errors, floor=0.0):
    """Least-squares slope of log error against log T.

    Entries at or below the floor are dropped (discretization plateau);
    raises NonPositiveError when a kept error is not positive, and returns
    slope, intercept, max log-residual and the number of points kept.
    """
    T = np.asarray(T_list, dtype=float)
    e = np.asarray(errors, dtype=float)
    keep = e > floor
    if keep.sum() < 2:
        raise NonPositiveError("need at least two points above the floor")
    if (e[keep] <= 0).any():
        raise NonPositiveError("errors must be positive to fit a rate")
    lt, le = np.log(T[keep]), np.log(e[keep])
    slope, intercept = np.polyfit(lt, le, 1)
    resid = le - (slope * lt + intercept)
    return {
        "slope": float(slope),
        "intercept": float(intercept),
        "max_residual": float(np.abs(resid).max()),
        "points": int(keep.sum()),
    }


# ---------------------------------------------------------------------------
# sup/L2 interpolation inequality


def interpolation_constant(n, D):
    """c(n, D) = sqrt(n+2) D^(n/(n+2)); dominates the sharp minimization."""
    return float(np.sqrt(n + 2.0) * D ** (n / (n + 2.0)))


def l2_norm(grid, values):
    """L2 norm of the piecewise-multilinear interpolant of node values.

    In 1-D the cell integral of the interpolant squared is exact
    (dx (a^2 + a b + b^2) / 3), so piecewise-linear functions with
    grid-aligned kinks get their exact norm; 2-D uses the tensor trapezoid.
    """
    v = np.asarray(values, dtype=float)
    if grid.dim == 1:
        a, b = v[:-1], v[1:]
        return float(np.sqrt(grid.dx[0] * ((a * a + a * b + b * b) / 3.0).sum()))
    vm = (v**2).reshape(grid.nodes)
    wx = np.ones(grid.nodes[0]); wx[0] = wx[-1] = 0.5
    wy = np.ones(grid.nodes[1]); wy[0] = wy[-1] = 0.5
    return float(np.sqrt(grid.dx[0] * grid.dx[1] * (wx[:, None] * wy[None, :] * vm).sum()))


def interpolation_bound(grid, values, D):
    """(lhs, rhs) for sup |f| <= c(n, D) ||f||_2^(2/(n+2)).

    D must dominate the measured grid Lipschitz constant (else
    LipschitzExceeded): the inequality is only claimed for D-Lipschitz
    functions.
    """
    v = np.asarray(values, dtype=float)
    measured = _grid_lipschitz(grid, v)
    if measured > D * (1 + 1e-9) + 1e-12:
        raise LipschitzExceeded(f"measured Lipschitz {measured:.6g} > declared {D}")
    lhs = float(np.abs(v).max())
    rhs = interpolation_constant(grid.dim, D) * l2_norm(grid, v) ** (2.0 / (grid.dim + 2.0))
    return lhs, rhs


# ---------------------------------------------------------------------------
# coupling monotonicity


@dataclass
class MonotonicityResult:
    pairing: float
    l2_term: float
    cf_estimate: float | None
    sup_gap: float

    def consistent_iff(self, tol=1e-10):
        """Pairing vanishes iff the couplings coincide on the grid."""
        return (abs(self.pairing) <= tol) == (self.sup_gap <= tol)


def monotonicity_check(coupling, grid, m1, m2):
    """Discrete monotonicity pairing of F between two measures.

        pairing = int (F(., m1) - F(., m2)) d(m1 - m2)
        l2_term = int (F(., m1) - F(., m2))^2 dx

    cf_estimate = pairing / l2_term is the per-pair lower bound for the
    strong monotonicity constant C_F (None when the couplings coincide).
    """
    F1 = coupling.values_on(grid, m1)
    F2 = coupling.values_on(grid, m2)
    dF = F1 - F2
    pairing = float(np.dot(dF, m1.weights - m2.weights))
    l2 = float(l2_norm(grid, dF) ** 2)
    cf = pairing / l2 if l2 > 1e-300 else None
    return MonotonicityResult(pairing, l2, cf, float(np.abs(dF).max()))


def critical_value_uniqueness_probe(ergodic_solutions, coupling):
    """Spread of lambda and of F(., m_bar) across several ergodic solves.

    Uniqueness of the pair (lambda, F(., m_bar)) predicts both spreads are
    zero; returns (max |d lambda|, max sup |d F|) over all pairs.
    """
    sols = list(ergodic_solutions)
    dl, df = 0.0, 0.0
    for i in range(len(sols)):
        Fi = coupling.values_on(sols[i].grid, sols[i].m_bar)
        for j in range(i + 1, len(sols)):
            Fj = coupling.values_on(sols[j].grid, sols[j].m_bar)
            dl = max(dl, abs(sols[i].lam - sols[j].lam))
            df = max(df, float(np.abs(Fi - Fj).max()))
    return dl, df
