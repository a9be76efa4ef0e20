"""Long-horizon behavior of the finite-horizon equilibria.

Solves the system on a ladder of horizons, each started from the stationary
feedback held at every step, as `mfg converge` solves its ladder, measures
the distance of the time-averaged value u(0, x)/T + lambda-corrected
profile and of the flight of the coupling from their stationary
counterparts on a fixed ball, and fits the decay rate against T.  In
dimension one the predicted envelope is T^(-1/3).  In the middle of the
horizon (the turnpike) both distances fall much faster.
"""

import numpy as np

import mfglab as M
from mfglab.instances import load_instance


def main():
    inst = load_instance("RI-1")
    erg = M.solve_ergodic(inst.L, inst.coupling, inst.grid)
    print(f"stationary multiplier lambda = {erg.lam:.12f}")

    sols = {}
    for T in (2.0, 4.0, 8.0, 16.0):  # each started from the stationary feedback
        sols[T] = M.solve_finite_horizon(inst.L, inst.coupling, inst.m0, inst.uf, inst.grid,
                                         T, start=erg.policy)
        print(f"  T = {T:5.1f}: converged in {sols[T].iterations} iterations")

    rep = M.convergence_metrics(sols, erg, inst.coupling, 3.0)
    p = 1.0 / 3.0
    print("T      e_u        e_F        e_u * T^(1/3)  e_F * T^(1/3)")
    for T, eu, ef in zip(rep.T_list, rep.e_u, rep.e_F):
        print(f"{T:5.1f}  {eu:.6f}  {ef:.6f}  {eu * T ** p:12.6f}  {ef * T ** p:12.6f}")
    print(f"fitted slopes: e_u {rep.rate_u['slope']:.3f}, e_F {rep.rate_F['slope']:.3f}")
    print(f"envelope constants: C_u = {rep.C_hat_u:.4f}, C_F = {rep.C_hat_F:.4f}")
    print("T      E_mid      D_mid      (sup over t in [T/4, 3T/4])")
    for T, e, d in zip(rep.T_list, rep.E_mid, rep.D_mid):
        print(f"{T:5.1f}  {e:.3e}  {d:.3e}")


if __name__ == "__main__":
    main()
