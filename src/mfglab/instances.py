"""Named problem instances and the JSON instance schema.

An instance bundles the Lagrangian, the coupling, a default grid, the
terminal datum and the initial measure.  JSON documents pick components
from small registries of named shapes, e.g.

    {
      "name": "my-instance",
      "lagrangian": {"kind": "kinetic"},
      "coupling": {"kind": "separable", "f": "neg_gaussian",
                   "G": "two_plus_tanh", "K0": [-1.0, 1.0],
                   "delta0": 0.36, "lip2": 0.86},
      "grid": {"lo": -4.0, "hi": 4.0, "dx": 0.02, "dt": 0.02,
               "v_max": 4.0, "v_nodes": 161},
      "terminal": {"kind": "zero"},
      "initial": {"kind": "uniform_K0"}
    }
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .hjb import TerminalDatum, zero_terminal
from .measure import GridMeasure
from .model import GridSpec, quadratic_kinetic, separable_coupling


@dataclass
class Instance:
    name: str
    L: object
    coupling: object
    grid: GridSpec
    uf: TerminalDatum
    m0: GridMeasure


# spatial profiles usable as the separable factor f or as potentials
PROFILES = {
    "neg_gaussian": lambda x: -np.exp(-np.asarray(x, dtype=float) ** 2),
    "gaussian": lambda x: np.exp(-np.asarray(x, dtype=float) ** 2),
    "neg_gaussian_2d": lambda p: -np.exp(-(np.asarray(p, dtype=float) ** 2).sum(axis=-1)),
}

# scalar shaping functions G with their derivatives
SHAPES = {
    "two_plus_tanh": (lambda s: 2.0 + np.tanh(s), lambda s: 1.0 / np.cosh(s) ** 2),
    "two_minus_tanh": (lambda s: 2.0 - np.tanh(s), lambda s: -1.0 / np.cosh(s) ** 2),
    "constant_one": (lambda s: np.ones_like(np.asarray(s, dtype=float)),
                     lambda s: np.zeros_like(np.asarray(s, dtype=float))),
}


def _require(cfg, key, section):
    """cfg[key], or a ValueError naming the missing key."""
    if key not in cfg:
        raise ValueError(f"{section}: missing required key {key!r}")
    return cfg[key]


def _section(cfg, key, required=False):
    """The object cfg[key] ({} when optional and absent), or a ValueError."""
    sec = _require(cfg, key, "instance") if required else cfg.get(key, {})
    if not isinstance(sec, dict):
        raise ValueError(f"{key}: section must be a JSON object, got {type(sec).__name__}")
    return sec


def _pick(registry, cfg, key, section):
    """The registry entry named by cfg[key], or a ValueError listing the choices."""
    name = _require(cfg, key, section)
    if not isinstance(name, str) or name not in registry:
        raise ValueError(f"{section}: unknown {key} {name!r}; "
                         f"known: {', '.join(sorted(registry))}")
    return registry[name]


def _build_grid(cfg):
    lo, hi = cfg.get("lo", -4.0), cfg.get("hi", 4.0)
    if "dx" in cfg:
        lo_arr = np.atleast_1d(lo).astype(float)
        hi_arr = np.atleast_1d(hi).astype(float)
        nodes = [int(round((b - a) / cfg["dx"])) + 1 for a, b in zip(lo_arr, hi_arr)]
        nodes = nodes[0] if len(nodes) == 1 else nodes
    else:
        nodes = _require(cfg, "nodes", "grid")
    dt = cfg.get("dt", cfg.get("dx", 0.02))
    return GridSpec(lo, hi, nodes, dt, cfg.get("v_max", 4.0), cfg.get("v_nodes", 161))


def _build_lagrangian(cfg):
    kind = cfg.get("kind", "kinetic")
    if kind == "kinetic":
        return quadratic_kinetic()
    if kind == "kinetic_plus_potential":
        phi = _pick(PROFILES, cfg, "potential", "lagrangian")
        return quadratic_kinetic(potential=phi, C3=float(cfg.get("C3", 3.0)),
                                 name=f"kinetic+{cfg['potential']}")
    raise ValueError(f"unknown lagrangian kind {kind!r}")


def _build_coupling(cfg):
    kind = cfg.get("kind", "separable")
    if kind != "separable":
        raise ValueError(f"unknown coupling kind {kind!r}")
    f = _pick(PROFILES, cfg, "f", "coupling")
    G, Gp = _pick(SHAPES, cfg, "G", "coupling")
    K0_lo, K0_hi = _require(cfg, "K0", "coupling")
    return separable_coupling(f, G, Gp, K0_lo, K0_hi,
                              float(_require(cfg, "delta0", "coupling")),
                              float(_require(cfg, "lip2", "coupling")),
                              name=f"{cfg['f']}*{cfg['G']}")


def _build_terminal(cfg, grid):
    kind = cfg.get("kind", "zero")
    if kind == "zero":
        return zero_terminal()
    if kind == "half_square":
        ev = lambda pts: 0.5 * (grid.coordinates(pts) ** 2).sum(axis=1)
        lip = max(abs(a) for bounds in (grid.lo, grid.hi) for a in bounds)
        return TerminalDatum(ev, lip, 0.0)
    raise ValueError(f"unknown terminal kind {kind!r}")


def _build_initial(cfg, grid, coupling):
    kind = cfg.get("kind", "uniform_K0")
    if kind == "uniform_K0":
        return GridMeasure.uniform_on(grid, coupling.K0_lo, coupling.K0_hi)
    if kind == "dirac":
        return GridMeasure.dirac(grid, _require(cfg, "at", "initial"))
    raise ValueError(f"unknown initial kind {kind!r}")


def from_config(cfg, dx=None, dt=None):
    """Instance from a parsed JSON document, with optional grid overrides."""
    if not isinstance(cfg, dict):
        raise ValueError(f"instance: document must be a JSON object, "
                         f"got {type(cfg).__name__}")
    gcfg = dict(_section(cfg, "grid"))
    if dx is not None:
        gcfg["dx"] = dx
        gcfg.pop("nodes", None)
    if dt is not None:
        gcfg["dt"] = dt
    grid = _build_grid(gcfg)
    L = _build_lagrangian(_section(cfg, "lagrangian"))
    coupling = _build_coupling(_section(cfg, "coupling", required=True))
    uf = _build_terminal(_section(cfg, "terminal"), grid)
    m0 = _build_initial(_section(cfg, "initial"), grid, coupling)
    return Instance(cfg.get("name", "instance"), L, coupling, grid, uf, m0)


def load_instance(path_or_name, dx=None, dt=None):
    """Named built-in instance, or a path to a JSON instance document."""
    if path_or_name in BUILTIN:
        cfg = json.loads(json.dumps(BUILTIN[path_or_name]))
        return from_config(cfg, dx=dx, dt=dt)
    with open(path_or_name) as fh:
        cfg = json.load(fh)
    return from_config(cfg, dx=dx, dt=dt)


# The reference reversible instance: kinetic Lagrangian, single-well
# attractive separable coupling, Dirac stationary state at the origin.
BUILTIN = {
    "RI-1": {
        "name": "RI-1",
        "lagrangian": {"kind": "kinetic"},
        "coupling": {
            "kind": "separable",
            "f": "neg_gaussian",
            "G": "two_plus_tanh",
            "K0": [-1.0, 1.0],
            "delta0": 0.36,
            "lip2": 0.86,
        },
        "grid": {"lo": -4.0, "hi": 4.0, "dx": 0.02, "dt": 0.02,
                 "v_max": 4.0, "v_nodes": 161},
        "terminal": {"kind": "zero"},
        "initial": {"kind": "uniform_K0"},
    },
}
