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
import math
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


def _gaussian(x):
    return np.exp(-(np.asarray(x, dtype=float) ** 2).sum(axis=-1))


# spatial profiles usable as the separable factor f or as potentials: each maps
# (..., n) points to one value per point, in any dimension; neg_gaussian_2d is
# another name for neg_gaussian, kept for documents that use it
PROFILES = {
    "neg_gaussian": lambda x: -_gaussian(x),
    "gaussian": _gaussian,
}
PROFILES["neg_gaussian_2d"] = PROFILES["neg_gaussian"]

# scalar shaping functions G
SHAPES = {
    "two_plus_tanh": lambda s: 2.0 + np.tanh(s),
    "two_minus_tanh": lambda s: 2.0 - np.tanh(s),
    "constant_one": lambda s: np.ones_like(np.asarray(s, dtype=float)),
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


def _convert(val, cast, section, key, what):
    """cast(val), or a ValueError naming the section and key.  A JSON boolean or
    string is no number, alone or in a list, though Python reads True as 1 and
    float reads "0.1"."""
    try:
        if any(isinstance(v, (bool, str)) for v in (val if isinstance(val, list) else [val])):
            raise TypeError
        return cast(val)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{section}: {key!r} must be {what}, got {val!r}") from None


def _number(val, section, key):
    return _convert(val, float, section, key, "a number")


def _count(v):
    """int(v) for an integral v such as 81 or 81.0; a fractional count is refused."""
    if not float(v).is_integer():
        raise ValueError
    return int(v)


def _bounded(val, section, key, op=">"):
    """val as a finite number op 0 (op is ">" or ">="), or a ValueError naming the key:
    a check compared with a NaN or infinite declared constant passes vacuously."""
    def cast(v):
        x = float(v)
        if not (math.isfinite(x) and (x > 0 or op == ">=" and x == 0)):
            raise ValueError
        return x
    return _convert(val, cast, section, key, f"a finite number {op} 0")


def _per_axis(val, section, key, count=False):
    """val as a 1-D array with one entry per axis (a bare number is one axis);
    a count's entries must be integral."""
    def cast(v):
        arr = np.atleast_1d(v)
        if arr.ndim != 1:
            raise ValueError
        return np.array([_count(x) if count else float(x) for x in arr.tolist()])
    what = "an integer or a list of integers" if count else "a number or a list of numbers"
    return _convert(val, cast, section, key, what)


def _pick(registry, cfg, key, section):
    """The registry entry named by cfg[key], or a ValueError listing the choices."""
    name = _require(cfg, key, section)
    if not isinstance(name, str) or name not in registry:
        raise ValueError(f"{section}: unknown {key} {name!r}; "
                         f"known: {', '.join(sorted(registry))}")
    return registry[name]


def _build_grid(cfg):
    lo = _per_axis(cfg.get("lo", -4.0), "grid", "lo")
    hi = _per_axis(cfg.get("hi", 4.0), "grid", "hi")
    if "dx" in cfg:
        dx = _bounded(cfg["dx"], "grid", "dx")
        steps = [(b - a) / dx for a, b in zip(lo.tolist(), hi.tolist())]
        if not all(map(math.isfinite, steps)):
            raise ValueError(f"grid: 'dx' = {dx!r} steps from 'lo' = {lo.tolist()!r} to "
                             f"'hi' = {hi.tolist()!r} give no finite node count")
        nodes = [int(round(k)) + 1 for k in steps]
    else:
        nodes = _per_axis(_require(cfg, "nodes", "grid"), "grid", "nodes", count=True)
    dt = _number(cfg.get("dt", cfg.get("dx", 0.02)), "grid", "dt")
    v_nodes = _convert(cfg.get("v_nodes", 161), _count, "grid", "v_nodes", "an integer")
    if v_nodes % 2 == 0:  # v = 0 must be a velocity node
        raise ValueError(f"grid: 'v_nodes' must be odd, got {v_nodes!r}")
    return GridSpec(lo, hi, nodes, dt, _number(cfg.get("v_max", 4.0), "grid", "v_max"),
                    v_nodes)


def _build_lagrangian(cfg):
    kind = cfg.get("kind", "kinetic")
    if kind == "kinetic":
        return quadratic_kinetic()
    if kind == "kinetic_plus_potential":
        phi = _pick(PROFILES, cfg, "potential", "lagrangian")
        return quadratic_kinetic(potential=phi,
                                 C3=_bounded(cfg.get("C3", 3.0), "lagrangian", "C3", ">="),
                                 name=f"kinetic+{cfg['potential']}")
    raise ValueError(f"unknown lagrangian kind {kind!r}")


def _build_coupling(cfg):
    kind = cfg.get("kind", "separable")
    if kind != "separable":
        raise ValueError(f"unknown coupling kind {kind!r}")
    f = _pick(PROFILES, cfg, "f", "coupling")
    G = _pick(SHAPES, cfg, "G", "coupling")
    K0 = _require(cfg, "K0", "coupling")
    if not isinstance(K0, list) or len(K0) != 2:
        raise ValueError(f"coupling: 'K0' must be a pair [lo, hi], got {K0!r}")
    K0_lo, K0_hi = (_per_axis(b, "coupling", "K0") for b in K0)
    delta0, lip2 = (_bounded(_require(cfg, key, "coupling"), "coupling", key, op)
                    for key, op in (("delta0", ">"), ("lip2", ">=")))
    return separable_coupling(f, G, K0_lo, K0_hi, delta0, lip2, name=f"{cfg['f']}*{cfg['G']}")


def _build_terminal(cfg, grid):
    kind = cfg.get("kind", "zero")
    if kind == "zero":
        return zero_terminal()
    if kind == "half_square":
        ev = lambda pts: 0.5 * (pts ** 2).sum(axis=-1)
        lip = max(abs(a) for bounds in (grid.lo, grid.hi) for a in bounds)
        return TerminalDatum(ev, lip, 0.0)
    raise ValueError(f"unknown terminal kind {kind!r}")


def _build_initial(cfg, grid, coupling):
    kind = cfg.get("kind", "uniform_K0")
    if kind == "uniform_K0":
        return GridMeasure.uniform_on(grid, coupling.K0_lo, coupling.K0_hi)
    if kind == "dirac":
        at = _per_axis(_require(cfg, "at", "initial"), "initial", "at")
        if len(at) != grid.dim or not np.isfinite(at).all():
            raise ValueError(f"initial: 'at' needs {grid.dim} finite coordinate(s), "
                             f"got {at.tolist()!r}")
        return GridMeasure.dirac(grid, at)
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
    coupling.validate_geometry(grid)
    m0 = _build_initial(_section(cfg, "initial"), grid, coupling)
    return Instance(cfg.get("name", "instance"), L, coupling, grid, uf, m0)


def parse_json(text, path):
    """json.loads(text); a document nested too deep for the parser is a ValueError naming path."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply to parse") from None


def load_instance(path_or_name, dx=None, dt=None):
    """Named built-in instance, or a path to a JSON instance document.

    A document already parsed from JSON (anything but a string) is built
    as it is: the CLI passes the copy it embeds in a manifest this way.
    """
    if not isinstance(path_or_name, str):
        return from_config(path_or_name, dx=dx, dt=dt)
    if path_or_name in BUILTIN:
        cfg = json.loads(json.dumps(BUILTIN[path_or_name]))
        return from_config(cfg, dx=dx, dt=dt)
    with open(path_or_name) as fh:
        cfg = parse_json(fh.read(), path_or_name)
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
