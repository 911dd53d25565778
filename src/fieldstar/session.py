"""Session configuration: the canonical-JSON config file format.

A config fixes the session dimension, the declared fields with their
pairings, constants and function symbols, a default kernel, the series
truncation order, the numeric tolerance, and the random seed for the
property suites.  Example:

    {
      "dim": 3,
      "fields": [{"name": "phi", "kind": "real", "pair": "pi"}],
      "constants": ["m"],
      "functions": {"U": true},
      "kernel": "i*delta",
      "order": 6,
      "tolerance": 1e-8,
      "seed": 0,
      "hamiltonian": "1/2*(pi^2 + d1(phi)^2 + m^2*phi^2) + U(phi)"
    }
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .jets import FieldSort, FieldSystem, real_system


class ConfigError(ValueError):
    """Malformed session configuration."""


@dataclass
class SessionConfig:
    dim: int = 3
    system: FieldSystem = None
    constants: frozenset = frozenset({"m", "kappa"})
    functions: dict = field(default_factory=lambda: {"U": True})
    kernel_text: str = "delta"
    order: int = 6
    tolerance: float = 1e-8
    seed: int = 0
    hamiltonian_text: str | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise ConfigError("session dimension must be >= 1")
        if self.order < 0:
            raise ConfigError("series order must be >= 0")
        if self.system is None:
            self.system = real_system(self.dim)
        if self.dim != self.system.dim:
            raise ConfigError("field system dimension disagrees with session")

    def context(self):
        from .parser import ParseContext

        return ParseContext(self.system, self.constants, dict(self.functions))

    def kernel(self):
        from .parser import parse_kernel

        return parse_kernel(self.kernel_text, self.context())

    def hamiltonian(self):
        from .parser import parse_expr
        from .poisson import Functional

        if self.hamiltonian_text is None:
            raise ConfigError("no hamiltonian declared in the session config")
        return Functional(parse_expr(self.hamiltonian_text, self.context()),
                          self.system)


def _build_system(dim: int, entries: list) -> FieldSystem:
    if not entries:
        return real_system(dim)
    sorts = []
    for entry in entries:
        name = entry.get("name")
        kind = entry.get("kind", "real")
        if not name:
            raise ConfigError("field entry needs a name")
        if entry.get("pair") == name:
            raise ConfigError(f"field {name!r} cannot be paired with itself")
        if kind == "real":
            pair = entry.get("pair")
            if not pair:
                raise ConfigError(f"real field {name!r} needs a 'pair' entry")
            sorts.append(FieldSort(name, "position", pair))
            sorts.append(FieldSort(pair, "momentum", name))
        elif kind == "complex":
            pair = entry.get("pair", name + "bar")
            sorts.append(FieldSort(name, "holomorphic", pair))
            sorts.append(FieldSort(pair, "antiholomorphic", name))
        else:
            raise ConfigError(f"unknown field kind {kind!r}")
    system = FieldSystem(dim, tuple(sorts))
    primaries = system.primary_sorts()
    if len(primaries) != 1:
        # brackets and stars pair exactly one field with its conjugate
        raise ConfigError("only one field (one conjugate pair) is supported, "
                          f"got {len(primaries)}: {', '.join(primaries)}")
    return system


def _is_field_list(v) -> bool:
    """A list of objects whose name, kind and pair, where given, are strings
    ("pair" may be left out, as a complex field's default is name + "bar")."""
    return type(v) is list and all(
        type(e) is dict and all(type(e[k]) is str
                                for k in ("name", "kind", "pair") if k in e)
        for e in v)


_INT = (lambda v: type(v) is int, "an integer")  # a bool is no JSON integer
_STR = (lambda v: type(v) is str, "a string")
# the JSON type each key must have, and its name in the error message
_TYPES = {
    "dim": _INT, "order": _INT, "seed": _INT, "kernel": _STR, "hamiltonian": _STR,
    "tolerance": (lambda v: type(v) in (int, float), "a number"),
    "constants": (lambda v: type(v) is list and all(type(s) is str for s in v),
                  "a list of strings"),
    # true: the function symbol vanishes at zero (condition B)
    "functions": (lambda v: type(v) is dict
                  and all(type(b) is bool for b in v.values()),
                  "an object of booleans"),
    "fields": (_is_field_list,
               "a list of objects with string name, kind and pair"),
}


def load_config(data: dict) -> SessionConfig:
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    for key, (ok, kind) in _TYPES.items():
        if key in data and not ok(data[key]):
            raise ConfigError(f"config {key!r} must be {kind}, "
                              f"got {json.dumps(data[key])}")
    dim = data.get("dim", 3)
    try:
        system = _build_system(dim, data.get("fields", []))
    except ConfigError:
        raise
    except ValueError as exc:  # from FieldSystem, once the types are checked
        raise ConfigError(str(exc)) from exc
    return SessionConfig(
        dim=dim,
        system=system,
        constants=frozenset(data.get("constants", ["m", "kappa"])),
        functions=dict(data.get("functions", {"U": True})),
        kernel_text=data.get("kernel", "delta"),
        order=data.get("order", 6),
        tolerance=float(data.get("tolerance", 1e-8)),
        seed=data.get("seed", 0),
        hamiltonian_text=data.get("hamiltonian"),
    )


def load_config_file(path: str) -> SessionConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return load_config(data)
