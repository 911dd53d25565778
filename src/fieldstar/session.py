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
import math
from dataclasses import dataclass, field

from .jets import FieldSystem, real_system
from .parser import parse_expr, parse_kernel
from .poisson import Functional

# the session dimension when neither the config nor --dim gives one
DEFAULT_DIM = 3


class ConfigError(ValueError):
    """Malformed session configuration."""


@dataclass
class SessionConfig:
    """The one settings object of a session; the parser reads its system,
    constants and functions.  Its field defaults are the defaults of every
    config key a file leaves out."""

    system: FieldSystem = field(default_factory=lambda: real_system(DEFAULT_DIM))
    constants: frozenset = frozenset({"m", "kappa"})
    functions: dict = field(default_factory=lambda: {"U": True})
    kernel_text: str | None = None  # None: the kernel delta
    order: int = 6
    tolerance: float = 1e-8
    seed: int = 0
    hamiltonian_text: str | None = None

    def __post_init__(self):
        if self.order < 0:
            raise ConfigError("series order must be >= 0")

    @property
    def dim(self) -> int:
        return self.system.dim

    def kernel(self):
        return parse_kernel("delta" if self.kernel_text is None
                            else self.kernel_text, self)

    def hamiltonian(self):
        if self.hamiltonian_text is None:
            raise ConfigError("no hamiltonian declared in the session config")
        return Functional(parse_expr(self.hamiltonian_text, self), self.system)


def _build_system(dim: int, entries: list) -> FieldSystem:
    if not entries:
        return real_system(dim)
    pairs = []
    for entry in entries:
        for key in entry:
            if key not in ("name", "kind", "pair"):
                raise ConfigError(f"unknown field entry key {key!r}")
        name = entry.get("name")
        kind = entry.get("kind", "real")
        if not name:
            raise ConfigError("field entry needs a name")
        if kind == "real":
            pair = entry.get("pair")
            if not pair:
                raise ConfigError(f"real field {name!r} needs a 'pair' entry")
        elif kind == "complex":
            pair = entry.get("pair", name + "bar")
        else:
            raise ConfigError(f"unknown field kind {kind!r}")
        pairs.append((name, pair))
    if len(pairs) != 1:
        names = ", ".join(sorted(name for name, _pair in pairs))
        raise ConfigError("only one field (one conjugate pair) is supported, "
                          f"got {len(pairs)}: {names}")
    return FieldSystem(dim, *pairs[0])


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
    "tolerance": (lambda v: type(v) in (int, float) and math.isfinite(v),
                  "a finite number"),  # json reads NaN, which no drift exceeds
    "constants": (lambda v: type(v) is list and all(type(s) is str for s in v),
                  "a list of strings"),
    # true: the function symbol vanishes at zero (condition B)
    "functions": (lambda v: type(v) is dict
                  and all(type(b) is bool for b in v.values()),
                  "an object of booleans"),
    "fields": (_is_field_list,
               "a list of objects with string name, kind and pair"),
}
# the SessionConfig field each other key sets, and the conversion of its
# checked JSON value
_SETTINGS = {
    "constants": ("constants", frozenset), "functions": ("functions", dict),
    "kernel": ("kernel_text", str), "order": ("order", int),
    "tolerance": ("tolerance", float), "seed": ("seed", int),
    "hamiltonian": ("hamiltonian_text", str),
}


def load_config(data: dict) -> SessionConfig:
    for key in data:
        if key not in _TYPES:  # a misspelt key would be dropped unread
            raise ConfigError(f"unknown config key {key!r}")
    for key, (ok, kind) in _TYPES.items():
        if key in data and not ok(data[key]):
            raise ConfigError(f"config {key!r} must be {kind}, "
                              f"got {json.dumps(data[key])}")
    try:
        system = _build_system(data.get("dim", DEFAULT_DIM),
                               data.get("fields", []))
    except ConfigError:
        raise
    except ValueError as exc:  # from FieldSystem, once the types are checked
        raise ConfigError(str(exc)) from exc
    # a key the file leaves out takes SessionConfig's default
    return SessionConfig(system, **{name: convert(data[key])
                                    for key, (name, convert) in _SETTINGS.items()
                                    if key in data})


def read_config_file(path: str) -> dict:
    """The JSON object of a config file, its keys not yet checked."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    # a file that is not UTF-8, or JSON nested past Python's recursion
    # limit, is as unreadable as a missing one
    except (OSError, UnicodeDecodeError, RecursionError,
            json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    return data


def load_config_file(path: str) -> SessionConfig:
    return load_config(read_config_file(path))
