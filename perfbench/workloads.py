"""Seeded inputs, operations and output checks of the three workloads.

Each workload first generates its inputs as plain data (the spec) from the
seed alone, with its own random generator; nothing here calls
``fieldstar.randexpr`` or ``fieldstar.verify``, so a change to the program
cannot change the workload.  The spec is hashed for the input digest and
then built into fieldstar objects through public constructors only.

An op is one call into fieldstar.  Ops are grouped in rounds: every round
holds the same mix of op kinds, so a run made of whole rounds always has
the same mix.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

SORTS = {"real": ["phi", "pi"], "complex": ["psi", "psibar"]}


@dataclass
class Op:
    """One timed call: ``run`` does the work, ``check`` returns an error
    message for a wrong result or None, ``digest`` (where outputs are
    pinned) maps a result to the digest kept in goldens.json."""

    key: str
    kind: str
    run: Callable
    check: Callable
    digest: Callable | None = None
    size: Callable | None = None   # result -> output terms


def spec_digest(spec) -> str:
    text = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def output_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# plain-data input generators

def _coeff(rng: random.Random, imaginary: bool = False) -> list:
    """[re_num, re_den, im_num, im_den]: a nonzero real part and, when
    asked for, a nonzero imaginary part."""
    def part():
        return [rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)),
                rng.choice((1, 1, 2, 3))]

    return part() + (part() if imaginary else [0, 1])


REAL_PARTS = ((1, 1), (3, 2), (4, 3))


def _poly(rng: random.Random, sorts: list, dim: int, shape: tuple,
          first: int = 0, function: list | None = None) -> list:
    """A polynomial of the given shape: one term per entry of ``shape``,
    which lists the jet orders of that term's factors.  ``first`` is the
    input's position in its op (0, 1 or 2).  Factor k of term n has sort
    ``first + n + k`` (of the two) and takes its derivatives along axis
    ``first + n`` (of ``dim``), or ``first + n + k`` in an op's third input:
    as in the tier-1 generator's inputs, some terms but not all
    differentiate twice along one axis, which makes a dim-3 Jacobi triple
    cost what the generator's do on average.  The seed deals the real parts
    1, 3/2 and 4/3 to the terms and picks their signs; the first term also
    has the imaginary part +-1/2.  ``function``, a [name, sort] pair, is one
    more factor of the last term.  Fixing the monomials and the sizes of the
    coefficients keeps the cost of an op steady from seed to seed, while
    every input differs.  Each term carries a field factor, so the
    polynomial vanishes at the jet origin and serves as a density."""
    real_parts = list(REAL_PARTS)
    rng.shuffle(real_parts)
    terms = []
    for n, orders in enumerate(shape):
        factors = []
        for k, order in enumerate(orders):
            index = [0] * dim
            index[(first + n + (k if first == 2 else 0)) % dim] = order
            factors.append(["j", sorts[(first + n + k) % 2], index])
        if function and n == len(shape) - 1:
            factors.append(["f", *function])
        num, den = real_parts[n]
        coeff = [rng.choice((-1, 1)) * num, den,
                 rng.choice((-1, 1)) if n == 0 else 0, 2 if n == 0 else 1]
        terms.append([coeff, factors])
    return terms


# ---------------------------------------------------------------------------
# building fieldstar objects from the spec

def _grat(fs, c):
    return fs.GRat(Fraction(c[0], c[1]), Fraction(c[2], c[3]))


def _field(fs, poly, dim):
    total = fs.FieldExpr.zero(dim)
    for coeff, atoms in poly:
        term = fs.FieldExpr.const(_grat(fs, coeff), dim)
        for atom in atoms:
            if atom[0] == "j":
                term = term * fs.FieldExpr.jet(atom[1], tuple(atom[2]), dim)
            else:
                term = term * fs.FieldExpr.function(atom[1], atom[2], dim)
        total = total + term
    return total


def _kernel(fs, name: str, dim: int):
    """The symmetric and antisymmetric kernels of the verification suites."""
    first = (1,) + (0,) * (dim - 1)
    if name == "sym":
        return fs.Kernel.delta(dim) + fs.Kernel.derivative_delta(
            dim, (2,) + (0,) * (dim - 1), fs.GRat(1, 1))
    if name == "anti":
        return fs.Kernel.derivative_delta(dim, first) \
            + fs.Kernel.derivative_delta(dim, (0,) * (dim - 1) + (1,), fs.I)
    if name == "delta":
        return fs.Kernel.delta(dim)
    if name == "d1":
        return fs.Kernel.derivative_delta(dim, first)
    raise ValueError(f"unknown kernel {name!r}")


def _system(fs, pairing: str, dim: int):
    return fs.real_system(dim) if pairing == "real" else fs.complex_system(dim)


def _zero(value):
    return None if value.is_zero() else "nonzero residual"


def _all_zero(values):
    return None if all(v.is_zero() for v in values) else "nonzero residual"


def _no_error(_value):
    return None


# ---------------------------------------------------------------------------
# verify-gate: the exact-zero suites of acceptance criteria 2, 3 and 9

# A round holds the op counts of tier-1 criteria 2, 3 and 9 (the exact-zero
# suites of the real and complex pairings) divided by 25.  Measured on
# tier-1's own seeds (a 2-core host, Python 3.11), the time of those
# criteria splits as Jacobi in dim 1 28%, Jacobi in dim 3 43%, associativity
# 27%, semiclassical 1.8%, closed forms 0.5% and duality under 0.1%.  On the
# tier-1 generator's inputs this round splits the same way; on its own
# fixed-shape inputs, whose dim-3 Jacobi triples cost about 1.3 times the
# generator's, Jacobi takes about three quarters (see design.json).
# Per kernel class: (pairing, dim) -> Jacobi triples.
JACOBI_COUNTS = {("real", 1): 2, ("real", 3): 2,
                 ("complex", 1): 2, ("complex", 3): 1}
SEMICLASSICAL_COUNT = 2   # per kernel class, complex pairing only
# Shapes (jet orders of each term's factors) within the acceptance suites'
# bounds: degree <= 3, jet order <= 1 (<= 2 for duality).  Jacobi and
# semiclassical inputs have one term each of degree 1, 2 and 3, as the
# tier-1 generator gives on average; three associativity inputs of two terms
# of degree <= 2 have degrees (1, 2), (1, 2) and (1, 1).
THREE_TERMS = ((0,), (0, 1), (1, 0, 1))
TWO_TERMS = ((1,), (0, 1))
ASSOC_SHAPES = (TWO_TERMS, TWO_TERMS, ((0,), (1,)))
DUALITY_TERMS = ((2,), (0, 1), (1, 2, 0))


def _verify_round(rng: random.Random) -> list:
    ops = []
    for (pairing, dim), count in JACOBI_COUNTS.items():
        for kernel in ("sym", "anti"):
            for _ in range(count):
                ops.append({"kind": f"jacobi-d{dim}", "pairing": pairing,
                            "dim": dim, "kernel": kernel,
                            "exprs": [_poly(rng, SORTS[pairing], dim,
                                            THREE_TERMS, i)
                                      for i in range(3)]})
    for pairing in ("real", "complex"):
        for kernel in ("sym", "anti"):
            for level in range(1, 6):
                ops.append({"kind": f"assoc-{level}", "pairing": pairing,
                            "dim": 1, "kernel": kernel, "level": level,
                            "exprs": [
                                _poly(rng, SORTS[pairing], 1, shape, i)
                                for i, shape in enumerate(ASSOC_SHAPES)]})
    sorts = SORTS["complex"]
    # tier-1 runs each closed form about half as often as this round would
    # run all four per kernel class: the seed picks which class gets the two
    # brackets and which the two stars
    forms = [("fd-bracket", "ff-bracket"), ("fd-star", "ff-star")]
    rng.shuffle(forms)
    for kernel, kernel_forms in zip(("sym", "anti"), forms):
        for _ in range(SEMICLASSICAL_COUNT):
            ops.append({"kind": "semiclassical", "pairing": "complex",
                        "dim": 1, "kernel": kernel,
                        "exprs": [_poly(rng, sorts, 1, THREE_TERMS, i)
                                  for i in range(2)]})
        F, G, g = (_poly(rng, sorts, 1, TWO_TERMS, i) for i in range(3))
        for form in kernel_forms:
            ops.append({"kind": f"closed-{form}", "pairing": "complex",
                        "dim": 1, "kernel": kernel, "form": form,
                        "exprs": [F, G, g]})
    function = ["U", sorts[0]] if rng.random() < 0.3 else None
    indices = [[0], [1], [2]]
    gens = [[rng.choice(sorts), rng.choice(indices)]
            for _ in range(rng.randint(1, 2))]
    ops.append({"kind": "duality-op", "pairing": "complex", "dim": 1,
                "expr": _poly(rng, sorts, 1, DUALITY_TERMS, 0, function),
                "generators": gens, "scale": _coeff(rng, imaginary=True)})
    ops.append({"kind": "duality-power", "pairing": "complex", "dim": 1,
                "expr": _poly(rng, sorts, 1, DUALITY_TERMS),
                "sort": rng.choice(sorts), "index": rng.choice(indices),
                "power": rng.randint(1, 3)})
    return ops


def _verify_op(fs, spec: dict) -> tuple:
    dim = spec["dim"]
    system = _system(fs, spec["pairing"], dim)
    kind = spec["kind"]
    if kind.startswith("duality"):
        f = _field(fs, spec["expr"], dim)
        if kind == "duality-op":
            op = fs.ELOperator.identity(dim, "x")
            for sort, index in spec["generators"]:
                op = op.compose(fs.ELOperator.generator(sort, tuple(index),
                                                        "x", dim))
            op = op.scale(_grat(fs, spec["scale"]))
            return lambda: fs.duality_residual(op, f, "y"), _zero
        return (lambda: fs.el_power_duality_residual(
            f, spec["sort"], tuple(spec["index"]), spec["power"], "x", "y"),
            _zero)
    P = _kernel(fs, spec["kernel"], dim)
    exprs = [_field(fs, e, dim) for e in spec["exprs"]]
    if kind.startswith("jacobi"):
        f, g, h = exprs
        return lambda: fs.jacobi_residual(f, g, h, P, system), _zero
    if kind.startswith("assoc"):
        f, g, h = exprs
        level = spec["level"]
        return (lambda: fs.assoc_residuals(f, g, h, P, system, level, 4),
                _all_zero)
    if kind == "semiclassical":
        f, g = exprs
        return (lambda: fs.commutator_semiclassical(f, g, P, system),
                lambda s: _all_zero([s.coefficient(0), s.coefficient(1)]))
    F, G = (fs.Functional(e, system) for e in exprs[:2])
    g = exprs[2]
    # cross_check=True raises AssertionError when the closed form disagrees
    run = {
        "fd-bracket": lambda: fs.bracket_functional_density(
            F, g, P, system, cross_check=True),
        "ff-bracket": lambda: fs.bracket_functionals(
            F, G, P, system, cross_check=True),
        "fd-star": lambda: fs.star_functional_density(
            F, g, P, system, order=4, cross_check=True),
        "ff-star": lambda: fs.star_functionals(
            F, G, P, system, order=4, cross_check=True),
    }[spec["form"]]
    return run, _no_error


def _verify_make(fs, spec: dict, _root: Path) -> tuple:
    run, check = _verify_op(fs, spec)
    return run, check, None, None


_PHI, _PI, _ONE = ["j", "phi", [0]], ["j", "pi", [0]], [1, 1, 0, 1]
VERIFY_WARMUP = ({"kind": "jacobi-d1", "pairing": "real", "dim": 1,
                  "kernel": "sym", "exprs": [[[_ONE, [_PHI]]], [[_ONE, [_PI]]],
                                             [[_ONE, [_PHI, _PI]]]]},)


# ---------------------------------------------------------------------------
# star-degree: star_fn at order 20 on growing powers of linear factors

STAR_DEGREES = (4, 5, 6)
STAR_ORDER = 20


def _star_coeffs(rng: random.Random) -> list:
    """The coefficients 1, 2 and 1/2 in a random order with random signs:
    the seed changes every coefficient of the product while the size of
    the rationals, and with it an op's cost, stays the same."""
    magnitudes = [(1, 1), (2, 1), (1, 2)]
    rng.shuffle(magnitudes)
    return [[rng.choice((-1, 1)) * num, den, 0, 1] for num, den in magnitudes]


def _star_round(rng: random.Random) -> list:
    return [{"kind": f"e={e}", "degree": e, "kernel": kernel,
             "f": _star_coeffs(rng), "g": _star_coeffs(rng)}
            for e in STAR_DEGREES for kernel in ("delta", "d1")]


def _star_op(fs, spec: dict, _root: Path) -> tuple:
    from fieldstar.render import dumps_canonical, to_json

    system = fs.real_system(1)
    P = _kernel(fs, spec["kernel"], 1)
    e = spec["degree"]

    def linear(coeffs, atoms):
        return _field(fs, [[c, [a]] for c, a in zip(coeffs, atoms)], 1)

    # f = (a1 phi[1] + a2 pi[1] + a3 phi)^e, g = (b1 phi[2] + b2 pi + b3 pi[1])^e
    f = linear(spec["f"], [["j", "phi", [1]], ["j", "pi", [1]],
                           ["j", "phi", [0]]]) ** e
    g = linear(spec["g"], [["j", "phi", [2]], ["j", "pi", [0]],
                           ["j", "pi", [1]]]) ** e

    def check(S):
        if not S.exact:
            return "series not proven exact"
        product = (fs.TensorExpr.from_field(f, "x")
                   * fs.TensorExpr.from_field(g, "y"))
        if S.coefficient(0) != product:
            return "hbar^0 differs from the plain product"
        if S.coefficient(1) != fs.bracket_fn(f, g, P, system):
            return "hbar^1 differs from the bracket"
        return None

    return (lambda: fs.star_fn(f, g, P, system, order=STAR_ORDER), check,
            lambda S: output_digest(dumps_canonical(to_json(S))),
            lambda S: sum(len(T.terms) for T in S.coeffs.values()))


STAR_WARMUP = ({"kind": "e=2", "degree": 2, "kernel": "delta",
                "f": [_ONE] * 3, "g": [_ONE] * 3},)


# ---------------------------------------------------------------------------
# cli-session: in-process fieldstar.cli.main with captured output

EOM_EXPECTED = {
    ("configs/kg.json", "pi"): "laplacian(phi) - m^2*phi - U'(phi)",
    ("configs/kg.json", "phi"): "pi",
    ("configs/nls.json", "psi"): "-laplacian(psi) + 2*kappa*psi^2*psibar",
}
# kernel text -> the parity `classify` must print
CLI_KERNELS = {"delta": "symmetric", "i*delta": "symmetric",
               "d1 delta": "antisymmetric", "d1^2 delta + 2*delta": "symmetric",
               "d2 delta - i*d3 delta": "antisymmetric"}
_CLI_ATOMS = ("phi", "pi", "phi[1,0,0]", "pi[0,1,0]", "phi[0,0,1]",
              "d1(phi)", "d2(pi)")
_CLI_COEFFS = ("1", "2", "3", "1/2", "3/2", "i", "2*i")


def _cli_text(rng: random.Random, terms: int, atoms=_CLI_ATOMS) -> str:
    """Grammar text of ``terms`` terms, each a coefficient times two atoms."""
    out = []
    for n in range(terms):
        term = "*".join([rng.choice(_CLI_COEFFS), rng.choice(atoms),
                         rng.choice(atoms)])
        out.append(term if n == 0 else rng.choice(("+ ", "- ")) + term)
    return " ".join(out)


def _cli_round(rng: random.Random) -> list:
    f = lambda: _cli_text(rng, 2)  # noqa: E731
    kernel = lambda: rng.choice(sorted(CLI_KERNELS))  # noqa: E731
    argvs = [["eom", "--config", cfg, "--field", field]
             for cfg, fields in (("configs/kg.json", ("phi", "pi")),
                                 ("configs/nls.json", ("psi", "psibar")))
             for field in fields]
    # The eom ops take about twice as long as the others, so with one of
    # each other command the median op fell in the gap between the two
    # groups and moved with every tail.  Two of each puts the median among
    # the bracket and star ops, which lie close together.
    for _ in range(2):
        density = _cli_text(rng, 3, _CLI_ATOMS + ("m^2*phi", "U(phi)",
                                                   "laplacian(phi)"))
        argvs += [
            ["vardiff", density, "--field", rng.choice(("phi", "pi"))],
            ["bracket", f(), f(), "--kernel", kernel()],
            ["star", f(), f(), "--kernel", kernel()],
            ["star", f(), f(), "--kernel", kernel(), "--json"],
            ["classify", "--kernel", kernel()],
        ]
    return [{"kind": "star-json" if "--json" in argv else argv[0],
             "argv": argv} for argv in argvs]


def _cli_op(_fs, spec: dict, root: Path) -> tuple:
    import fieldstar.cli

    argv = list(spec["argv"])
    expected = None
    if argv[0] == "eom":
        expected = EOM_EXPECTED.get((argv[2], argv[4]))
        argv[2] = str(root / argv[2])
    elif argv[0] == "classify":
        expected = CLI_KERNELS[argv[2]]

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = fieldstar.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def check(result):
        code, out, err = result
        if code != 0:
            return f"exit {code}: {err.strip()}"
        if expected is not None and out.strip() != expected:
            return f"printed {out.strip()!r}, expected {expected!r}"
        return None

    return run, check, lambda result: output_digest(result[1]), None


CLI_WARMUP = tuple({"kind": argv[0], "argv": argv} for argv in (
    ["eom", "--config", "configs/kg.json", "--field", "pi"],
    ["vardiff", "d1(phi)^2", "--field", "phi"],
    ["bracket", "phi", "pi"],
    ["star", "phi", "pi"],
    ["star", "phi", "pi", "--json"],
    ["classify", "--kernel", "d1 delta"],
))


# ---------------------------------------------------------------------------
# the workload table

def _pinned(check, digest, golden):
    def pinned_check(result):
        return check(result) or (
            None if digest(result) == golden
            else "output differs from the golden pinned in goldens.json")
    return pinned_check


@dataclass(frozen=True)
class Workload:
    name: str
    make_round: Callable  # rng -> the op specs of one round
    warmup: tuple         # fixed op specs, run in every set-up
    make_op: Callable     # (fieldstar, op spec, root) -> (run, check, digest, size)
    rounds: int           # distinct rounds in the spec; runs cycle through them
    trace_rounds: int     # whole rounds the traced run measures
    largest_kind: str     # op kind whose median latency is largest_op_s

    def spec(self, seed: int) -> dict:
        rng = random.Random(f"{self.name}:{seed}")
        return {"workload": self.name, "seed": seed,
                "warmup": list(self.warmup),
                "rounds": [self.make_round(rng) for _ in range(self.rounds)]}

    def build(self, spec: dict, root: Path, goldens: dict | None) -> tuple:
        """(warm-up ops, rounds of ops); goldens maps op keys to digests."""
        import fieldstar as fs

        goldens = goldens or {}

        def build_op(key, op_spec):
            run, check, digest, size = self.make_op(fs, op_spec, root)
            golden = goldens.get(key)
            if golden is not None:
                check = _pinned(check, digest, golden)
            return Op(key, op_spec["kind"], run, check, digest, size)

        warmup = [build_op(f"w{i}", s) for i, s in enumerate(spec["warmup"])]
        rounds = [[build_op(f"r{r}o{i}", s) for i, s in enumerate(ops)]
                  for r, ops in enumerate(spec["rounds"])]
        return warmup, rounds


WORKLOADS = {w.name: w for w in (
    Workload("verify-gate", _verify_round, VERIFY_WARMUP, _verify_make,
             rounds=12, trace_rounds=1, largest_kind="jacobi-d3"),
    Workload("star-degree", _star_round, STAR_WARMUP, _star_op,
             rounds=8, trace_rounds=1, largest_kind="e=6"),
    Workload("cli-session", _cli_round, CLI_WARMUP, _cli_op,
             rounds=48, trace_rounds=20, largest_kind="eom"),
)}
