"""Pretty-printing and canonical JSON serialization.

Text output uses the same grammar the parser reads, so rendered field
expressions, densities, and kernels round-trip.  Tensor
expressions render with explicit point labels (``phi{x}``, ``delta{x,y}``)
for diagnostics; they are not part of the input grammar.

Display order is decided here alone.  The engine keeps a monomial's atoms
in tuple order, where ``phi[0,2,0]`` precedes ``phi[1,0,0]``; text and JSON
show each sort's jets graded-lexicographically, lower orders first, and
every other atom as stored.

Canonical JSON is byte-stable: term arrays are emitted in display order,
rationals as "p/q" strings, Gaussian rationals as {"re", "im"} objects,
and all object keys sorted.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

from .jets import FieldExpr, mi_order
from .kernels import Kernel
from .rationals import GRat
from .tensor import TensorExpr


# ---------------------------------------------------------------------------
# coefficient rendering

class DigitLimitError(ValueError):
    """A coefficient too long to render: Python's int-to-str conversion
    refuses more than sys.get_int_max_str_digits() digits."""


def _frac(q: Fraction) -> str:
    try:
        return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
    except ValueError:
        raise DigitLimitError(
            f"coefficient exceeds the {sys.get_int_max_str_digits()}-digit "
            "limit of int-to-str conversion") from None


def render_grat(c: GRat) -> str:
    """A Gaussian rational in grammar form: `p/q`, `i`, `3/2*i`, `(1 + 2*i)`."""
    re, im = c.re, c.im
    if not im:
        return _frac(re)
    if im == 1:
        im_part = "i"
    elif im == -1:
        im_part = "-i"
    else:
        im_part = f"{_frac(im)}*i"
    if not re:
        return im_part
    joiner = " - " if im_part.startswith("-") else " + "
    return f"({_frac(re)}{joiner}{im_part.lstrip('-')})"


def _coeff_prefix(c: GRat, has_factors: bool) -> tuple[str, str]:
    """(sign, magnitude-with-star) for use at the head of a term."""
    if not c.im and c.re < 0:
        sign, c = "-", -c
    elif not c.re and c.im < 0:
        sign, c = "-", -c
    else:
        sign = "+"
    if has_factors and c == 1:
        return sign, ""
    body = render_grat(c)
    return sign, body + ("*" if has_factors else "")


def _join_terms(entries) -> str:
    """Signed sum of (coefficient, body) terms, e.g. `a - 2*b + c`."""
    out = []
    for c, body in entries:
        sign, mag = _coeff_prefix(c, bool(body))
        piece = mag + body
        if out:
            out.append(f"{sign} {piece}")
        else:
            out.append(piece if sign == "+" else f"-{piece}")
    return " ".join(out) or "0"


# ---------------------------------------------------------------------------
# field expressions

def _index_str(index) -> str:
    return ",".join(str(k) for k in index)


def _atom_str(atom, label: str | None = None) -> str:
    """An atom in grammar form; tensor expressions add its ``{label}``."""
    at = "" if label is None else f"{{{label}}}"
    kind = atom[0]
    if kind == "c":
        return atom[1]
    if kind == "f":
        _, name, order, arg_sort, _vanishes = atom
        return f"{name}{chr(39) * order}({arg_sort}{at})"
    _, sort, index = atom
    if mi_order(index) == 0:
        return f"{sort}{at}"
    return f"{sort}{at}[{_index_str(index)}]"


def _display_terms(value) -> dict:
    """The terms of a field or tensor expression with each monomial in
    display order: a stable sort on ``key`` puts jets of one sort in graded
    order and leaves every other atom where tuple order stored it."""
    if value.dim == 1:  # one-entry indices: lexicographic order is graded
        return value.terms

    def key(atom):
        return atom[:2] + (mi_order(atom[2]),) if atom[0] == "j" else atom[:2]
    if isinstance(value, FieldExpr):
        return {tuple(sorted(mon, key=key)): c for mon, c in value.terms.items()}
    return {(tuple(sorted(mon, key=lambda la: (la[0], key(la[1])))), deltas): c
            for (mon, deltas), c in value.terms.items()}


def _monomial_str(mon) -> str:
    parts = []
    i = 0
    while i < len(mon):
        j = i
        while j < len(mon) and mon[j] == mon[i]:
            j += 1
        base = _atom_str(mon[i])
        parts.append(base if j - i == 1 else f"{base}^{j - i}")
        i = j
    return "*".join(parts)


def _laplacian_groups(expr: FieldExpr):
    """Split terms into laplacian-sugar groups and a remainder.

    A group is a set of monomials differing only in one jet factor of the
    form 2*e_i with equal coefficients across every spatial direction; it
    renders as ``laplacian(sort)`` times the common cofactor.
    """
    dim = expr.dim
    terms = dict(expr.terms)
    groups = []
    if dim >= 1:
        candidates: dict = {}
        for mon, c in terms.items():
            for pos, atom in enumerate(mon):
                if atom[0] != "j":
                    continue
                index = atom[2]
                if mi_order(index) != 2 or max(index) != 2:
                    continue
                direction = index.index(2) + 1
                rest = mon[:pos] + mon[pos + 1:]
                candidates.setdefault((rest, atom[1]), {})[direction] = (mon, c)
        # in key order, so that a monomial in two complete groups goes to
        # the same one whatever the insertion order of the terms
        for (rest, sort), hits in sorted(candidates.items()):
            if len(hits) != dim:
                continue
            coeffs = {c for _m, c in hits.values()}
            if len(coeffs) != 1:
                continue
            mons = [m for m, _c in hits.values()]
            if any(m not in terms for m in mons):
                continue
            c = coeffs.pop()
            for m in mons:
                del terms[m]
            groups.append((rest, sort, c))
    return groups, terms


def _term_sort_key(mon):
    order = max((mi_order(a[2]) for a in mon if a[0] == "j"), default=0)
    return (-order, mon)


def render_field_expr(expr: FieldExpr) -> str:
    """Grammar-form text; laplacian sugar folds matched second-order sums."""
    groups, rest = _laplacian_groups(FieldExpr(expr.dim, _display_terms(expr)))
    entries = []
    for cofactor, sort, c in sorted(groups, key=lambda g: (g[1], g[0])):
        body = f"laplacian({sort})"
        if cofactor:
            body = f"{_monomial_str(cofactor)}*{body}"
        entries.append(((-3, cofactor), c, body))
    for mon, c in rest.items():
        entries.append((_term_sort_key(mon), c, _monomial_str(mon)))
    entries.sort(key=lambda e: e[0])
    return _join_terms((c, body) for _key, c, body in entries)


# ---------------------------------------------------------------------------
# kernels

def _gamma_str(gamma, delta: str = "delta") -> str:
    parts = []
    for direction, k in enumerate(gamma, start=1):
        if k == 1:
            parts.append(f"d{direction}")
        elif k > 1:
            parts.append(f"d{direction}^{k}")
    parts.append(delta)
    return " ".join(parts)


def render_kernel(P: Kernel) -> str:
    return _join_terms((P.terms[gamma], _gamma_str(gamma)) for gamma
                       in sorted(P.terms, key=lambda g: (mi_order(g), g)))


# ---------------------------------------------------------------------------
# tensor expressions

def render_tensor_expr(T: TensorExpr) -> str:
    entries = []
    for (mon, deltas), c in sorted(_display_terms(T).items()):
        factors = [_atom_str(atom, lab) for lab, atom in mon]
        factors += [_gamma_str(g, f"delta{{{a},{b}}}") for a, b, g in deltas]
        entries.append((c, "*".join(factors)))
    return _join_terms(entries)


# ---------------------------------------------------------------------------
# canonical JSON

def _grat_json(c: GRat):
    return {"re": _frac(c.re), "im": _frac(c.im)}


def _atom_json(atom):
    if atom[0] == "c":
        return ["c", atom[1]]
    if atom[0] == "f":
        return ["f", atom[1], atom[2], atom[3], bool(atom[4])]
    return ["j", atom[1], list(atom[2])]


def field_expr_json(expr: FieldExpr) -> dict:
    data = [[_grat_json(c), [_atom_json(a) for a in mon], []]
            for mon, c in sorted(_display_terms(expr).items())]
    return {"kind": "expr", "dim": expr.dim, "data": data}


def tensor_expr_json(T: TensorExpr) -> dict:
    data = [[_grat_json(c), [[lab, _atom_json(a)] for lab, a in mon],
             [[a, b, list(g)] for a, b, g in deltas]]
            for (mon, deltas), c in sorted(_display_terms(T).items())]
    return {"kind": "tensor", "dim": T.dim, "data": data}


def series_json(coeffs: dict, dim: int, order: int, exact: bool) -> dict:
    data = {str(k): tensor_expr_json(v)["data"] for k, v in sorted(coeffs.items())}
    return {"kind": "series", "dim": dim, "order": order,
            "exact": exact, "data": data}


def to_json(value) -> dict:
    """The canonical JSON of what a command prints: a field expression, a
    tensor expression or a series."""
    from .star import HbarSeries

    if isinstance(value, FieldExpr):
        return field_expr_json(value)
    if isinstance(value, TensorExpr):
        return tensor_expr_json(value)
    if isinstance(value, HbarSeries):
        return series_json(value.terms, value.dim, value.order, value.exact)
    raise TypeError(f"no canonical JSON form for {type(value).__name__}")


def dumps_canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
