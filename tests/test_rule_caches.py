"""The process-wide caches of the jet calculus never change a result.

``jets.mi_add``, ``jets._partial_mon``, ``jets._derivative_mon``,
``tensor._by_parts`` and ``sigma._block_partials`` are ``lru_cache``s shared
by every call in the process.  Stars, Jacobi residuals, associativity
residuals and the tail of a functional-density star, which integrates by
parts, must come out byte for byte the same whether the caches are warm
or were just cleared, every cached value must be a tuple (a shared value
that a caller could mutate would leak into later calls), and a cache must
stay within its bound however many distinct arguments it sees.
"""

import random

import pytest

from fieldstar import jets, sigma, tensor
from fieldstar.jets import (RULE_CACHE_SIZE, complex_system, func_atom, jet_atom,
                            real_system)
from fieldstar.poisson import Functional, jacobi_residual
from fieldstar.randexpr import random_density, random_expr
from fieldstar.render import dumps_canonical, to_json
from fieldstar.star import assoc_residuals, star_fn, star_functional_density
from fieldstar.verify import default_kernels

CACHED = (jets.mi_add, jets._partial_mon, jets._derivative_mon,
          tensor._by_parts, sigma._block_partials)


def _clear_all():
    for rule in CACHED:
        rule.cache_clear()


def _outputs(dim: int, system) -> str:
    """Canonical JSON of a star, a Jacobi residual, the level-4
    associativity residuals and the tail of a functional-density star under
    both default kernels."""
    rng = random.Random(f"rule-caches:{dim}:{system.primary}")
    out = []
    for P in default_kernels(dim):
        f, g, h = (random_expr(system, rng, max_degree=2, max_jet_order=1,
                               terms=2) for _ in range(3))
        out.append(dumps_canonical(to_json(star_fn(f, g, P, system, order=4))))
        out.append(dumps_canonical(to_json(jacobi_residual(f, g, h, P, system))))
        f, g, h = (random_density(system, rng, max_degree=2, max_jet_order=1,
                                  terms=2) for _ in range(3))
        out += [dumps_canonical(to_json(r))
                for r in assoc_residuals(f, g, h, P, system, 4)]
        tail = star_functional_density(Functional(f, system), g, P, system,
                                       order=4).tail
        out += [f"{k}: {dumps_canonical(to_json(v))}"
                for k, v in sorted(tail.items())]
    return "\n".join(out)


@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("make_system", [real_system, complex_system])
def test_cache_state_never_changes_a_result(dim, make_system):
    system = make_system(dim)
    warm = _outputs(dim, system)  # caches hold whatever earlier calls left
    _clear_all()
    cold = _outputs(dim, system)
    again = _outputs(dim, system)  # every rule now hits its own entries
    assert cold == warm
    assert again == warm
    assert all(rule.cache_info().hits for rule in CACHED)


def test_every_cached_rule_returns_a_tuple():
    phi0, phi1 = jet_atom("phi", (0,)), jet_atom("phi", (1,))
    U = func_atom("U", "phi")
    mon = (U, phi0, phi1, phi1)
    block = tuple(("x", atom) for atom in mon)
    values = [jets.mi_add((1, 0), (0, 2)),
              jets._partial_mon(mon, "phi", (0,)),
              jets._partial_mon(mon, "phi", (1,)),
              jets._partial_mon(mon, "pi", (0,)),
              jets._derivative_mon(mon, (1,)),
              sigma._block_partials(block, "x", "phi", 1, 1),
              sigma._block_partials(block, "x", "pi", 0, 1)]
    # a total derivative, and an integration by parts against (x, y, (1,))
    by_parts = [tensor._by_parts(mon, (("x", "z", (1,)),), "x", (2,)),
                tensor._by_parts(mon, (("x", "y", (1,)), ("x", "z", (0,))),
                                 "x", None)]
    for value in values:
        assert type(value) is tuple
    for value in values[1:]:
        assert all(type(part) is tuple for part in value)
    assert values[0] == (1, 2)
    assert values[3] == () and values[6] == ()
    for (label, rows), want in zip(by_parts, ("x", "y")):
        assert label == want and rows and type(rows) is tuple
        assert all(type(row) is tuple and type(row[0]) is tuple
                   and type(row[1]) is tuple for row in rows)


def test_caches_stay_within_their_bound():
    for rule in CACHED:
        assert rule.cache_info().maxsize == RULE_CACHE_SIZE
    many = 2 * RULE_CACHE_SIZE
    for i in range(many):
        mon = (jet_atom("phi", (i,)),)
        jets.mi_add((i,), (1,))
        jets._partial_mon(mon, "phi", (i,))
        jets._derivative_mon(mon, (1,))
        sigma._block_partials((("x", mon[0]),), "x", "phi", 0, 1)
        tensor._by_parts(mon, (), "x", (1,))
    for rule in CACHED:
        assert rule.cache_info().currsize <= RULE_CACHE_SIZE
    _clear_all()
