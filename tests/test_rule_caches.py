"""The process-wide caches of the jet calculus never change a result.

``jets.mi_add``, ``jets._partial_mon``, ``jets._derivative_mon`` and
``tensor._by_parts`` are ``lru_cache``s shared by every call in the
process, and the operator's key table (``sigma._keys``), with the blocks'
derivation rules, by every call in one thread.  Stars, Jacobi residuals,
associativity residuals and the tail of a functional-density star, which
integrates by parts, must come out byte for byte the same whether the
caches and the table are warm or were just cleared, every cached value
must be a tuple (a shared value that a caller could mutate would leak into
later calls), and a cache must stay within its bound however many distinct
arguments it sees; the table is replaced once it passes its bound, and a
generator that captured the old one yields what it yields alone.
"""

import random
import sys
import threading

import pytest

from fieldstar import jets, sigma, tensor
from fieldstar.jets import (ONE, RULE_CACHE_SIZE, FieldExpr, complex_system,
                            func_atom, jet_atom, real_system)
from fieldstar.kernels import Kernel
from fieldstar.poisson import Functional, bracket_fn, jacobi_residual
from fieldstar.randexpr import random_density, random_expr
from fieldstar.render import dumps_canonical, to_json
from fieldstar.sigma import sigma_terms
from fieldstar.star import assoc_residuals, star_fn, star_functional_density
from fieldstar.tensor import TensorExpr
from fieldstar.verify import default_kernels

CACHED = (jets.mi_add, jets._partial_mon, jets._derivative_mon,
          tensor._by_parts)


def _clear_all():
    for rule in CACHED:
        rule.cache_clear()
    sigma._local.keys = sigma._Keys()  # this thread's next capture is cold


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
    keys = sigma._Keys()
    bid = keys.rest(tuple(("x", atom) for atom in mon))[0]
    values = [jets.mi_add((1, 0), (0, 2)),
              jets._partial_mon(mon, "phi", (0,)),
              jets._partial_mon(mon, "phi", (1,)),
              jets._partial_mon(mon, "pi", (0,)),
              jets._derivative_mon(mon, (1,)),
              keys.rule(bid, "phi", 1, 1),
              keys.rule(bid, "pi", 0, 1)]
    # a total derivative, and an integration by parts against (x, y, (1,))
    by_parts = [tensor._by_parts(mon, (("x", "z", (1,)),), "x", (2,)),
                tensor._by_parts(mon, (("x", "y", (1,)), ("x", "z", (0,))),
                                 "x", None)]
    for value in values:
        assert type(value) is tuple
    for value in values[1:]:
        assert all(type(part) is tuple for part in value)
    for ids, _index, _factor in values[5]:
        assert type(ids) is tuple and len(ids) == 1
    assert keys.rule(bid, "phi", 1, 1) is values[5]  # kept in the table
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
        tensor._by_parts(mon, (), "x", (1,))
    for rule in CACHED:
        assert rule.cache_info().currsize <= RULE_CACHE_SIZE
    _clear_all()


def _entries(keys) -> int:
    return len(keys.ids) + len(keys.rests) + len(keys.rules) \
        + sum(map(len, keys.atoms.values()))


def _generator(f: FieldExpr, g: FieldExpr, P: Kernel):
    pair = (TensorExpr.from_field(f, "x"), TensorExpr.from_field(g, "y"))
    return sigma_terms([([pair], "x", "y")], P, real_system(1))


def _json(T) -> str:
    return dumps_canonical(to_json(T))


def test_a_table_past_its_bound_is_replaced_at_the_next_capture():
    bound = 4 * RULE_CACHE_SIZE
    phi, pi = FieldExpr.jet("phi", (0,)), FieldExpr.jet("pi", (0,))
    f = phi * FieldExpr.jet("pi", (1,)) + phi * phi
    g = pi * pi * FieldExpr.jet("phi", (1,)) + pi
    P = default_kernels(1)[0]
    alone = [_json(T) for T in _generator(f, g, P)]
    assert len(alone) >= 2
    early = _generator(f, g, P)
    powers = [_json(next(early))]  # captured the table, kept to its end
    table = sigma._keys()
    # one generator whose first power interns n delta parts and n atom
    # entries, one per jet index of its n-term operand
    n = bound // 2 + 8
    many = FieldExpr(1, {(jet_atom("phi", (i,)),): ONE for i in range(n)})
    next(_generator(many, pi, Kernel.delta(1)))
    assert _entries(table) > bound
    fresh = sigma._keys()
    assert fresh is not table and _entries(fresh) == 0
    # a generator on the fresh table, advanced in alternation with the early
    # one: each yields what it yields alone
    late, later = _generator(f, g, P), []
    for _ in alone:
        powers += [_json(T) for T in [next(early, None)] if T is not None]
        later.append(_json(next(late)))
    assert next(early, None) is None and next(late, None) is None
    assert powers == alone and later == alone
    assert sigma._keys() is fresh and 0 < _entries(fresh) < bound


def test_each_thread_captures_its_own_table():
    # more threads than cores, switching often: each thread interns into a
    # table of its own, and its outputs equal this thread's
    system = real_system(1)
    want = _outputs(1, system)
    here = sigma._keys()
    tables, outputs = {}, {}

    def run(i):
        tables[i] = sigma._keys()
        outputs[i] = _outputs(1, system)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len({id(t) for t in [here, *tables.values()]}) == 4
    assert sigma._keys() is here
    assert list(outputs.values()) == [want] * 3


def test_a_rule_holds_for_the_dimension_it_was_derived_in():
    # the block U(phi)@x has one value, and so one id, in every dimension,
    # while its partial by phi adds the zero index of the dimension: one
    # thread's table brackets it with pi@y in dim 1 and then in dim 3, and
    # each bracket equals the one a cold table makes
    def bracket(dim):
        U = FieldExpr(dim, {(func_atom("U", "phi"),): ONE})
        pi = FieldExpr.jet("pi", (0,) * dim)
        return _json(bracket_fn(U, pi, Kernel.delta(dim), real_system(dim)))

    cold = {}
    for dim in (1, 3):
        sigma._local.keys = sigma._Keys()
        cold[dim] = bracket(dim)
    assert cold[1] != cold[3]
    for dims in ((1, 3), (3, 1)):
        table = sigma._local.keys = sigma._Keys()
        assert [bracket(dim) for dim in dims] == [cold[dim] for dim in dims]
        assert sigma._keys() is table
