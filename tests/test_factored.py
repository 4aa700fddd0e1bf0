"""Partial states, scoped functions, and the shared table-order convention."""

import random
from fractions import Fraction

import pytest

from fmdp.errors import InvalidInputError
from fmdp.factored import (
    EMPTY_STATE,
    PartialState,
    ScopedFn,
    assignments,
    consistent,
    instantiate,
    restrict,
)
from fmdp.values import format_rational, parse_rational

# A two-variable binary example used throughout: W is value 0, B is value 1.
W, B = 0, 1


def test_restrict_projects_and_drops():
    s = PartialState.of({1: W, 3: B})
    assert restrict(s, {1}) == PartialState.of({1: W})
    assert restrict(s, set()) == EMPTY_STATE
    assert restrict(s, {2, 3}) == PartialState.of({3: B})


def test_consistent_matches_restriction():
    s = PartialState.of({1: W, 3: B})
    assert consistent(s, PartialState.of({1: W}))
    assert not consistent(s, PartialState.of({2: B}))
    assert consistent(s, EMPTY_STATE)
    assert consistent(EMPTY_STATE, EMPTY_STATE)
    # t assigning a variable s does not mention is inconsistent
    assert not consistent(s, PartialState.of({0: W}))


def test_partial_state_rejects_duplicates():
    with pytest.raises(ValueError):
        PartialState(((1, 0), (1, 1)))
    with pytest.raises(ValueError):
        PartialState(((3, 0), (1, 1)))


def test_override_prefers_other():
    s = PartialState.of({0: W, 1: W})
    t = PartialState.of({1: B, 2: B})
    assert s.override(t) == PartialState.of({0: W, 1: B, 2: B})


def test_assignments_order_and_count():
    dims = [2, 2, 2]
    assert assignments(set(), dims) == [EMPTY_STATE]
    assert assignments({0}, dims) == [PartialState.of({0: 0}), PartialState.of({0: 1})]
    # lowest variable most significant: variable 2 cycles fastest
    got = assignments({0, 2}, dims)
    assert got == [
        PartialState.of({0: 0, 2: 0}),
        PartialState.of({0: 0, 2: 1}),
        PartialState.of({0: 1, 2: 0}),
        PartialState.of({0: 1, 2: 1}),
    ]


def test_scoped_fn_indexing_matches_assignments():
    dims = [2, 3, 2]
    f = ScopedFn.tabulate({0, 1}, dims, lambda x: 10 * x.value(0) + x.value(1))
    assert f.scope == (0, 1)
    assert f.card == (2, 3)
    assert f.table == (0, 1, 2, 10, 11, 12)
    for i, x in enumerate(assignments({0, 1}, dims)):
        assert f.index_of(x) == i
    # extra assigned variables outside the scope are ignored
    assert f(PartialState.of({0: 1, 1: 2, 2: 0})) == 12


def test_scoped_fn_validation():
    with pytest.raises(ValueError):
        ScopedFn((0, 1), (2,), (1, 2))
    with pytest.raises(ValueError):
        ScopedFn((1, 0), (2, 2), (1, 2, 3, 4))
    with pytest.raises(ValueError):
        ScopedFn((0,), (2,), (1, 2, 3))
    with pytest.raises(ValueError):
        ScopedFn((0,), (0,), ())


def test_instantiate_shrinks_scope():
    dims = [2, 2, 2]
    f = ScopedFn.tabulate({1, 2}, dims, lambda x: 10 * x.value(1) + x.value(2))
    g = instantiate(f, PartialState.of({1: W}))
    assert g.scope == (2,)
    assert g(PartialState.of({2: B})) == f(PartialState.of({1: W, 2: B}))
    # instantiating with the empty state is the identity
    assert instantiate(f, EMPTY_STATE) is f
    # fixing the whole scope leaves a constant
    h = ScopedFn.tabulate({0}, dims, lambda x: x.value(0) + 7)
    c = instantiate(h, PartialState.of({0: 1}))
    assert c.scope == ()
    assert c(EMPTY_STATE) == 8


def test_instantiate_composes_on_disjoint_domains():
    rng = random.Random(11)
    dims = [2, 3, 2, 3]
    for _ in range(50):
        scope = tuple(sorted(rng.sample(range(4), rng.randint(1, 4))))
        f = ScopedFn.tabulate(scope, dims, lambda x: rng.randint(-5, 5))
        vars_t = [v for v in range(4) if rng.random() < 0.4]
        vars_u = [v for v in range(4) if v not in vars_t and rng.random() < 0.4]
        t = PartialState.of({v: rng.randrange(dims[v]) for v in vars_t})
        u = PartialState.of({v: rng.randrange(dims[v]) for v in vars_u})
        assert instantiate(instantiate(f, t), u) == instantiate(f, t.override(u))


def test_scope_soundness_random_agreement():
    rng = random.Random(7)
    dims = [2, 2, 3, 2]
    f = ScopedFn.tabulate({1, 3}, dims, lambda x: rng.randint(0, 99))
    for _ in range(30):
        shared = {1: rng.randrange(2), 3: rng.randrange(2)}
        x = PartialState.of({**shared, 0: rng.randrange(2)})
        y = PartialState.of({**shared, 2: rng.randrange(3)})
        assert f(x) == f(y)


def test_rational_parse_and_format():
    assert parse_rational("9/10") == Fraction(9, 10)
    assert parse_rational(" -3 ") == Fraction(-3)
    assert parse_rational("0.9") == Fraction(9, 10)
    assert format_rational(Fraction(9, 10)) == "9/10"
    assert format_rational(Fraction(4, 2)) == "2"
    assert parse_rational(".5") == Fraction(1, 2) and parse_rational("1.") == 1
    # Fraction reads these too; an exponent costs a power of ten as long as
    # the exponent says ("1e999999999" would not finish).
    for bad in ["", "1/0", "x", "1/2/3", "1e5", "1E-3", "1_000", "\u0661\u0662"]:
        with pytest.raises(InvalidInputError):
            parse_rational(bad)
