"""Variable elimination against the explicit-enumeration reference."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmdp.elim import (
    ElimPlan,
    explicit_max,
    identity_order,
    max_sum,
    max_sum_decode,
    min_degree_order,
)
from fmdp.errors import InvalidInputError
from fmdp.factored import EMPTY_STATE, PartialState, ScopedFn
from fmdp.lpbuild import Tag

from helpers import (
    BIG_DENOMINATOR_LARGE,
    BIG_DENOMINATOR_SMALL,
    min_lp,
    priced,
    random_ext_table_fns,
    reference_at,
    reference_max_sum_decode,
    reference_plan,
    reference_sweep,
    sum_or_none,
    summands,
)

F = Fraction


def _swept(fns, order, dims):
    """The plan for ``fns`` and every slot's table after the exact sweep."""
    plan = ElimPlan.build(fns, order, dims)
    tables, _ = reference_sweep(plan, [f.table for f in fns])
    return plan, tables


def _worklists(plan, tables):
    """The functions still to combine after each round, as ScopedFns."""
    live = list(range(plan.inputs))
    for r, rnd in enumerate(plan.rounds):
        live = [s for s in live if s not in rnd.dependents] + [plan.inputs + r]
        yield [
            ScopedFn(plan.scopes[s], tuple(plan.dims[v] for v in plan.scopes[s]), tables[s])
            for s in live
        ]


def test_single_function_collapses_to_its_max():
    f = ScopedFn((0,), (2,), (F(1), F(3)))
    plan, tables = _swept([f], (0,), [2])
    assert plan.final == (1,)
    assert plan.scopes[1] == ()
    assert tables[1] == (F(3),)
    value, witness, swept = max_sum_decode(*priced([f], (0,), [2]))
    assert (value, witness) == (F(3), PartialState.of({0: 1}))
    assert list(map(list, swept)) == [[1, 3], [3]]


def test_step_with_no_dependent_functions_adds_constant_zero():
    f = ScopedFn((1,), (2,), (F(4), F(6)))
    plan, tables = _swept([f], (0, 1), [2, 2])
    first = plan.rounds[0]
    assert (first.var, first.dependents, first.scope_e) == (0, (), ())
    assert tables[1] == (F(0),)
    assert next(_worklists(plan, tables)) == [f, ScopedFn.constant(F(0))]


def test_step_hand_example_with_neg_inf():
    f1 = ScopedFn((0,), (2,), (F(1), F(3)))
    f2 = ScopedFn((0, 1), (2, 2), (F(0), None, F(2), F(5)))
    plan, tables = _swept([f1, f2], (0, 1), [2, 2])
    first = plan.rounds[0]
    assert (first.dependents, first.scope_e) == ((0, 1), (1,))
    # e(y) = max over x0 of f1(x0) + f2(x0, y)
    assert tables[2] == (F(5), F(8))  # max(1+0, 3+2), max(1-inf, 3+5)
    value, witness, swept = max_sum_decode(*priced([f1, f2], (0, 1), [2, 2]))
    assert (value, witness) == (F(8), PartialState.of({0: 1, 1: 1}))
    # Minus infinity is the stand-in -(2 * (3 + 5) + 1) in the swept tables.
    assert list(map(list, swept)) == [[1, 3], [0, -17, 2, 5], [5, 8], [8]]


def test_max_sum_constants_and_disjoint_scopes():
    assert max_sum(*priced([ScopedFn.constant(F(5))], (), [])) == F(5)
    f1 = ScopedFn((0,), (2,), (F(1), F(3)))
    f2 = ScopedFn((1,), (2,), (F(2), F(4)))
    assert max_sum(*priced([f1, f2], (0, 1), [2, 2])) == F(7)
    assert max_sum(*priced([], (0, 1), [2, 2])) == F(0)


def test_max_sum_all_excluded_is_neg_inf():
    dead = ScopedFn((0,), (2,), (None, None))
    live = ScopedFn((1,), (2,), (F(1), F(2)))
    assert max_sum(*priced([dead, live], (0, 1), [2, 2])) is None
    assert explicit_max([dead, live], [2, 2]) is None


def test_max_sum_rejects_bad_inputs():
    # The plan checks the kernel's inputs, once, as it is built.
    f = ScopedFn((3,), (2,), (F(0), F(1)))
    with pytest.raises(InvalidInputError):
        ElimPlan.build([f], (0, 1), [2, 2])
    with pytest.raises(InvalidInputError):
        ElimPlan.build([], (0, 0), [2, 2])
    with pytest.raises(InvalidInputError):
        ElimPlan.build([], (0,), [2, 2])
    with pytest.raises(InvalidInputError, match="cardinalities"):
        ElimPlan.build([ScopedFn((0,), (2,), (F(0), F(1)))], (0,), [3])


def test_worklist_count_invariant():
    rng = random.Random(3)
    for _ in range(20):
        fns, dims = random_ext_table_fns(rng, n_max=4)
        plan, tables = _swept(fns, identity_order(len(dims)), dims)
        # each round consumes its dependents and adds exactly one function
        assert len(plan.scopes) == len(tables) == len(fns) + len(dims)
        assert all(plan.scopes[s] == () for s in plan.final)
        last = list(_worklists(plan, tables))[-1]
        assert all(f.scope == () for f in last)


def test_invariant_max_preserved_per_step():
    rng = random.Random(17)
    for _ in range(40):
        fns, dims = random_ext_table_fns(rng, n_max=5)
        reference = explicit_max(fns, dims)
        plan, tables = _swept(fns, identity_order(len(dims)), dims)
        for worklist in _worklists(plan, tables):
            assert explicit_max(worklist, dims) == reference


def test_matches_explicit_max_on_random_instances():
    rng = random.Random(29)
    for _ in range(60):
        fns, dims = random_ext_table_fns(rng)
        order = list(range(len(dims)))
        rng.shuffle(order)
        assert max_sum(*priced(fns, tuple(order), dims)) == explicit_max(fns, dims)


def test_permutation_independence_small():
    rng = random.Random(41)
    for _ in range(10):
        fns, dims = random_ext_table_fns(rng, n_max=4)
        results = {
            max_sum(*priced(fns, perm, dims))
            for perm in itertools.permutations(range(len(dims)))
        }
        assert len(results) == 1


def test_constant_shift():
    rng = random.Random(53)
    for _ in range(20):
        fns, dims = random_ext_table_fns(rng, n_max=4)
        order = identity_order(len(dims))
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        shifted = fns + [ScopedFn.constant(c)]
        assert max_sum(*priced(shifted, order, dims)) == sum_or_none(
            [max_sum(*priced(fns, order, dims)), c]
        )


def test_decode_returns_attaining_state():
    rng = random.Random(67)
    for _ in range(60):
        fns, dims = random_ext_table_fns(rng)
        order = list(range(len(dims)))
        rng.shuffle(order)
        value, witness, _ = max_sum_decode(*priced(fns, tuple(order), dims))
        assert value == explicit_max(fns, dims)
        assert witness.domain == tuple(range(len(dims)))
        if value is not None:
            assert sum_or_none(f(witness) for f in fns) == value


def test_min_degree_order_is_permutation_and_agrees():
    rng = random.Random(79)
    for _ in range(20):
        fns, dims = random_ext_table_fns(rng)
        n = len(dims)
        order = min_degree_order([f.scope for f in fns], n)
        assert sorted(order) == list(range(n))
        assert max_sum(*priced(fns, order, dims)) == explicit_max(fns, dims)


# -- the integer kernel against the exact reference sweep -------------------

@st.composite
def _priced_blocks(draw):
    """A ``summands`` block, with weights at which to price it."""
    dims, c_fns, b_fns, order = draw(summands())
    weight = st.one_of(st.just(Fraction(0)), BIG_DENOMINATOR_SMALL, BIG_DENOMINATOR_LARGE)
    w = tuple(draw(weight) for _ in c_fns)
    return min_lp(dims, Tag(EMPTY_STATE, 0, True), c_fns, b_fns, order), w


def _assert_matches_reference(got, want):
    assert got[0] == want[0]
    if want[0] is not None:
        assert got[1] == want[1]


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_priced_blocks())
def test_integer_kernel_matches_the_extended_real_sweep(case):
    block, w = case
    assert block.plan == reference_plan(block.plan)
    fns = reference_at(block, w)
    want = reference_max_sum_decode(fns, block.plan)
    _assert_matches_reference(max_sum_decode(block.at(w), block.plan), want)


_edge_cases = pytest.mark.parametrize(
    "dims, c_fns, b_fns, w",
    [
        # every assignment excluded, with no empty-scope minus infinity
        ((2,), (), (ScopedFn((0,), (2,), (None, None)),), ()),
        # a 1-value variable: a one-entry table with a scope is no constant
        ((1, 2), (), (ScopedFn((0,), (1,), (None,)), ScopedFn((1,), (2,), (F(1), F(2)))), ()),
        # a large empty-scope constant must not lift an excluded total
        ((2,), (), (ScopedFn((), (), (F(10**40),)), ScopedFn((0,), (2,), (None, None))), ()),
        # an empty-scope constant next to minus infinity: the constant still
        # adds to the one state left
        (
            (2,),
            (ScopedFn((0,), (2,), (Fraction(1), Fraction(-2))),),
            (ScopedFn.constant(F(-7, 3)), ScopedFn((0,), (2,), (None, F(0)))),
            (Fraction(5),),
        ),
        # w = 0 and a weight with a large prime denominator
        (
            (2, 2),
            (ScopedFn((0,), (2,), (Fraction(3), Fraction(-1, 7))), ScopedFn((1,), (2,), (Fraction(5), Fraction(2)))),
            (ScopedFn((0, 1), (2, 2), (F(0), None, F(1, 3), F(0))),),
            (Fraction(0), Fraction(1, 2**61 - 1)),
        ),
    ],
    ids=[
        "all-excluded",
        "one-value-domain",
        "large-offset",
        "constant-beside-minus-infinity",
        "zero-and-coprime-weights",
    ],
)


@_edge_cases
def test_integer_kernel_edge_cases(dims, c_fns, b_fns, w):
    order = identity_order(len(dims))
    block = min_lp(dims, Tag(EMPTY_STATE, 0, True), c_fns, b_fns, order)
    assert block.plan == reference_plan(block.plan)
    fns = reference_at(block, w)
    want = reference_max_sum_decode(fns, block.plan)
    assert want[0] == explicit_max(fns, dims)
    _assert_matches_reference(max_sum_decode(block.at(w), block.plan), want)
    _assert_matches_reference(max_sum_decode(*priced(fns, order, dims)), want)


@_edge_cases
def test_a_block_at_no_weights_holds_its_tables_as_they_are(dims, c_fns, b_fns, w):
    # Every summand a constant one: ``at(())`` scales nothing, and only
    # minus infinity is written, as the stand-in below the bound.
    fns = (*c_fns, *b_fns)
    block = min_lp(dims, Tag(EMPTY_STATE, 0, True), (), fns, identity_order(len(dims)))
    family = block.at(())
    assert family.den == block.den
    finite = [[n for n in ints if n is not None] for ints in block.b]
    assert family.bound == sum(max(map(abs, ns), default=0) for ns in finite)
    floor = -(2 * family.bound + 1)
    for f, ints, table in zip(fns, block.b, family.tables, strict=True):
        assert list(table) == [floor if n is None else n for n in ints]
        assert tuple(None if n is None else Fraction(n, family.den) for n in ints) == f.table


def test_empty_scope_minus_infinity_marks_a_shadowed_block():
    dims = (2,)
    c_fns = (ScopedFn((0,), (2,), (Fraction(1), Fraction(2))),)
    dead = ScopedFn.constant(None)
    block = min_lp(dims, Tag(EMPTY_STATE, 0, True), c_fns, (dead,), (0,))
    assert block.b == ((None,),)
    assert max_sum(block.at((Fraction(1),)), block.plan) is None
    assert reference_max_sum_decode(reference_at(block, (Fraction(1),)), block.plan)[0] is None
    live = min_lp(dims, Tag(EMPTY_STATE, 0, True), c_fns, (ScopedFn.constant(F(3)),), (0,))
    # The constant is a one-entry table like any other and counts in the bound.
    assert live.b == ((3 * live.den,),) and live.b_max == 3 * live.den
    assert max_sum(live.at((Fraction(1, 2),)), live.plan) == F(4)
