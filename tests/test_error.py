"""Branch errors and the factored Bellman error against explicit enumeration.

A branch's error is the larger priced maximum of its ``branch_lp`` pair;
``explicit_branch_sup`` enumerates the branch's states instead.
"""

import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    SMALL,
    explicit_branch_sup,
    max_or_none,
    models,
    reference_at,
    reference_indicator_fns,
    reference_max_sum_decode,
    sum_or_none,
)

from fmdp.elim import identity_order
from fmdp.errors import InvalidInputError
from fmdp.error import factored_bellman_err
from fmdp.factored import EMPTY_STATE, PartialState, assignments, consistent
from fmdp.lpbuild import branch_lp, indicator_fns
from fmdp.model import elimination_order, make_ring
from fmdp.oracle import explicit_bellman_err
from fmdp.policy import Branch, DecisionList, greedy_decision_list, select_action
from fmdp.weights import update_weights

W, B = 0, 1
F = Fraction


def full_states(mdp):
    return assignments(range(mdp.n), mdp.dims)


def random_weights(rng, m):
    return tuple(F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(m))


def priced_branch(mdp, w, t, a, ts, order):
    """The branch error read off the ``branch_lp`` pair priced at ``w``."""
    pair = branch_lp(mdp, t, a, tuple(ts), order)
    return max_or_none(
        reference_max_sum_decode(reference_at(block, w), block.plan)[0] for block in pair
    )


def test_indicator_fns_shapes():
    dims = [2, 2, 2]
    assert indicator_fns([], EMPTY_STATE, dims) == []
    # prior branch subsumed by the current branch state: constant minus infinity
    subsumed = indicator_fns(
        [PartialState.of({0: W})], PartialState.of({0: W, 1: B}), dims
    )
    assert subsumed[0].scope == () and subsumed[0].table == (None,)
    # conflict on a shared variable: constant zero
    clash = indicator_fns([PartialState.of({0: W})], PartialState.of({0: B}), dims)
    assert clash[0].scope == () and clash[0].table == (0,)
    # a conflict keeps the leftover variables in scope, all zero
    clash = indicator_fns([PartialState.of({0: W, 2: B})], PartialState.of({0: B}), dims)
    assert clash[0].scope == (2,) and clash[0].table == (0, 0)
    # leftover variables stay in scope with exactly one excluded assignment
    partial = indicator_fns(
        [PartialState.of({0: W, 2: B})], PartialState.of({0: W}), dims
    )
    assert partial[0].scope == (2,)
    assert partial[0].table == (0, None)


@st.composite
def branch_states(draw):
    """Model dimensions, a branch state and the states claimed before it."""
    dims = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))

    def state():
        variables = draw(st.sets(st.integers(0, len(dims) - 1)))
        return PartialState.of({v: draw(st.integers(0, dims[v] - 1)) for v in variables})

    return dims, state(), [state() for _ in range(draw(st.integers(0, 4)))]


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(branch_states())
def test_indicator_fns_match_tabulate_then_instantiate(case):
    dims, t, ts = case
    assert indicator_fns(ts, t, dims) == reference_indicator_fns(ts, t, dims)


def test_block_summands_sum_to_q_minus_nu():
    rng = random.Random(3)
    mdp = make_ring(2)
    order = identity_order(2)
    ts = (PartialState.of({1: B}),)
    for _ in range(5):
        w = random_weights(rng, 3)
        for a in range(3):
            for t in ([], [(0, W)], [(0, B), (1, W)]):
                tp = PartialState.of(dict(t))
                pos, neg = branch_lp(mdp, tp, a, ts, order)
                for x in full_states(mdp):
                    if not consistent(x, tp) or consistent(x, ts[0]):
                        continue
                    gap = mdp.q_value(w, a, x) - mdp.nu_w(w, x)
                    assert sum_or_none(f(x) for f in reference_at(neg, w)) == gap
                    assert sum_or_none(f(x) for f in reference_at(pos, w)) == -gap


def test_branch_error_zero_weights_default():
    mdp = make_ring(2)
    order = identity_order(2)
    err = priced_branch(mdp, (F(0),) * 3, EMPTY_STATE, 0, [], order)
    assert err == 2  # both machines working, reward 2, nothing offsets it


def test_branch_error_fully_shadowed():
    mdp = make_ring(2)
    order = identity_order(2)
    ts = [PartialState.of({0: W}), PartialState.of({0: B})]
    err = priced_branch(mdp, (F(1), F(1), F(1)), EMPTY_STATE, 0, ts, order)
    assert err is None


def test_branch_error_matches_enumeration():
    rng = random.Random(47)
    mdp = make_ring(2)
    order = identity_order(2)
    t_choices = [
        EMPTY_STATE,
        PartialState.of({0: B}),
        PartialState.of({1: W}),
        PartialState.of({0: W, 1: B}),
    ]
    for _ in range(12):
        w = random_weights(rng, 3)
        a = rng.randrange(3)
        t = rng.choice(t_choices)
        ts = rng.sample(t_choices, rng.randint(0, 3))
        got = priced_branch(mdp, w, t, a, ts, order)
        want = explicit_branch_sup(mdp, w, t, a, ts)
        assert got == want


def test_branch_error_prefix_monotonicity():
    rng = random.Random(59)
    mdp = make_ring(2)
    order = identity_order(2)
    for _ in range(10):
        w = random_weights(rng, 3)
        ts = []
        previous = priced_branch(mdp, w, EMPTY_STATE, 1, ts, order)
        for tp in (PartialState.of({0: W}), PartialState.of({1: B})):
            ts.append(tp)
            nxt = priced_branch(mdp, w, EMPTY_STATE, 1, ts, order)
            assert nxt is not None and nxt == explicit_branch_sup(mdp, w, EMPTY_STATE, 1, ts)
            assert not previous < nxt
            previous = nxt


def test_factored_bellman_err_single_branch():
    mdp = make_ring(2)
    pol = DecisionList((Branch(EMPTY_STATE, 0, F(0)),))
    assert factored_bellman_err(mdp, (F(0),) * 3, pol, identity_order(2)) == 2


def test_factored_bellman_err_matches_explicit_sweep():
    rng = random.Random(61)
    for n in (1, 2, 3):
        mdp = make_ring(n)
        order = identity_order(n)
        for _ in range(10):
            w = random_weights(rng, len(mdp.basis))
            pol = greedy_decision_list(mdp, w)
            got = factored_bellman_err(mdp, w, pol, order)
            want = max(
                abs(mdp.q_value(w, select_action(pol, x), x) - mdp.nu_w(w, x))
                for x in full_states(mdp)
            )
            assert got == want


def test_factored_bellman_err_skips_shadowed_branches():
    mdp = make_ring(1)
    order = identity_order(1)
    w = (F(0), F(0))
    pol = DecisionList(
        (
            Branch(PartialState.of({0: W}), 0, F(1)),
            Branch(PartialState.of({0: W}), 1, F(1, 2)),  # fully shadowed
            Branch(EMPTY_STATE, 0, F(0)),
        )
    )
    want = max(
        abs(mdp.q_value(w, select_action(pol, x), x) - mdp.nu_w(w, x))
        for x in full_states(mdp)
    )
    assert factored_bellman_err(mdp, w, pol, order) == want


def test_factored_bellman_err_empty_policy_rejected():
    mdp = make_ring(1)
    with pytest.raises(InvalidInputError):
        factored_bellman_err(mdp, (F(0), F(0)), DecisionList(()), identity_order(1))


def test_exactly_representable_value_gives_zero_error():
    base = make_ring(2)
    mdp = dataclasses.replace(base, discount=F(0), basis=base.rewards[0])
    w = (F(1), F(1))
    pol = greedy_decision_list(mdp, w)
    assert factored_bellman_err(mdp, w, pol, identity_order(2)) == 0


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(models(), st.data())
def test_property_factored_error_matches_enumeration(mdp, data):
    w = tuple(data.draw(SMALL) for _ in mdp.basis)
    pol = greedy_decision_list(mdp, w)
    for kind in ("identity", "min-degree"):
        order = elimination_order(mdp, kind)
        assert factored_bellman_err(mdp, w, pol, order) == explicit_bellman_err(mdp, w, pol)
        w_new, phi = update_weights(mdp, pol, order)
        assert factored_bellman_err(mdp, w_new, pol, order) == phi
