"""The compact block construction against brute-force state enumeration."""

import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    SMALL,
    all_states,
    explicit_branch_sup,
    models,
    random_rational_fn,
    reference_difference_fns,
    reference_fn_vars,
    reference_weight_lp,
)

from fmdp.certify import check_optimality
from fmdp.elim import identity_order, max_sum
from fmdp.errors import InvalidInputError
from fmdp.factored import EMPTY_STATE, PartialState, ScopedFn, restrict
from fmdp.lp import PHI, FnVar, Lp, Optimal, Tag, Unbounded, Weight, make_constraint, named_lp, to_standard_form
from fmdp.api import api
from fmdp.lpbuild import assemble_lp, branch_lp, difference_fns, min_lp, weight_lp, weight_lp_blocks
from fmdp.model import elimination_order, make_ring
from fmdp.policy import greedy_decision_list
from fmdp.simplex import solve_lp
from fmdp.values import NEG_INF, ext_sum, fin

TAG = Tag(EMPTY_STATE, 0, True)


def _rows(block):
    """One block's rows as named constraints."""
    return named_lp(assemble_lp((block,)), PHI).constraints


def _pin_weights(block_lp_constraints, w):
    cons = list(block_lp_constraints)
    for i, wi in enumerate(w):
        cons.append(make_constraint("eq", {Weight(i): Fraction(1)}, wi))
    return Lp(tuple(cons), PHI)


def _explicit_value(c_fns, b_fns, w, dims):
    best = NEG_INF
    for x in all_states(dims):
        total = fin(sum((wi * f(restrict(x, f.scope)) for wi, f in zip(w, c_fns)), Fraction(0)))
        total = total + ext_sum([f(restrict(x, f.scope)) for f in b_fns])
        best = max(best, total)
    return best


def test_constant_pair_generates_four_rows():
    block = min_lp(
        (2,),
        TAG,
        (ScopedFn.constant(Fraction(1)),),
        (ScopedFn.constant(fin(Fraction(-1))),),
        (0,),
    )
    assert len(_rows(block)) == 4
    kinds = [c.kind for c in _rows(block)]
    assert kinds == ["eq", "eq", "le", "le"]
    tie, pin, dominate, gen = _rows(block)
    assert dict(tie.coefs)[Weight(0)] == 1
    assert pin.rhs == Fraction(-1)
    assert len(dominate.coefs) == 1
    assert dict(gen.coefs)[PHI] == -1 and len(gen.coefs) == 4


def test_projection_matches_enumeration_with_pinned_weights():
    rng = random.Random(424242)
    checked = {"optimal": 0, "unbounded": 0}
    for _ in range(40):
        n = rng.randint(1, 3)
        dims = tuple(rng.randint(2, 3) for _ in range(n))
        m = rng.randint(1, 2)
        c_fns = []
        for _ in range(m):
            scope = tuple(sorted(rng.sample(range(n), rng.randint(0, min(n, 2)))))
            c_fns.append(random_rational_fn(rng, scope, dims))
        b_fns = []
        for _ in range(rng.randint(0, 2)):
            scope = tuple(sorted(rng.sample(range(n), rng.randint(0, min(n, 2)))))
            card = tuple(dims[v] for v in scope)
            size = 1
            for c in card:
                size *= c
            table = tuple(
                NEG_INF if rng.random() < 0.25 else fin(Fraction(rng.randint(-9, 9), rng.randint(1, 3)))
                for _ in range(size)
            )
            b_fns.append(ScopedFn(scope, card, table))
        w = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(m))
        order = list(range(n))
        rng.shuffle(order)
        block = min_lp(dims, TAG, tuple(c_fns), tuple(b_fns), tuple(order))
        std = to_standard_form(_pin_weights(_rows(block), w))
        cert = solve_lp(std)
        target = _explicit_value(c_fns, b_fns, w, dims)
        if target.is_finite:
            assert isinstance(cert, Optimal)
            assert cert.primal[std.col_of[PHI]] == target.unwrap()
            assert check_optimality(std, cert.primal, cert.dual)
            checked["optimal"] += 1
        else:
            assert isinstance(cert, Unbounded)
            checked["unbounded"] += 1
    assert checked["optimal"] >= 25
    assert checked["unbounded"] >= 2


def test_minus_infinity_entries_leave_variables_unpinned():
    scope = (0,)
    b = ScopedFn(scope, (2,), (NEG_INF, fin(Fraction(4))))
    block = min_lp((2,), TAG, (), (b,), (0,))
    pins = [
        c
        for c in _rows(block)
        if c.kind == "eq" and len(c.coefs) == 1 and isinstance(c.coefs[0][0], FnVar)
    ]
    assert len(pins) == 1
    assert pins[0].rhs == Fraction(4)
    std = to_standard_form(Lp(tuple(_rows(block)), PHI))
    cert = solve_lp(std)
    assert isinstance(cert, Optimal)
    assert cert.primal[std.col_of[PHI]] == Fraction(4)


def test_min_lp_rejects_bad_inputs():
    with pytest.raises(InvalidInputError, match="permutation"):
        min_lp((2, 2), TAG, (), (), (0,))
    with pytest.raises(InvalidInputError, match="scope"):
        min_lp((2,), TAG, (ScopedFn((3,), (2,), (Fraction(0), Fraction(0))),), (), (0,))
    with pytest.raises(InvalidInputError, match="cardinalities"):
        min_lp((3,), TAG, (ScopedFn((0,), (2,), (Fraction(0), Fraction(0))),), (), (0,))


def test_branch_blocks_mirror_each_other():
    mdp = make_ring(2)
    t = PartialState.of({0: 1})
    pos, neg = branch_lp(mdp, t, 1, (), identity_order(2))
    assert pos.tag == Tag(t, 1, True)
    assert neg.tag == Tag(t, 1, False)
    for cp, cn in zip(pos.c_fns, neg.c_fns):
        assert cp.scope == cn.scope
        assert [-q for q in cp.table] == list(cn.table)
    for bp, bn in zip(pos.b_fns[: len(mdp.rewards[1])], neg.b_fns):
        assert [v.unwrap() for v in bp.table] == [-v.unwrap() for v in bn.table]


def test_branch_pair_recovers_branch_error():
    rng = random.Random(77)
    mdp = make_ring(2)
    order = identity_order(2)
    for _ in range(8):
        w = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 2)) for _ in mdp.basis)
        t = PartialState.of({0: rng.randint(0, 1)})
        ts = (PartialState.of({0: 0, 1: 0}),) if rng.random() < 0.5 else ()
        a = rng.randrange(len(mdp.actions))
        pos, neg = branch_lp(mdp, t, a, ts, order)
        halves = []
        for block in (pos, neg):
            std = to_standard_form(_pin_weights(_rows(block), w))
            cert = solve_lp(std)
            assert isinstance(cert, Optimal)
            half = fin(cert.primal[std.col_of[PHI]])
            assert half == max_sum(block.at(w), order, mdp.dims, block.plan)
            halves.append(half)
        assert max(halves) == fin(explicit_branch_sup(mdp, w, t, a, ts))


def _diff_keys(mdp):
    return {key for key in mdp._cache if key[0] == "diff"}


def test_difference_fns_tabulate_once_per_basis_function_and_action():
    steps: list[dict] = []
    api(make_ring(3), trace=steps)
    mdp = make_ring(3)
    weights = [tuple(Fraction(0) for _ in mdp.basis)] + [step["w"] for step in steps]
    branches = {(b.t, b.action) for w in weights for b in greedy_decision_list(mdp, w).branches}
    for t, a in branches:
        assert difference_fns(mdp, t, a) == reference_difference_fns(mdp, t, a)
    used = {a for _, a in branches}
    assert len(used) > 1
    assert _diff_keys(mdp) == {("diff", i, a) for i in range(len(mdp.basis)) for a in used}
    assert dataclasses.replace(mdp)._cache == {}


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(models(), st.lists(SMALL, min_size=3, max_size=3))
def test_difference_fns_match_a_fresh_tabulation(mdp, ws):
    pol = greedy_decision_list(mdp, tuple(ws[: len(mdp.basis)]))
    for branch in pol.branches:
        for a in range(len(mdp.actions)):
            assert difference_fns(mdp, branch.t, a) == reference_difference_fns(mdp, branch.t, a)
    every = {("diff", i, a) for i in range(len(mdp.basis)) for a in range(len(mdp.actions))}
    assert _diff_keys(mdp) == every
    # A replaced model may have other basis functions or discount.
    assert dataclasses.replace(mdp, discount=Fraction(0))._cache == {}


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(models(), st.lists(SMALL, min_size=3, max_size=3))
@example(make_ring(2), [Fraction(1), Fraction(2), Fraction(1, 3)])
def test_weight_lp_blocks_have_disjoint_tags_and_no_duplicates(mdp, ws):
    # Every row is built once, so the full program is the plain union of
    # the blocks, and the placement index is what the primal fill and the
    # dual lift trust.
    pol = greedy_decision_list(mdp, tuple(ws[: len(mdp.basis)]))
    for kind in ("identity", "min-degree"):
        order = elimination_order(mdp, kind)
        blocks = weight_lp_blocks(mdp, pol, order)
        assert len(blocks) == 2 * len(pol.branches)
        tags = [b.tag for b in blocks]
        assert len(set(tags)) == len(tags)
        lp = weight_lp(mdp, pol, order)
        assert len(set(lp.constraints)) == len(lp.constraints)
        std = assemble_lp(blocks)
        assert len(lp.constraints) == len(std.constraint_rows)
        halves = {ks[0]: len(ks) for ks in std.constraint_rows}
        first = 0
        for block, at in zip(blocks, std.placed):
            plan = block.plan
            # The block's rows run from the row after the previous block's
            # summary row to its own, which bounds phi.
            assert dict(std.rows[at.summary])[0] == -1
            mine = range(first, at.summary + 1)
            # Slot s's rows, one per table entry, or per round point
            # (entry j // dims[var] of the replacement) for a round's slot.
            cards = [1] * plan.inputs + [plan.dims[rnd.var] for rnd in plan.rounds]
            unpinned = [[False] * len(c.table) for c in block.c_fns]
            unpinned += [[not v.is_finite for v in b.table] for b in block.b_fns]
            slots = zip(reference_fn_vars(block), at.cols, at.rows)
            for s, (fn_vars, cols, positions) in enumerate(slots):
                assert [std.columns[col] for col in cols] == fn_vars
                owners = [col for col in cols for _ in range(cards[s])]
                assert len(positions) == len(owners)
                want = unpinned[s] if s < plan.inputs else [False] * len(owners)
                assert [k is None for k in positions] == want
                # The half the dual lift credits holds -1 on the entry: a
                # tie's first, a pin's second, a round's only row.
                half = int(len(block.c_fns) <= s < plan.inputs)
                for col, k in zip(owners, positions):
                    if k is not None:
                        assert k in mine and halves[k] == (2 if s < plan.inputs else 1)
                        assert dict(std.rows[k + half])[col] == -1
            first = at.summary + 1
        assert first == std.num_rows


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(models(), st.lists(SMALL, min_size=3, max_size=3))
@example(make_ring(2), [Fraction(1), Fraction(2), Fraction(1, 3)])
def test_assembled_lp_is_the_standard_form_of_its_named_program(mdp, ws):
    pol = greedy_decision_list(mdp, tuple(ws[: len(mdp.basis)]))
    for kind in ("identity", "min-degree"):
        order = elimination_order(mdp, kind)
        blocks = weight_lp_blocks(mdp, pol, order)
        named = reference_weight_lp(blocks)
        direct, flattened = assemble_lp(blocks), to_standard_form(named)
        assert direct.rows == flattened.rows
        assert direct.rhs == flattened.rhs
        assert direct.constraint_rows == flattened.constraint_rows
        assert direct.objective == flattened.objective
        assert tuple(direct.columns) == flattened.columns
        assert direct.col_of == flattened.col_of
        assert weight_lp(mdp, pol, order) == named


def test_ring_one_constant_basis_hand_optimum():
    mdp = dataclasses.replace(make_ring(1), basis=(ScopedFn.constant(Fraction(1)),))
    pol = greedy_decision_list(mdp, (Fraction(0),))
    assert len(pol.branches) == 1
    std = to_standard_form(weight_lp(mdp, pol))
    cert = solve_lp(std)
    assert isinstance(cert, Optimal)
    assert cert.primal[std.col_of[PHI]] == Fraction(1, 2)
    assert cert.primal[std.col_of[Weight(0)]] == Fraction(5)
    assert check_optimality(std, cert.primal, cert.dual)
