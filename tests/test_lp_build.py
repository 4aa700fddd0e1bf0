"""The compact block construction against brute-force state enumeration."""

import dataclasses
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    SMALL,
    all_states,
    block_fns,
    explicit_branch_sup,
    flatten,
    max_or_none,
    min_lp,
    models,
    random_rational_fn,
    readded,
    reference_at,
    reference_difference_fns,
    reference_fn_vars,
    reference_max_sum_decode,
    reference_weight_lp,
    renumbered,
    sum_or_none,
    summands,
    variable_tokens,
)

from fmdp.certify import check_optimality
from fmdp.elim import identity_order
from fmdp.errors import InvalidInputError
from fmdp.factored import EMPTY_STATE, PartialState, ScopedFn, restrict
from fmdp.lp import Optimal, Unbounded
from fmdp.api import api
from fmdp.lpbuild import Tag, assemble_lp, branch_lp, difference_fns, weight_lp_blocks
from fmdp.model import elimination_order, make_ring
from fmdp.policy import greedy_decision_list
from fmdp.simplex import solve_lp

TAG = Tag(EMPTY_STATE, 0, True)


def _pinned(block, w):
    """One block's program with each weight pinned to w_i by an equality;
    a weight no row holds takes a new column."""
    std = assemble_lp((block,))
    columns, rows = list(std.columns), readded(std)
    for i, wi in enumerate(w):
        if f"w{i}" not in columns:
            columns.append(f"w{i}")
        rows.add("eq", ((columns.index(f"w{i}"), Fraction(1)),), wi)
    return rows.std(tuple(columns))


def _explicit_value(c_fns, b_fns, w, dims):
    best = None
    for x in all_states(dims):
        weighted = sum((wi * f(restrict(x, f.scope)) for wi, f in zip(w, c_fns)), Fraction(0))
        total = sum_or_none([weighted, *(f(restrict(x, f.scope)) for f in b_fns)])
        best = max_or_none([best, total])
    return best


def test_constant_pair_generates_four_rows():
    block = min_lp(
        (2,),
        TAG,
        (ScopedFn.constant(Fraction(1)),),
        (ScopedFn.constant(Fraction(-1)),),
        (0,),
    )
    std = assemble_lp((block,))
    assert std.constraint_rows == ((0, 1), (2, 3), (4,), (5,))
    (tie, _), (_, pin), (dominate, _), (gen, _) = map(std.fraction_row, (0, 2, 4, 5))
    assert dict(tie)[std.col_of["w0"]] == 1
    assert pin == Fraction(-1)
    assert len(dominate) == 1
    assert dict(gen)[0] == -1 and len(gen) == 4


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
                None if rng.random() < 0.25 else Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                for _ in range(size)
            )
            b_fns.append(ScopedFn(scope, card, table))
        w = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(m))
        order = list(range(n))
        rng.shuffle(order)
        block = min_lp(dims, TAG, tuple(c_fns), tuple(b_fns), tuple(order))
        std = _pinned(block, w)
        cert = solve_lp(std)
        target = _explicit_value(c_fns, b_fns, w, dims)
        if target is not None:
            assert isinstance(cert, Optimal)
            assert cert.primal[std.col_of["phi"]] == target
            assert check_optimality(std, cert.primal, cert.dual)
            checked["optimal"] += 1
        else:
            assert isinstance(cert, Unbounded)
            checked["unbounded"] += 1
    assert checked["optimal"] >= 25
    assert checked["unbounded"] >= 2


def test_minus_infinity_entries_leave_variables_unpinned():
    scope = (0,)
    b = ScopedFn(scope, (2,), (None, Fraction(4)))
    block = min_lp((2,), TAG, (), (b,), (0,))
    std = assemble_lp((block,))
    pins = [
        k
        for k, *negated in std.constraint_rows
        if negated and len(std.cols[k]) == 1 and std.columns[std.cols[k][0]].startswith("f")
    ]
    assert len(pins) == 1
    assert std.fraction_row(pins[0])[1] == Fraction(4)
    cert = solve_lp(std)
    assert isinstance(cert, Optimal)
    assert cert.primal[std.col_of["phi"]] == Fraction(4)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(summands())
def test_a_block_reads_back_as_the_functions_it_was_built_from(drawn):
    dims, c_fns, b_fns, order = drawn
    block = min_lp(dims, TAG, c_fns, b_fns, order)
    assert block_fns(block) == (c_fns, b_fns)
    finite = [q for f in (*c_fns, *b_fns) for q in f.table if q is not None]
    assert block.den == lcm(*(q.denominator for q in finite))


def _assert_integer_tables(block):
    assert type(block.den) is int and type(block.b_max) is int
    assert all(type(n) is int for n in block.c_max)
    assert all(type(n) is int for t in block.c for n in t)
    assert all(n is None or type(n) is int for t in block.b for n in t)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(models(), st.lists(SMALL, min_size=3, max_size=3), summands())
def test_built_blocks_hold_no_fraction_or_extended_real(mdp, ws, drawn):
    pol = greedy_decision_list(mdp, tuple(ws[: len(mdp.basis)]))
    for block in weight_lp_blocks(mdp, pol, elimination_order(mdp, "min-degree")):
        _assert_integer_tables(block)
    dims, c_fns, b_fns, order = drawn
    _assert_integer_tables(min_lp(dims, TAG, c_fns, b_fns, order))


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
    (pos_c, pos_b), (neg_c, neg_b) = block_fns(pos), block_fns(neg)
    for cp, cn in zip(pos_c, neg_c):
        assert cp.scope == cn.scope
        assert [-q for q in cp.table] == list(cn.table)
    for bp, bn in zip(pos_b[: len(mdp.rewards[1])], neg_b):
        assert None not in bp.table and list(bp.table) == [-v for v in bn.table]


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
            std = _pinned(block, w)
            cert = solve_lp(std)
            assert isinstance(cert, Optimal)
            half = cert.primal[std.col_of["phi"]]
            assert half == reference_max_sum_decode(reference_at(block, w), block.plan)[0]
            halves.append(half)
        assert max(halves) == explicit_branch_sup(mdp, w, t, a, ts)


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
        # Only a branch whose state extends no earlier branch's has blocks.
        live = [
            b for k, b in enumerate(pol.branches)
            if not any(all(b.t.get(v) == val for v, val in e.t.items) for e in pol.branches[:k])
        ]
        assert len(blocks) == 2 * len(live)
        assert [block.tag.t for block in blocks[::2]] == [b.t for b in live]
        tags = [b.tag for b in blocks]
        assert len(set(tags)) == len(tags)
        std = assemble_lp(blocks)
        said = [(len(ks), std.fraction_row(ks[0])) for ks in std.constraint_rows]
        assert len(set(said)) == len(said) and len(std.col_of) == std.num_cols
        halves = {ks[0]: len(ks) for ks in std.constraint_rows}
        tokens = variable_tokens(v for block in blocks for vs in reference_fn_vars(block) for v in vs)
        first = 0
        for block, at in zip(blocks, std.placed):
            plan = block.plan
            # The block's rows run from the row after the previous block's
            # summary row to its own, which bounds phi.
            assert dict(std.fraction_row(at.summary)[0])[0] == -1
            mine = range(first, at.summary + 1)
            # Slot s's run of columns, one per table entry, and its credited
            # rows, one per entry, or per round point (entry j // dims[var]
            # of the replacement) for a round's slot.
            cards = [1] * plan.inputs + [plan.dims[rnd.var] for rnd in plan.rounds]
            c_fns, b_fns = block_fns(block)
            unpinned = [[False] * len(c.table) for c in c_fns]
            unpinned += [[v is None for v in b.table] for b in b_fns]
            for s, fn_vars in enumerate(reference_fn_vars(block)):
                cols = range(at.cols[s], at.cols[s] + len(fn_vars))
                assert [std.columns[col] for col in cols] == [tokens[v] for v in fn_vars]
                owners = [col for col in cols for _ in range(cards[s])]
                positions = [at.credited(block, s, j) for j in range(len(owners))]
                want = unpinned[s] if s < plan.inputs else [False] * len(owners)
                assert [k is None for k in positions] == want
                # The half the dual lift credits holds -1 on the entry: a
                # tie's first, a pin's second, a round's only row.
                half = int(len(c_fns) <= s < plan.inputs)
                for col, k in zip(owners, positions):
                    if k is not None:
                        assert k in mine and halves[k - half] == (2 if s < plan.inputs else 1)
                        assert dict(std.fraction_row(k)[0])[col] == -1
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
        direct, flattened = assemble_lp(blocks), flatten(named)
        # The two number their columns differently: moved to the column of
        # the same name, every row is the same row.
        assert direct.columns[0] == "phi" and len(direct.col_of) == direct.num_cols
        assert sorted(direct.columns, key=flattened.col_of.__getitem__) == list(flattened.columns)
        assert all(list(cols) == sorted(set(cols)) for cols in direct.cols)
        assert renumbered(direct, flattened.columns) == flattened


def test_ring_one_constant_basis_hand_optimum():
    mdp = dataclasses.replace(make_ring(1), basis=(ScopedFn.constant(Fraction(1)),))
    pol = greedy_decision_list(mdp, (Fraction(0),))
    assert len(pol.branches) == 1
    std = assemble_lp(weight_lp_blocks(mdp, pol, identity_order(mdp.n)))
    cert = solve_lp(std)
    assert isinstance(cert, Optimal)
    assert cert.primal[std.col_of["phi"]] == Fraction(1, 2)
    assert cert.primal[std.col_of["w0"]] == Fraction(5)
    assert check_optimality(std, cert.primal, cert.dual)
