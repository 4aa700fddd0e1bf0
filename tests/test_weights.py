"""Weight fitting: hand optima, oracle agreement, and certified exactness."""

import dataclasses
import importlib
import operator
import random
from fractions import Fraction
from math import lcm

import pytest
from helpers import (
    PHI,
    SMALL,
    Lp,
    Weight,
    all_states,
    flatten,
    make_constraint,
    max_or_none,
    min_lp,
    models,
    reference_at,
    reference_complete_primal,
    reference_max_sum_decode,
    reference_plan,
    reference_weight_lp,
    reference_weight_lp_blocks,
    renumbered,
    sum_or_none,
    summands,
    sysadmin,
)
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from fmdp.api import ApiConfig, api
from fmdp.certify import check_optimality
from fmdp.elim import identity_order, max_sum
from fmdp.error import factored_bellman_err
from fmdp.errors import InvalidInputError, LpInternalError
from fmdp.factored import EMPTY_STATE, PartialState, ScopedFn
from fmdp.lp import Optimal, StdRows
from fmdp.lpbuild import Tag, assemble_lp, weight_lp_blocks
from fmdp.lpio import read_certificate, read_lp, write_certificate, write_lp
from fmdp.model import FactoredMdp, elimination_order, make_ring
from fmdp.oracle import explicit_bellman_err, explicit_weight_lp, policy_value
from fmdp.policy import Branch, DecisionList, greedy_decision_list
from fmdp.simplex import solve_lp
from fmdp.weights import _Cut, _cut_at, _master_std, update_weights

weights_module = importlib.import_module("fmdp.weights")
error_module = importlib.import_module("fmdp.error")
lpbuild_module = importlib.import_module("fmdp.lpbuild")
api_module = importlib.import_module("fmdp.api")


def _default_pol(mdp):
    return greedy_decision_list(mdp, tuple(Fraction(0) for _ in mdp.basis))


def test_single_machine_constant_basis_hand_optimum():
    mdp = dataclasses.replace(make_ring(1), basis=(ScopedFn.constant(Fraction(1)),))
    w, phi = update_weights(mdp, _default_pol(mdp), identity_order(mdp.n))
    assert w == (Fraction(5),)
    assert phi == Fraction(1, 2)


def test_expressive_basis_reaches_zero_error():
    mdp = make_ring(1)
    pol = _default_pol(mdp)
    w, phi = update_weights(mdp, pol, identity_order(mdp.n))
    assert phi == 0
    assert w == (Fraction(45, 14), Fraction(25, 7))
    values = policy_value(mdp, pol)
    from fmdp.factored import PartialState

    assert mdp.nu_w(w, PartialState.of({0: 0})) == values[PartialState.of({0: 0})]
    assert mdp.nu_w(w, PartialState.of({0: 1})) == values[PartialState.of({0: 1})]


def test_phi_equals_factored_error_at_new_weights():
    rng = random.Random(1001)
    for n in (1, 2):
        mdp = make_ring(n)
        order = identity_order(n)
        for _ in range(3):
            seed_w = tuple(
                Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in mdp.basis
            )
            pol = greedy_decision_list(mdp, seed_w)
            w, phi = update_weights(mdp, pol, order)
            assert factored_bellman_err(mdp, w, pol, order) == phi


def test_matches_explicit_per_state_program():
    rng = random.Random(2002)
    for n in (1, 2, 3):
        mdp = make_ring(n)
        seed_w = tuple(
            Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in mdp.basis
        )
        pol = greedy_decision_list(mdp, seed_w)
        _, phi = update_weights(mdp, pol, identity_order(mdp.n))
        std = explicit_weight_lp(mdp, pol)
        cert = solve_lp(std)
        assert isinstance(cert, Optimal)
        assert cert.primal[std.col_of["phi"]] == phi


def test_certificate_is_exposed_and_checks_out():
    mdp = make_ring(2)
    pol = _default_pol(mdp)
    trace: dict = {}
    w, phi = update_weights(mdp, pol, identity_order(mdp.n), trace=trace)
    cert = trace["certificate"]
    std = trace["std"]
    assert isinstance(cert, Optimal)
    assert cert.primal[std.col_of["phi"]] == phi
    assert check_optimality(std, cert.primal, cert.dual)
    assert trace["cuts"] >= 2
    assert trace["rounds"] >= 1
    assert trace["box_growths"] == 0
    assert trace["lp_rows"] == std.num_rows


def test_a_binding_box_grows_and_the_fit_stays_the_optimum():
    # At discount 999/1000 the last two fits put w0 at 2997000/1501, past
    # the initial box of 1024, so each grows the box once.
    mdp = dataclasses.replace(make_ring(2), discount=Fraction(999, 1000))
    steps: list[dict] = []
    api(mdp, ApiConfig(order=elimination_order(mdp, "min-degree")), trace=steps)
    assert [step["box_growths"] for step in steps] == [0, 1, 1]
    assert steps[-1]["w"][0] == Fraction(2997000, 1501)
    starts = [tuple(Fraction(0) for _ in mdp.basis)] + [step["w"] for step in steps[:-1]]
    for start, step in zip(starts, steps):
        explicit = explicit_weight_lp(mdp, greedy_decision_list(mdp, start))
        cert = solve_lp(explicit)
        assert isinstance(cert, Optimal)
        assert step["phi"] == cert.primal[explicit.col_of["phi"]]
        traced = step["certificate"]
        assert check_optimality(step["std"], traced.primal, traced.dual)


def test_update_is_deterministic():
    mdp = make_ring(2)
    pol = greedy_decision_list(mdp, (Fraction(1), Fraction(-1), Fraction(1, 2)))
    first = update_weights(mdp, pol, identity_order(mdp.n))
    second = update_weights(mdp, pol, identity_order(mdp.n))
    assert first == second


def test_repeated_branch_changes_nothing():
    # A second copy of a branch handles no state, and its blocks would share
    # the first copy's tag and so its private variables: it adds nothing.
    mdp = make_ring(3)
    order = elimination_order(mdp, "min-degree")
    w = (Fraction(-1), Fraction(2, 3), Fraction(2, 3), Fraction(-1, 2))
    pol = greedy_decision_list(mdp, w)
    branches = list(pol.branches)
    branches.insert(6, branches[1])
    repeated = DecisionList(tuple(branches))
    full = assemble_lp(weight_lp_blocks(mdp, pol, order))
    assert assemble_lp(weight_lp_blocks(mdp, repeated, order)) == full
    assert update_weights(mdp, repeated, order) == update_weights(mdp, pol, order)
    for v in (w, update_weights(mdp, pol, order)[0]):
        assert factored_bellman_err(mdp, v, repeated, order) == factored_bellman_err(mdp, v, pol, order)


def test_a_fit_names_its_variables_only_when_they_are_read(tmp_path, monkeypatch):
    # The builder renders every column token of a program in one call of
    # ``_tag_digests``, so each call is one naming of the columns.
    made = []
    original = lpbuild_module._tag_digests

    def counting(tags):
        made.append(tags)
        return original(tags)

    monkeypatch.setattr(lpbuild_module, "_tag_digests", counting)
    mdp = make_ring(3)
    order = elimination_order(mdp, "min-degree")
    pol = greedy_decision_list(mdp, (Fraction(-1), Fraction(2, 3), Fraction(2, 3), Fraction(-1, 2)))
    untraced = update_weights(mdp, pol, order)
    assert made == []
    trace: dict = {}
    assert update_weights(mdp, pol, order, trace=trace) == untraced
    assert made == [] and trace["lp"] is trace["std"]
    # Read, the names write the same program as the one built row by row.
    named = reference_weight_lp(weight_lp_blocks(mdp, pol, order))
    flattened = flatten(named)
    write_lp(tmp_path / "fit.lp", trace["std"])
    write_lp(tmp_path / "named.lp", flattened)
    assert len(made) == 1
    read = read_lp(tmp_path / "fit.lp")
    assert read == read_lp(tmp_path / "named.lp")
    # The named program numbers its columns by first appearance; the same
    # certificate moved to those columns reads back to the same vectors.
    cert = trace["certificate"]
    moved = [Fraction(0)] * flattened.num_cols
    for v, q in zip(trace["std"].columns, cert.primal):
        moved[flattened.col_of[v]] = q
    write_certificate(tmp_path / "fit.cert", trace["std"], cert)
    write_certificate(tmp_path / "named.cert", flattened, Optimal(tuple(moved), cert.dual))
    # The program write, the certificate write and a certificate read
    # against the fit's own program share the one naming.
    assert read_certificate(tmp_path / "fit.cert", trace["std"]) == cert
    assert len(made) == 1
    back = read_certificate(tmp_path / "fit.cert", read)
    assert back == read_certificate(tmp_path / "named.cert", read)
    assert check_optimality(read, back.primal, back.dual)


def test_blocks_may_share_a_cut_within_a_round():
    # The three a1 branches differ only in variable 2, which no summand
    # reads, so in one round their negative blocks yield the same new cut:
    # a duplicate within the round, not a cut the master already held.
    one, zero = Fraction(1), Fraction(0)
    to_zero = ScopedFn((2,), (3,), ((one, zero),) * 3)
    keep = (ScopedFn.constant((one,)), ScopedFn.constant((zero, zero, one)))
    mdp = FactoredMdp(
        domains=(("v0", "v1"), ("v0",), ("v0", "v1", "v2")),
        actions=("a0", "a1"),
        default=0,
        transitions=((to_zero, *keep), (ScopedFn.constant((one, zero)), *keep)),
        rewards=((ScopedFn.constant(zero),), (ScopedFn.constant(zero), ScopedFn.constant(one))),
        effects=((), (0,)),
        discount=zero,
        basis=(ScopedFn((0,), (2,), (zero, one)),),
    )
    assert mdp.validate() == []
    pol = greedy_decision_list(mdp, (zero,))
    assert [branch.action for branch in pol.branches] == [1, 1, 1, 0]
    assert update_weights(mdp, pol, identity_order(3)) == ((zero,), one)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(summands())
def test_a_cut_holds_the_block_values_at_its_witness(drawn):
    dims, c_fns, b_fns, order = drawn
    block = min_lp(dims, Tag(EMPTY_STATE, 0, True), c_fns, b_fns, order)
    for x in all_states(dims):
        total = sum_or_none(b(x) for b in b_fns)
        if total is not None:
            assert _cut_at(7, block, x) == _cut(tuple(c(x) for c in c_fns), total, 7, x)
        else:
            with pytest.raises(LpInternalError, match="excluded state"):
                _cut_at(7, block, x)


def _cut(alpha, beta, index=0, witness=EMPTY_STATE):
    """The cut `-phi + alpha.w <= -beta`, its row put in integer terms by
    ``StdRows``."""
    rows = StdRows()
    rows.add("le", ((0, Fraction(-1)), *((i + 1, a) for i, a in enumerate(alpha))), -beta)
    std = rows.std(("phi", *(f"w{i}" for i in range(len(alpha)))))
    return _Cut(index, witness, (std.cols[0], std.nums[0], std.rhs[0], std.dens[0]))


def _named_master(m, box, said):
    cons = []
    for i in range(m):
        cons.append(make_constraint("le", {Weight(i): Fraction(1)}, box))
        cons.append(make_constraint("le", {Weight(i): Fraction(-1)}, box))
    for alpha, beta in said:
        coefs = {PHI: Fraction(-1), **{Weight(i): a for i, a in enumerate(alpha)}}
        cons.append(make_constraint("le", coefs, -beta))
    return flatten(Lp(tuple(cons), PHI))


def test_master_is_the_standard_form_of_its_named_program():
    rng = random.Random(6)

    def rational(lo, hi):
        return Fraction(rng.randint(lo, hi), rng.randint(1, 3))

    for m in range(5):
        for _ in range(20):
            said = [
                (tuple(rational(-2, 2) for _ in range(m)), rational(-5, 5))
                for _ in range(rng.randint(0, 4))
            ]
            said.insert(rng.randint(0, len(said)), ((Fraction(0),) * m, rational(-5, 5)))
            box = rng.randint(1, 4096)
            cuts = [_cut(alpha, beta) for alpha, beta in said]
            direct, named = _master_std(m, box, cuts), _named_master(m, box, said)
            assert direct == named
            assert direct.col_of == named.col_of


def test_every_master_of_a_ring3_run_has_one_constraint_per_row(monkeypatch):
    masters = []

    def kept(*args):
        masters.append(master_std(*args))
        return masters[-1]

    master_std = weights_module._master_std
    monkeypatch.setattr(weights_module, "_master_std", kept)
    api(make_ring(3), ApiConfig(t_max=30))
    assert len(masters) > 3
    for std in masters:
        assert std.constraint_rows == tuple((k,) for k in range(std.num_rows))


def test_shadowed_branches_build_no_blocks(monkeypatch):
    # Branch {0=B, 1=B} extends the earlier {0=B}: it handles no state, so
    # it gets no blocks, and every live block is priced by the fit and by
    # the error and assembled into the full program.
    mdp = make_ring(2)
    order = identity_order(2)
    early, late = PartialState.of({0: 1}), PartialState.of({0: 1, 1: 1})
    pol = DecisionList(
        (Branch(early, 1, Fraction(2)), Branch(late, 2, Fraction(1)), Branch(EMPTY_STATE, 0, Fraction(0)))
    )
    blocks = weight_lp_blocks(mdp, pol, order)
    assert [block.tag.t for block in blocks] == [early, early, EMPTY_STATE, EMPTY_STATE]
    swept = []

    def counting(original):
        def wrapper(family, plan):
            swept.append(plan)
            return original(family, plan)

        return wrapper

    monkeypatch.setattr(weights_module, "max_sum_decode", counting(weights_module.max_sum_decode))
    monkeypatch.setattr(error_module, "max_sum", counting(error_module.max_sum))
    trace: dict = {}
    w, phi = update_weights(mdp, pol, order, trace=trace)
    fitted = len(swept)
    err = factored_bellman_err(mdp, w, pol, order)
    assert len(swept) - fitted == len(blocks)
    assert fitted == (trace["rounds"] + 1) * len(blocks)
    assert err == phi
    assert len(trace["std"].placed) == len(blocks)
    assert trace["std"] == assemble_lp(blocks)
    flattened = flatten(reference_weight_lp(blocks))
    assert renumbered(trace["std"], flattened.columns) == flattened


def test_a_branch_its_predecessors_jointly_claim_is_built_but_never_priced(monkeypatch):
    # {0=B} extends neither earlier state, but {0=B, 1=W} and {0=B, 1=B}
    # together claim every state it would handle: its pair is dead.  It is
    # built and assembled like any other, and neither the fit nor the error
    # ever sweeps it.
    mdp = make_ring(2)
    order = identity_order(2)
    dead = PartialState.of({0: 1})
    pol = DecisionList(
        (
            Branch(PartialState.of({0: 1, 1: 0}), 1, Fraction(3)),
            Branch(PartialState.of({0: 1, 1: 1}), 2, Fraction(2)),
            Branch(dead, 1, Fraction(1)),
            Branch(EMPTY_STATE, 0, Fraction(0)),
        )
    )
    blocks = weight_lp_blocks(mdp, pol, order)
    assert [block.tag.t for block in blocks if not block.live] == [dead, dead]
    swept = []

    def counting(original):
        def wrapper(family, plan):
            swept.append(plan)
            return original(family, plan)

        return wrapper

    monkeypatch.setattr(weights_module, "max_sum_decode", counting(weights_module.max_sum_decode))
    monkeypatch.setattr(error_module, "max_sum", counting(error_module.max_sum))
    trace: dict = {}
    w, _ = update_weights(mdp, pol, order, trace=trace)
    drawn = (Fraction(-3, 2), Fraction(5), Fraction(1, 7))
    for v in (w, drawn):
        assert factored_bellman_err(mdp, v, pol, order) == explicit_bellman_err(mdp, v, pol)
    priced = {id(plan) for plan in swept}
    assert priced == {id(block.plan) for block in blocks if block.live}
    assert len(trace["std"].placed) == len(blocks) == 8
    assert trace["std"] == assemble_lp(blocks)


def test_sysadmin3_final_list_of_82_branches_gives_56_blocks():
    # 54 of the 82 branches extend an earlier branch's state; building
    # their pairs too gave 164 blocks.
    mdp = sysadmin(3)
    order = elimination_order(mdp, "min-degree")
    res = api(mdp, ApiConfig(order=order))
    assert len(res.pol.branches) == 82
    assert len(weight_lp_blocks(mdp, res.pol, order)) == 56
    assert len(reference_weight_lp_blocks(mdp, res.pol, order)) == 164


def _counted_run(mdp):
    """An untraced min-degree ``api`` run, with its ``branch_lp`` calls and
    how many of them built their summands (no ``like`` pair), the policies
    it derived, in order, and the arguments and result of its last primal
    completion."""
    calls, policies, completed = [0, 0], [], []
    branch_lp, greedy = lpbuild_module.branch_lp, api_module.greedy_decision_list
    complete = weights_module._complete_primal

    def counting_branch_lp(*args):
        calls[0] += 1
        calls[1] += args[5] is None
        return branch_lp(*args)

    def recorded_greedy(*args):
        policies.append(greedy(*args))
        return policies[-1]

    def recorded_complete(*args):
        completed[:] = [args, complete(*args)]
        return completed[1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lpbuild_module, "branch_lp", counting_branch_lp)
        patch.setattr(api_module, "greedy_decision_list", recorded_greedy)
        patch.setattr(weights_module, "_complete_primal", recorded_complete)
        api(mdp, ApiConfig(order=elimination_order(mdp, "min-degree")))
    return tuple(calls), policies, completed


_SEED_0 = {f"ring-{n}": lambda n=n: make_ring(n) for n in (3, 4, 5, 6)}
_SEED_0["sysadmin-3"] = lambda: sysadmin(3)


@pytest.fixture(scope="module")
def counted_runs():
    """``_counted_run`` of the seed-0 models by name, each run once."""
    done: dict = {}

    def run(name):
        if name not in done:
            done[name] = _counted_run(_SEED_0[name]())
        return done[name]

    return run


def _pair_keys(pol) -> list[tuple]:
    """The (t, action, earlier states) of every branch ``weight_lp_blocks``
    builds a pair for: each one whose state extends no earlier branch's."""
    keys: list[tuple] = []
    for b in pol.branches:
        earlier = tuple(key[0] for key in keys)
        if not any(set(b.t.items).issuperset(t.items) for t in earlier):
            keys.append((b.t, b.action, earlier))
    return keys


@pytest.mark.parametrize(
    "names, pairs, summands",
    [(("sysadmin-3",), 29, 28), (("ring-6", "ring-5", "ring-4"), 132, 63)],
)
def test_each_policy_builds_its_blocks_once(counted_runs, names, pairs, summands):
    # The model keeps the latest list's pairs.  The error of a new policy
    # and the fit to it share its pairs, and a converged run's last policy
    # repeats the one before, so it builds none.  Each new policy builds a
    # pair for every branch whose (t, action, earlier states) the policy
    # before it lacks, and its summands only for those whose (t, action)
    # that policy lacks too.
    built = [0, 0]
    for name in names:
        calls, policies, _ = counted_runs(name)
        keys = [[]] + [_pair_keys(pol) for pol in policies]
        assert calls[0] == sum(len(set(new) - set(old)) for old, new in zip(keys, keys[1:]))
        assert calls[1] == sum(
            len({k[:2] for k in new} - {k[:2] for k in old}) for old, new in zip(keys, keys[1:])
        )
        built = [built[0] + calls[0], built[1] + calls[1]]
    assert built == [pairs, summands]


@pytest.mark.parametrize("name", ["ring-4", "ring-5", "ring-6", "sysadmin-3"])
def test_blocks_served_after_the_list_before_equal_a_fresh_build(counted_runs, name):
    # Every pair a list takes from the one before, whole or as its tables,
    # is the pair a fresh build on a fresh model gives, plan and liveness
    # included.
    policies = counted_runs(name)[1]
    mdp = _SEED_0[name]()
    order = elimination_order(mdp, "min-degree")
    for before, pol in zip(policies, policies[1:]):
        weight_lp_blocks(mdp, before, order)
        served = weight_lp_blocks(mdp, pol, order)
        fresh = weight_lp_blocks(_SEED_0[name](), pol, order)
        assert served == fresh
        assert all(block.plan == reference_plan(block.plan) for block in fresh[::2])


@pytest.mark.parametrize("name", ["ring-5", "sysadmin-3"])
def test_a_list_with_new_bonuses_only_takes_the_same_pairs(counted_runs, name):
    # These runs fit a last list whose branches, states and actions in
    # order, repeat the list before it with other bonuses.
    policies = counted_runs(name)[1]
    before, last = policies[-2:]
    assert before != last
    assert [(b.t, b.action) for b in before.branches] == [(b.t, b.action) for b in last.branches]
    mdp = _SEED_0[name]()
    order = elimination_order(mdp, "min-degree")
    kept = weight_lp_blocks(mdp, before, order)
    served = weight_lp_blocks(mdp, last, order)
    assert len(served) == len(kept) and all(map(operator.is_, served, kept))


def test_the_same_list_again_gets_the_same_block_tuple(monkeypatch):
    # The fit's call gets the very list object the error's call built
    # blocks for, under the same order, and takes that call's tuple
    # without building a pair; an equal list that is another object
    # walks the list again, and an empty list is still refused.
    mdp = make_ring(4)
    order = elimination_order(mdp, "min-degree")
    pol = greedy_decision_list(mdp, (Fraction(0), Fraction(1), Fraction(2), Fraction(3), Fraction(4)))
    first = weight_lp_blocks(mdp, pol, order)
    assert len(first) > 2
    calls = []
    monkeypatch.setattr(lpbuild_module, "branch_lp", lambda *args: calls.append(args))
    assert weight_lp_blocks(mdp, pol, order) is first
    assert calls == []
    again = weight_lp_blocks(mdp, DecisionList(pol.branches), order)
    assert again == first and again is not first and calls == []
    with pytest.raises(InvalidInputError, match="covers no state"):
        weight_lp_blocks(mdp, DecisionList(()), order)


@pytest.mark.parametrize("name", ["ring-3", "ring-4", "ring-5", "sysadmin-3"])
def test_integer_completion_matches_the_fraction_reference(counted_runs, name):
    (std, blocks, phi, w, swept), primal = counted_runs(name)[2]
    assert primal.fractions() == reference_complete_primal(std, blocks, phi, w)
    # The last pricing round's tables are a fresh sweep's.
    assert swept and weights_module._complete_primal(std, blocks, phi, w) == primal
    lowered = phi - Fraction(1, primal.den)
    for handed in ({}, swept):
        with pytest.raises(LpInternalError, match="exceeds phi"):
            weights_module._complete_primal(std, blocks, lowered, w, handed)


def _partial_states(dims, least=0):
    n = len(dims)
    scope = st.lists(st.integers(0, n - 1), min_size=least, max_size=n, unique=True)
    return scope.flatmap(
        lambda vs: st.tuples(*(st.integers(0, dims[v] - 1) for v in vs)).map(
            lambda vals: PartialState.of(dict(zip(vs, vals)))
        )
    )


@st.composite
def _shadowing_lists(draw):
    """A model and a decision list, ending in the default branch, with a
    branch whose state extends an earlier branch's."""
    mdp = draw(models())
    acts = st.integers(0, len(mdp.actions) - 1)
    first = draw(_partial_states(mdp.dims, least=1))
    branches = [Branch(first, draw(acts), Fraction(0))]
    for t in draw(st.lists(_partial_states(mdp.dims), max_size=2)):
        branches.append(Branch(t, draw(acts), Fraction(0)))
    earlier = draw(st.sampled_from(branches))
    extra = draw(_partial_states(mdp.dims))
    t = PartialState.of({**dict(extra.items), **dict(earlier.t.items)})
    later = draw(st.integers(branches.index(earlier) + 1, len(branches)))
    branches.insert(later, Branch(t, draw(acts), Fraction(0)))
    branches.append(Branch(EMPTY_STATE, 0, Fraction(0)))
    pol = DecisionList(tuple(branches))
    order = identity_order(len(mdp.dims))
    assert len(weight_lp_blocks(mdp, pol, order)) < 2 * len(pol.branches)
    return mdp, pol, order


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(_shadowing_lists(), st.lists(SMALL, min_size=3, max_size=3))
def test_a_block_is_live_exactly_when_some_state_escapes_its_indicators(drawn, ws):
    # A block is dead when its exact sweep is minus infinity, at w = 0 and
    # so at every w, since no exclusion depends on the weights.
    mdp, pol, order = drawn
    zeros = tuple(Fraction(0) for _ in mdp.basis)
    for block in weight_lp_blocks(mdp, pol, order):
        for w in (zeros, tuple(ws[: len(mdp.basis)])):
            value = reference_max_sum_decode(reference_at(block, w), block.plan)[0]
            assert block.live == (value is not None)


@st.composite
def _shadowing_fits(draw):
    """The blocks of a ``_shadowing_lists`` list, which include unpinned
    entries, weights, and phi at the blocks' largest price."""
    mdp, pol, order = draw(_shadowing_lists())
    blocks = weight_lp_blocks(mdp, pol, order)
    w = tuple(draw(SMALL) for _ in mdp.basis)
    prices = (max_sum(b.at(w), b.plan) for b in blocks)
    return blocks, w, max_or_none(prices)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(_shadowing_fits(), st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(5)]))
def test_integer_completion_matches_the_reference_with_shadows(fit, slack):
    blocks, w, phi = fit
    std = assemble_lp(blocks)
    assert any(None in b for block in blocks for b in block.b)  # unpinned entries
    primal = weights_module._complete_primal(std, blocks, phi + slack, w)
    assert primal.fractions() == reference_complete_primal(std, blocks, phi + slack, w)
    lowered = phi - Fraction(1, primal.den)
    with pytest.raises(LpInternalError, match="exceeds phi"):
        weights_module._complete_primal(std, blocks, lowered, w)
    with pytest.raises(LpInternalError, match="exceeds phi"):
        reference_complete_primal(std, blocks, lowered, w)


# No shrink phase: shrinking re-solves programs of up to 300 rows, and took
# 262 s to report one failure that the unshrunk draw shows in a few.
@settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=60,
    phases=[phase for phase in Phase if phase is not Phase.shrink],
)
@given(_shadowing_lists(), st.lists(SMALL, min_size=3, max_size=3))
def test_pruned_blocks_keep_the_optimum_of_the_program_with_shadowed_blocks(drawn, ws):
    mdp, pol, order = drawn
    unpruned = flatten(reference_weight_lp(reference_weight_lp_blocks(mdp, pol, order)))
    # Derandomized, the draws include programs of 150-240 rows, which the
    # sparse simplex solves in under a second each; one of 326 rows takes
    # about 6 s, so programs above 300 rows are left out.
    assume(unpruned.num_rows <= 300)
    w, phi = update_weights(mdp, pol, order)
    cert = solve_lp(unpruned)
    assert isinstance(cert, Optimal)
    assert cert.primal[unpruned.col_of["phi"]] == phi
    # The oracle's program, one pair of rows per state (at most 27 states).
    explicit = explicit_weight_lp(mdp, pol)
    cert = solve_lp(explicit)
    assert isinstance(cert, Optimal)
    assert cert.primal[explicit.col_of["phi"]] == phi
    for v in (w, tuple(ws[: len(mdp.basis)])):
        assert factored_bellman_err(mdp, v, pol, order) == explicit_bellman_err(mdp, v, pol)


def test_a_list_covering_no_state_is_invalid_input():
    mdp = make_ring(2)
    with pytest.raises(InvalidInputError, match="covers no state"):
        update_weights(mdp, DecisionList(()), identity_order(mdp.n))


@pytest.mark.parametrize("name", ["ring-3", "ring-4", "ring-5", "sysadmin-3"])
def test_the_completed_primal_is_over_its_least_denominator(counted_runs, name):
    primal = counted_runs(name)[2][1]
    assert primal.den == lcm(*(q.denominator for q in primal.fractions()))


def test_a_traced_certificate_makes_one_fraction_per_value():
    mdp = make_ring(4)
    trace: dict = {}
    update_weights(mdp, _default_pol(mdp), elimination_order(mdp, "min-degree"), trace=trace)
    primal = trace["certificate"].primal
    assert len({id(q) for q in primal}) == len(set(primal)) < len(primal)


def test_blocks_whose_states_earlier_branches_claim_complete_below_phi():
    # {1=W} extends neither {0=W} nor {0=B}, so it has blocks, but those two
    # together claim all its states, as they do the fallback's.  Those four
    # blocks price to minus infinity at every w; completed, their totals
    # meet pricing's stand-in, so they are negative, and phi >= 0.
    mdp = make_ring(2)
    order = (0, 1)
    pol = DecisionList(
        (
            Branch(PartialState.of({0: 0}), 1, Fraction(0)),
            Branch(PartialState.of({0: 1}), 2, Fraction(0)),
            Branch(PartialState.of({1: 0}), 1, Fraction(0)),
            Branch(EMPTY_STATE, 0, Fraction(0)),
        )
    )
    trace: dict = {}
    w, phi = update_weights(mdp, pol, order, trace=trace)
    assert (w, phi) == ((Fraction(855, 64), Fraction(25, 16), Fraction(25, 16)), Fraction(27, 128))
    blocks, std, cert = weight_lp_blocks(mdp, pol, order), trace["std"], trace["certificate"]
    assert len(blocks) == 8
    excluded = [k for k, b in enumerate(blocks) if max_sum(b.at(w), b.plan) is None]
    assert excluded == [4, 5, 6, 7]
    for normalized in (True, False):
        assert check_optimality(std, cert.primal, cert.dual, normalized=normalized)
    for k in excluded:
        at = std.placed[k]
        assert sum(cert.primal[at.cols[s]] for s in blocks[k].plan.final) < 0 <= phi
    assert factored_bellman_err(mdp, w, pol, order) == explicit_bellman_err(mdp, w, pol)
