"""Weight fitting: hand optima, oracle agreement, and certified exactness."""

import dataclasses
import importlib
import random
from fractions import Fraction
from math import lcm

import pytest
from helpers import (
    SMALL,
    Lp,
    all_states,
    flatten,
    make_constraint,
    max_or_none,
    min_lp,
    models,
    reference_complete_primal,
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
from fmdp.lp import PHI, FnVar, Optimal, Tag, Weight
from fmdp.lpbuild import assemble_lp, weight_lp_blocks
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
    w, phi = update_weights(mdp, _default_pol(mdp))
    assert w == (Fraction(5),)
    assert phi == Fraction(1, 2)


def test_expressive_basis_reaches_zero_error():
    mdp = make_ring(1)
    pol = _default_pol(mdp)
    w, phi = update_weights(mdp, pol)
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
        _, phi = update_weights(mdp, pol)
        std = explicit_weight_lp(mdp, pol)
        cert = solve_lp(std)
        assert isinstance(cert, Optimal)
        assert cert.primal[std.col_of[PHI]] == phi


def test_certificate_is_exposed_and_checks_out():
    mdp = make_ring(2)
    pol = _default_pol(mdp)
    trace: dict = {}
    w, phi = update_weights(mdp, pol, trace=trace)
    cert = trace["certificate"]
    std = trace["std"]
    assert isinstance(cert, Optimal)
    assert cert.primal[std.col_of[PHI]] == phi
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
        assert step["phi"] == cert.primal[explicit.col_of[PHI]]
        traced = step["certificate"]
        assert check_optimality(step["std"], traced.primal, traced.dual)


def test_update_is_deterministic():
    mdp = make_ring(2)
    pol = greedy_decision_list(mdp, (Fraction(1), Fraction(-1), Fraction(1, 2)))
    first = update_weights(mdp, pol)
    second = update_weights(mdp, pol)
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
    made = []
    original = FnVar.__post_init__

    def counting(self):
        made.append(self)
        original(self)

    monkeypatch.setattr(FnVar, "__post_init__", counting)
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
    assert made
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
            assert _cut_at(7, block, x) == _Cut(7, x, tuple(c(x) for c in c_fns), total)
        else:
            with pytest.raises(LpInternalError, match="excluded state"):
                _cut_at(7, block, x)


def _named_master(m, box, cuts):
    cons = []
    for i in range(m):
        cons.append(make_constraint("le", {Weight(i): Fraction(1)}, box))
        cons.append(make_constraint("le", {Weight(i): Fraction(-1)}, box))
    for cut in cuts:
        coefs = {PHI: Fraction(-1), **{Weight(i): a for i, a in enumerate(cut.alpha)}}
        cons.append(make_constraint("le", coefs, -cut.beta))
    return flatten(Lp(tuple(cons), PHI))


def test_master_is_the_standard_form_of_its_named_program():
    rng = random.Random(6)

    def rational(lo, hi):
        return Fraction(rng.randint(lo, hi), rng.randint(1, 3))

    for m in range(5):
        for _ in range(20):
            cuts = [
                _Cut(0, EMPTY_STATE, tuple(rational(-2, 2) for _ in range(m)), rational(-5, 5))
                for _ in range(rng.randint(0, 4))
            ]
            flat = _Cut(0, EMPTY_STATE, (Fraction(0),) * m, rational(-5, 5))
            cuts.insert(rng.randint(0, len(cuts)), flat)
            box = Fraction(rng.randint(1, 4096))
            direct, named = _master_std(m, box, cuts), _named_master(m, box, cuts)
            assert direct == named
            assert direct.col_of == named.col_of


def test_shadowed_branches_build_no_blocks(monkeypatch):
    # Branch {0=B, 1=B} extends the earlier {0=B}: it handles no state, so
    # it gets no blocks, and every block that is built is priced by the fit
    # and by the error and assembled into the full program.
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
        def wrapper(fs, order, dims, plan=None):
            swept.append(plan)
            return original(fs, order, dims, plan)

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
    """An untraced min-degree ``api`` run, with its ``branch_lp`` calls, the
    policies it derived, in order, and the arguments and result of its last
    primal completion."""
    calls, policies, completed = [0], [], []
    branch_lp, greedy = lpbuild_module.branch_lp, api_module.greedy_decision_list
    complete = weights_module._complete_primal

    def counting_branch_lp(*args):
        calls[0] += 1
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
    return calls[0], policies, completed


@pytest.fixture(scope="module")
def counted_runs():
    """``_counted_run`` of the seed-0 models by name, each run once."""
    builders = {f"ring-{n}": lambda n=n: make_ring(n) for n in (3, 4, 5, 6)}
    builders["sysadmin-3"] = lambda: sysadmin(3)
    done: dict = {}

    def run(name):
        if name not in done:
            done[name] = _counted_run(builders[name]())
        return done[name]

    return run


def _live_branches(pol) -> int:
    """The branches whose state extends no earlier branch's state."""
    return sum(
        not any(set(b.t.items).issuperset(e.t.items) for e in pol.branches[:k])
        for k, b in enumerate(pol.branches)
    )


@pytest.mark.parametrize(
    "names, calls", [(("sysadmin-3",), 57), (("ring-6", "ring-5", "ring-4"), 154)]
)
def test_each_policy_builds_its_blocks_once(counted_runs, names, calls):
    # Every policy the run derives gets one pair of blocks per live branch,
    # built once and shared by the error of that policy and the fit to it;
    # a converged run's last policy repeats the one before, so it builds none.
    built = 0
    for name in names:
        count, policies, _ = counted_runs(name)
        assert count == sum(map(_live_branches, dict.fromkeys(policies)))
        built += count
    assert built == calls


@pytest.mark.parametrize("name", ["ring-3", "ring-4", "ring-5", "sysadmin-3"])
def test_integer_completion_matches_the_fraction_reference(counted_runs, name):
    (std, blocks, phi, w), primal = counted_runs(name)[2]
    assert primal.fractions() == reference_complete_primal(std, blocks, phi, w)
    with pytest.raises(LpInternalError, match="exceeds phi"):
        weights_module._complete_primal(std, blocks, phi - Fraction(1, primal.den), w)


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


@st.composite
def _shadowing_fits(draw):
    """The blocks of a ``_shadowing_lists`` list, which include unpinned
    entries, weights, and phi at the blocks' largest price."""
    mdp, pol, order = draw(_shadowing_lists())
    blocks = weight_lp_blocks(mdp, pol, order)
    w = tuple(draw(SMALL) for _ in mdp.basis)
    prices = (max_sum(b.at(w), order, mdp.dims, b.plan) for b in blocks)
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
    assert cert.primal[unpruned.col_of[PHI]] == phi
    # The oracle's program, one pair of rows per state (at most 27 states).
    explicit = explicit_weight_lp(mdp, pol)
    cert = solve_lp(explicit)
    assert isinstance(cert, Optimal)
    assert cert.primal[explicit.col_of[PHI]] == phi
    for v in (w, tuple(ws[: len(mdp.basis)])):
        assert factored_bellman_err(mdp, v, pol, order) == explicit_bellman_err(mdp, v, pol)


def test_a_list_covering_no_state_is_invalid_input():
    mdp = make_ring(2)
    with pytest.raises(InvalidInputError, match="covers no state"):
        update_weights(mdp, DecisionList(()))


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
    excluded = [k for k, b in enumerate(blocks) if max_sum(b.at(w), order, mdp.dims, b.plan) is None]
    assert excluded == [4, 5, 6, 7]
    for normalized in (True, False):
        assert check_optimality(std, cert.primal, cert.dual, normalized=normalized)
    for k in excluded:
        at = std.placed[k]
        assert sum(cert.primal[at.cols[s]] for s in blocks[k].plan.final) < 0 <= phi
    assert factored_bellman_err(mdp, w, pol, order) == explicit_bellman_err(mdp, w, pol)
