"""Weight fitting: hand optima, oracle agreement, and certified exactness."""

import dataclasses
import importlib
import importlib.util
import random
from fractions import Fraction
from pathlib import Path

from helpers import reference_weight_lp

from fmdp.api import ApiConfig, api
from fmdp.certify import check_optimality
from fmdp.elim import identity_order
from fmdp.error import factored_bellman_err
from fmdp.factored import EMPTY_STATE, PartialState, ScopedFn
from fmdp.lp import PHI, FnVar, Lp, Optimal, Weight, make_constraint, to_standard_form
from fmdp.lpbuild import assemble_lp, weight_lp, weight_lp_blocks
from fmdp.lpio import write_certificate, write_lp
from fmdp.model import FactoredMdp, elimination_order, make_ring
from fmdp.oracle import explicit_weight_lp, policy_value
from fmdp.policy import Branch, DecisionList, greedy_decision_list
from fmdp.simplex import solve_lp
from fmdp.weights import _Cut, _master_std, update_weights

weights_module = importlib.import_module("fmdp.weights")
error_module = importlib.import_module("fmdp.error")


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
        std = to_standard_form(explicit_weight_lp(mdp, pol))
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
    assert weight_lp(mdp, repeated, order) == weight_lp(mdp, pol, order)
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
    assert made == [] and len(trace["lp"].constraints) == len(trace["std"].constraint_rows)
    # Read, the names write the same files as the program built row by row.
    named = reference_weight_lp(weight_lp_blocks(mdp, pol, order))
    write_lp(tmp_path / "fit.lp", trace["lp"])
    write_lp(tmp_path / "named.lp", named)
    write_certificate(tmp_path / "fit.cert", trace["std"], trace["certificate"])
    write_certificate(tmp_path / "named.cert", to_standard_form(named), trace["certificate"])
    assert made
    for suffix in ("lp", "cert"):
        assert (tmp_path / f"fit.{suffix}").read_bytes() == (tmp_path / f"named.{suffix}").read_bytes()


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


def _named_master(m, box, cuts):
    cons = []
    for i in range(m):
        cons.append(make_constraint("le", {Weight(i): Fraction(1)}, box))
        cons.append(make_constraint("le", {Weight(i): Fraction(-1)}, box))
    for cut in cuts:
        coefs = {PHI: Fraction(-1), **{Weight(i): a for i, a in enumerate(cut.alpha)}}
        cons.append(make_constraint("le", coefs, -cut.beta))
    return to_standard_form(Lp(tuple(cons), PHI))


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


def test_shadowed_blocks_are_never_priced_but_keep_their_rows(monkeypatch):
    # Branch {0=B, 1=B} extends the earlier {0=B}: it handles no state, so
    # its pair prices to minus infinity at every w and is never swept,
    # neither by the fit nor by the error, while the full program keeps
    # its rows.
    mdp = make_ring(2)
    order = identity_order(2)
    early, late = PartialState.of({0: 1}), PartialState.of({0: 1, 1: 1})
    pol = DecisionList(
        (Branch(early, 1, Fraction(2)), Branch(late, 2, Fraction(1)), Branch(EMPTY_STATE, 0, Fraction(0)))
    )
    blocks = weight_lp_blocks(mdp, pol, order)
    shadowed = [block for block in blocks if block.tag.t == late]
    assert len(shadowed) == 2 and all(block.ints() is None for block in shadowed)
    assert sum(block.ints() is None for block in blocks) == 2
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
    assert len(swept) - fitted == len(blocks) - 2
    assert fitted == (trace["rounds"] + 1) * (len(blocks) - 2)
    assert all(plan is not shadowed[0].plan for plan in swept)
    assert err == phi
    # The shadowed pair's rows are still assembled, block for block.
    assert len(trace["std"].placed) == len(blocks)
    assert trace["std"] == assemble_lp(blocks)
    assert trace["lp"].constraints == reference_weight_lp(blocks).constraints


def test_sysadmin3_final_list_shadows_108_of_164_blocks():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "models.py"
    spec = importlib.util.spec_from_file_location("perfbench_models", path)
    models = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(models)
    mdp = models.sysadmin_mdp(3, models.sysadmin_params(None))
    order = elimination_order(mdp, "min-degree")
    res = api(mdp, ApiConfig(order=order))
    blocks = weight_lp_blocks(mdp, res.pol, order)
    assert len(blocks) == 164
    assert sum(block.ints() is None for block in blocks) == 108
