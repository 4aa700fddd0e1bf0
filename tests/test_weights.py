"""Weight fitting: hand optima, oracle agreement, and certified exactness."""

import dataclasses
import random
from fractions import Fraction

from helpers import reference_weight_lp

from fmdp.certify import check_optimality
from fmdp.elim import identity_order
from fmdp.error import factored_bellman_err
from fmdp.factored import EMPTY_STATE, ScopedFn
from fmdp.lp import PHI, FnVar, Lp, Optimal, Weight, make_constraint, to_standard_form
from fmdp.lpbuild import weight_lp, weight_lp_blocks
from fmdp.lpio import write_certificate, write_lp
from fmdp.model import FactoredMdp, elimination_order, make_ring
from fmdp.oracle import explicit_weight_lp, policy_value
from fmdp.policy import DecisionList, greedy_decision_list
from fmdp.simplex import solve_lp
from fmdp.weights import _Cut, _master_std, update_weights


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
