"""Reference brute-force answers on hand-checkable rings, and the oracle
against its definitions on drawn models."""

import random
from fractions import Fraction

import pytest
from helpers import Lp, flatten, make_constraint, models
from hypothesis import given, settings
from hypothesis import strategies as st

from fmdp.errors import OracleLimitError
from fmdp.factored import PartialState, restrict
from fmdp.lp import PHI, Optimal, Weight
from fmdp.model import make_ring
from fmdp.oracle import (
    enumerate_states,
    explicit_bellman_err,
    explicit_q,
    explicit_weight_lp,
    optimal_value,
    policy_value,
)
from fmdp.policy import greedy_decision_list, select_action
from fmdp.simplex import solve_lp

WORKING = 0
BROKEN = 1


def _default_pol(mdp):
    return greedy_decision_list(mdp, tuple(Fraction(0) for _ in mdp.basis))


def test_enumerate_states_order_and_count():
    states = enumerate_states(make_ring(2))
    assert len(states) == 4
    assert states[0] == PartialState.of({0: 0, 1: 0})
    assert states[1] == PartialState.of({0: 0, 1: 1})
    assert states[-1] == PartialState.of({0: 1, 1: 1})


def test_enumerate_states_respects_limit():
    with pytest.raises(OracleLimitError, match="8 states"):
        enumerate_states(make_ring(3), limit=7)


def test_explicit_q_agrees_with_factored_backup():
    rng = random.Random(31)
    for n in (1, 2):
        mdp = make_ring(n)
        for _ in range(12):
            w = tuple(
                Fraction(rng.randint(-8, 8), rng.randint(1, 3)) for _ in mdp.basis
            )
            a = rng.randrange(len(mdp.actions))
            for x in enumerate_states(mdp):
                assert explicit_q(mdp, w, a, x) == mdp.q_value(w, a, x)


def test_explicit_bellman_err_zero_weights():
    mdp = make_ring(2)
    w = (Fraction(0), Fraction(0), Fraction(0))
    assert explicit_bellman_err(mdp, w, _default_pol(mdp)) == 2


def test_policy_value_single_machine():
    mdp = make_ring(1)
    values = policy_value(mdp, _default_pol(mdp))
    assert values[PartialState.of({0: WORKING})] == Fraction(95, 14)
    assert values[PartialState.of({0: BROKEN})] == Fraction(45, 14)


def test_policy_value_satisfies_bellman_identity():
    mdp = make_ring(2)
    pol = greedy_decision_list(mdp, (Fraction(1), Fraction(3), Fraction(2)))
    values = policy_value(mdp, pol)
    for x in enumerate_states(mdp):
        a = select_action(pol, x)
        backed = mdp.reward(a, x)
        for y in enumerate_states(mdp):
            p = mdp.transition_prob(a, x, y)
            backed += mdp.discount * p * values[y]
        assert backed == values[x]


def test_optimal_value_single_machine_prefers_restart():
    mdp = make_ring(1)
    values = optimal_value(mdp)
    assert values[PartialState.of({0: WORKING})] == Fraction(10)
    assert values[PartialState.of({0: BROKEN})] == Fraction(9)


def test_optimal_value_dominates_any_policy_and_solves_bellman():
    mdp = make_ring(2)
    star = optimal_value(mdp)
    held = policy_value(mdp, _default_pol(mdp))
    for x in enumerate_states(mdp):
        assert star[x] >= held[x]
        best = None
        for a in range(len(mdp.actions)):
            q = mdp.reward(a, x)
            for y in enumerate_states(mdp):
                q += mdp.discount * mdp.transition_prob(a, x, y) * star[y]
            best = q if best is None else max(best, q)
        assert best == star[x]


def test_explicit_weight_lp_row_count_and_solution():
    mdp = make_ring(1)
    pol = _default_pol(mdp)
    std = explicit_weight_lp(mdp, pol)
    assert len(std.constraint_rows) == 4
    cert = solve_lp(std)
    assert isinstance(cert, Optimal)
    assert cert.primal[std.col_of[PHI]] == 0
    values = policy_value(mdp, pol)
    recovered = {
        x: sum(
            wv * h(restrict(x, h.scope))
            for wv, h in zip(
                (cert.primal[std.col_of[k]] for k in std.columns[1:3]), mdp.basis
            )
        )
        for x in enumerate_states(mdp)
    }
    assert recovered == values


def _expected(mdp, a, x, value):
    """sum_y P(y | x, a) * value(y), over every state y."""
    return sum(
        (mdp.transition_prob(a, x, y) * value(y) for y in enumerate_states(mdp)),
        Fraction(0),
    )


def _backup(mdp, a, x, value):
    return mdp.reward(a, x) + mdp.discount * _expected(mdp, a, x, value)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(mdp=models(), data=st.data())
def test_oracle_meets_its_definitions_on_drawn_models(mdp, data):
    weights = st.tuples(*(st.fractions(-9, 9, max_denominator=7) for _ in mdp.basis))
    w = data.draw(weights)
    states = enumerate_states(mdp)
    for a in range(len(mdp.actions)):
        for x in states:
            assert explicit_q(mdp, w, a, x) == _backup(mdp, a, x, lambda y: mdp.nu_w(w, y))

    pol = greedy_decision_list(mdp, data.draw(weights))
    held = policy_value(mdp, pol)
    star = optimal_value(mdp)
    rows = []
    for x in states:
        a = select_action(pol, x)
        assert held[x] == _backup(mdp, a, x, held.__getitem__)
        assert star[x] == max(_backup(mdp, b, x, star.__getitem__) for b in range(len(mdp.actions)))
        coef = {
            Weight(i): h(x) - mdp.discount * _expected(mdp, a, x, h)
            for i, h in enumerate(mdp.basis)
        }
        r = mdp.reward(a, x)
        rows.append(make_constraint("le", {**coef, PHI: Fraction(-1)}, r))
        rows.append(make_constraint("le", {**{k: -c for k, c in coef.items()}, PHI: Fraction(-1)}, -r))
    assert explicit_weight_lp(mdp, pol) == flatten(Lp(tuple(rows), PHI))
