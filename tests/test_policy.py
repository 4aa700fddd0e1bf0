"""Decision-list construction: bonuses, ordering, greediness, serialization."""

import dataclasses
import random
from fractions import Fraction

import pytest
from helpers import (
    SMALL,
    models,
    reference_bonus,
    reference_dec_list_act,
    reference_difference_fns,
    reference_g,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fmdp.errors import InvalidInputError
from fmdp.factored import EMPTY_STATE, PartialState, ScopedFn, assignments, restrict
from fmdp.lpbuild import difference_fns
from fmdp.model import make_ring
from fmdp.policy import (
    Branch,
    DecisionList,
    bonus,
    dec_list_act,
    decision_list_from_text,
    decision_list_to_text,
    greedy_decision_list,
    relevant_basis,
    scope_T,
    select_action,
    text_safe,
)

W, B = 0, 1
F = Fraction


def full_states(mdp):
    return assignments(range(mdp.n), mdp.dims)


def random_weights(rng, m):
    return tuple(F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(m))


def with_extra_action_like_default(mdp, name):
    """Append an action that behaves exactly like the default."""
    return dataclasses.replace(
        mdp,
        actions=mdp.actions + (name,),
        transitions=mdp.transitions + (mdp.transitions[mdp.default],),
        rewards=mdp.rewards + (mdp.rewards[mdp.default],),
        effects=mdp.effects + ((),),
    )


def test_relevant_basis():
    mdp = make_ring(3)
    assert relevant_basis(mdp, 0) == ()
    # restart of variable k only meets the indicator basis of variable k
    for k in range(3):
        assert relevant_basis(mdp, k + 1) == (k + 1,)
    wide = dataclasses.replace(
        mdp,
        basis=tuple(
            ScopedFn.tabulate(range(3), mdp.dims, lambda x: F(1)) for _ in range(2)
        ),
    )
    assert relevant_basis(wide, 1) == (0, 1)


def test_scope_T_examples():
    mdp = make_ring(4)
    assert scope_T(mdp, 0) == ()
    # restart of variable 1: own lookahead scope {1}, default's {0, 1}
    assert scope_T(mdp, 2) == (0, 1)


def test_scope_T_includes_extra_reward_scope():
    mdp = make_ring(3)
    extra = ScopedFn((2,), (2,), (F(5), F(0)))
    rewards = list(mdp.rewards)
    rewards[1] = rewards[1] + (extra,)
    mdp = dataclasses.replace(mdp, rewards=tuple(rewards))
    assert mdp.validate() == []
    assert 2 in scope_T(mdp, 1)


def test_bonus_zero_weights_vanishes():
    mdp = make_ring(2)
    for a in (1, 2):
        delta = bonus(mdp, (F(0),) * 3, a)
        assert all(v == 0 for v in delta.table)


def test_bonus_hand_values():
    mdp = make_ring(2)
    w = (F(0), F(1), F(0))
    delta = bonus(mdp, w, 1)  # restart machine 0, predecessor is machine 1
    assert delta.scope == (0, 1)
    both_broken = PartialState.of({0: B, 1: B})
    assert delta(both_broken) == F(81, 100)
    both_working = PartialState.of({0: W, 1: W})
    assert delta(both_working) == F(9, 10) * (1 - F(9, 10))


def test_bonus_equals_q_difference():
    rng = random.Random(23)
    for n in (1, 2, 3):
        mdp = make_ring(n)
        for _ in range(4):
            w = random_weights(rng, len(mdp.basis))
            for a in range(len(mdp.actions)):
                if a == mdp.default:
                    continue
                delta = bonus(mdp, w, a)
                for x in full_states(mdp):
                    lhs = delta(restrict(x, delta.scope))
                    assert lhs == mdp.q_value(w, a, x) - mdp.q_value(w, 0, x)


def test_dec_list_act_zero_weights_empty():
    mdp = make_ring(2)
    for a in (1, 2):
        assert dec_list_act(mdp, (F(0),) * 3, a) == []


def test_dec_list_act_empty_scope_action():
    mdp = with_extra_action_like_default(make_ring(1), "idle")
    assert mdp.validate() == []
    assert scope_T(mdp, 2) == ()
    assert dec_list_act(mdp, (F(1), F(1)), 2) == []


def test_dec_list_act_positive_filter():
    mdp = make_ring(2)
    w = (F(0), F(1), F(1))
    branches = dec_list_act(mdp, w, 1)
    delta = bonus(mdp, w, 1)
    expected = [
        (t, v) for t, v in zip(assignments(delta.scope, mdp.dims), delta.table) if v > 0
    ]
    assert [(br.t, br.bonus) for br in branches] == expected
    assert all(br.action == 1 for br in branches)
    assert len(branches) == 4  # restarting a machine always helps here


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(models(), st.lists(SMALL, min_size=3, max_size=3))
@example(make_ring(2), [F(0)] * 3)
@example(make_ring(2), [F(2), F(-3, 2), F(5)])
@example(with_extra_action_like_default(make_ring(1), "idle"), [F(1), F(-1, 3), F(0)])
@example(dataclasses.replace(make_ring(2), discount=F(0)), [F(-1), F(2, 3), F(-4)])
def test_integer_tables_match_the_pointwise_references(mdp, ws):
    # The ring's restart rows hold zero probabilities, its copy with an
    # idle action has an action with empty scope_T, and SMALL draws zero
    # and negative weights; ``models`` draws discount 0 among others.
    w = tuple(ws[: len(mdp.basis)])
    for a in range(len(mdp.actions)):
        for i in range(len(mdp.basis)):
            assert mdp.g(i, a) == reference_g(mdp, i, a)
        for t in assignments(scope_T(mdp, a), mdp.dims):
            assert difference_fns(mdp, t, a) == reference_difference_fns(mdp, t, a)
        if a != mdp.default:
            assert bonus(mdp, w, a) == reference_bonus(mdp, w, a)
            assert dec_list_act(mdp, w, a) == reference_dec_list_act(mdp, w, a)


def test_greedy_list_zero_weights_is_default_only():
    mdp = make_ring(2)
    pol = greedy_decision_list(mdp, (F(0),) * 3)
    assert pol.branches == (Branch(EMPTY_STATE, 0, F(0)),)


def test_greedy_list_sorted_and_complete():
    mdp = make_ring(3)
    rng = random.Random(31)
    for _ in range(10):
        w = random_weights(rng, 4)
        pol = greedy_decision_list(mdp, w)
        bonuses = [br.bonus for br in pol.branches]
        assert bonuses == sorted(bonuses, reverse=True)
        assert pol.branches[-1].bonus == 0 or all(b > 0 for b in bonuses[:-1])
        # fallback present exactly once, with the default action
        fallbacks = [br for br in pol.branches if br.t == EMPTY_STATE]
        assert fallbacks == [Branch(EMPTY_STATE, 0, F(0))]
        # same multiset as the unsorted construction
        rebuilt = [Branch(EMPTY_STATE, 0, F(0))]
        for a in range(len(mdp.actions)):
            if a != 0:
                rebuilt.extend(dec_list_act(mdp, w, a))
        assert sorted(
            ((br.t.items, br.action, br.bonus) for br in pol.branches)
        ) == sorted(((br.t.items, br.action, br.bonus) for br in rebuilt))


def test_select_action_first_match():
    pol = DecisionList(
        (
            Branch(PartialState.of({0: B}), 1, F(1, 2)),
            Branch(EMPTY_STATE, 0, F(0)),
        )
    )
    assert select_action(pol, PartialState.of({0: B, 1: W})) == 1
    assert select_action(pol, PartialState.of({0: W, 1: B})) == 0
    with pytest.raises(InvalidInputError):
        select_action(DecisionList(()), PartialState.of({0: W}))


def test_greedy_selects_restart_of_broken_machine():
    mdp = make_ring(2)
    w = (F(0), F(1), F(1))
    pol = greedy_decision_list(mdp, w)
    x = PartialState.of({0: B, 1: W})
    assert select_action(pol, x) == 1  # restart the broken machine 0
    assert select_action(pol, PartialState.of({0: W, 1: B})) == 2


def test_greedy_q_equality_sweep():
    rng = random.Random(37)
    for n in (1, 2, 3):
        mdp = make_ring(n)
        for _ in range(10):
            w = random_weights(rng, len(mdp.basis))
            pol = greedy_decision_list(mdp, w)
            for x in full_states(mdp):
                chosen = mdp.q_value(w, select_action(pol, x), x)
                best = max(mdp.q_value(w, a, x) for a in range(len(mdp.actions)))
                assert chosen == best


def test_decision_list_text_round_trip():
    mdp = make_ring(2)
    pol = greedy_decision_list(mdp, (F(1, 3), F(2), F(-1, 2)))
    text = decision_list_to_text(mdp, pol)
    assert decision_list_from_text(mdp, text) == pol
    # the fallback line has an empty state field
    last = text.strip().splitlines()[-1]
    assert last.startswith(";") or last.startswith(" ;")


def test_decision_list_text_errors():
    mdp = make_ring(1)
    with pytest.raises(InvalidInputError):
        decision_list_from_text(mdp, "0=W ; restart_0\n")
    with pytest.raises(InvalidInputError):
        decision_list_from_text(mdp, "0=Q ; restart_0 ; 1\n")
    with pytest.raises(InvalidInputError):
        decision_list_from_text(mdp, "0=W ; dance ; 1\n")
    with pytest.raises(InvalidInputError):
        decision_list_from_text(mdp, "5=W ; restart_0 ; 1\n")
    with pytest.raises(InvalidInputError, match=r"^decision list line 2: not a rational: '1/0'$"):
        decision_list_from_text(mdp, "0=W ; restart_0 ; 1\n ; noop ; 1/0\n")


def test_decision_list_text_rejects_a_variable_assigned_twice():
    mdp = make_ring(1)
    with pytest.raises(InvalidInputError, match="variable 0 assigned twice"):
        decision_list_from_text(mdp, "0=W 0=B ; noop ; 0\n")
    with pytest.raises(InvalidInputError, match="assigned twice"):
        decision_list_from_text(mdp, "0=W 0=W ; noop ; 0\n")


@pytest.mark.parametrize("bad", ["two words", "semi;colon", "tab\there", " padded"])
@pytest.mark.parametrize("where", ["value", "action"])
def test_decision_list_text_refuses_names_it_could_not_read_back(where, bad):
    mdp = make_ring(1)
    if where == "value":
        mdp = dataclasses.replace(mdp, domains=(("W", bad),))
        pol = DecisionList((Branch(PartialState.of({0: 1}), 1, F(1)), Branch(EMPTY_STATE, 0, F(0))))
    else:
        mdp = dataclasses.replace(mdp, actions=("noop", bad))
        pol = DecisionList((Branch(PartialState.of({0: 0}), 1, F(1)), Branch(EMPTY_STATE, 0, F(0))))
    assert not text_safe(bad)
    with pytest.raises(InvalidInputError, match="cannot be written"):
        decision_list_to_text(mdp, pol)


_NAME = st.text(st.characters(blacklist_categories=("Cs",)), max_size=4).filter(text_safe)


@st.composite
def _named_lists(draw):
    """A model with arbitrary text-safe names and a decision list over it."""
    n = draw(st.integers(1, 3))
    domains = tuple(
        tuple(draw(st.lists(_NAME, min_size=1, max_size=3, unique=True))) for _ in range(n)
    )
    actions = tuple(draw(st.lists(_NAME, min_size=1, max_size=3, unique=True)))
    mdp = dataclasses.replace(make_ring(1), domains=domains, actions=actions)
    branch = st.builds(
        Branch,
        st.dictionaries(
            st.integers(0, n - 1), st.integers(0, 2), max_size=n
        ).map(lambda t: PartialState.of({v: val % len(domains[v]) for v, val in t.items()})),
        st.integers(0, len(actions) - 1),
        st.builds(F, st.integers(-50, 50), st.integers(1, 9)),
    )
    return mdp, DecisionList(tuple(draw(st.lists(branch, max_size=5))))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_named_lists())
def test_decision_list_text_round_trips(case):
    mdp, pol = case
    assert decision_list_from_text(mdp, decision_list_to_text(mdp, pol)) == pol
