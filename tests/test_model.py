"""Model construction, validation names, ring benchmark, and file round-trips."""

import dataclasses
import json
import random
import re
from fractions import Fraction

import pytest
from helpers import models
from hypothesis import HealthCheck, given, settings

from fmdp.errors import InvalidInputError
from fmdp.factored import EMPTY_STATE, PartialState, ScopedFn, assignments
from fmdp.mdpio import load_mdp, mdp_from_json_dict, mdp_to_json_dict, save_mdp
from fmdp.model import FactoredMdp, elimination_order, make_ring

W, B = 0, 1
F = Fraction


def full_states(mdp):
    return assignments(range(mdp.n), mdp.dims)


def brute_q(mdp, w, a, x):
    """Action value by full successor enumeration, the textbook definition."""
    future = sum(
        (mdp.transition_prob(a, x, nxt) * mdp.nu_w(w, nxt) for nxt in full_states(mdp)),
        F(0),
    )
    return mdp.reward(a, x) + mdp.discount * future


def random_weights(rng, m):
    return tuple(F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(m))


# -- ring structure ------------------------------------------------------


def test_ring_default_transition_scopes_wrap():
    mdp = make_ring(4)
    assert mdp.transitions[0][0].scope == (0, 3)
    assert mdp.transitions[0][1].scope == (0, 1)
    assert mdp.transitions[0][2].scope == (1, 2)


def test_ring_default_probabilities_match_table():
    mdp = make_ring(4)
    f = mdp.transitions[0][1]  # machine 1, predecessor 0
    cases = {
        (W, W): F(9, 10),
        (B, W): F(2, 10),  # self broken, predecessor working
        (W, B): F(7, 10),  # self working, predecessor broken
        (B, B): F(1, 10),
    }
    for (self_val, pred_val), p in cases.items():
        row = f(PartialState.of({0: pred_val, 1: self_val}))
        assert row == (p, 1 - p)


def test_ring_single_machine_collapses_to_diagonal():
    mdp = make_ring(1)
    f = mdp.transitions[0][0]
    assert f.scope == (0,)
    assert f(PartialState.of({0: W})) == (F(9, 10), F(1, 10))
    assert f(PartialState.of({0: B})) == (F(1, 10), F(9, 10))


def test_ring_restart_forces_working_with_tiny_scope():
    mdp = make_ring(3)
    restart_1 = 2
    forced = mdp.transitions[restart_1][1]
    assert forced.scope == (1,)
    assert all(row == (F(1), F(0)) for row in forced.table)
    # untouched variables reuse the default objects
    assert mdp.transitions[restart_1][0] is mdp.transitions[0][0]
    assert mdp.transitions[restart_1][2] is mdp.transitions[0][2]
    assert mdp.effects[restart_1] == (1,)
    assert mdp.effects[0] == ()


def test_ring_rewards_and_basis_shape():
    mdp = make_ring(3)
    assert len(mdp.rewards[0]) == 3
    for a in range(4):
        assert mdp.rewards[a] == mdp.rewards[0]
    assert len(mdp.basis) == 4
    assert mdp.basis[0].scope == ()
    assert mdp.basis[2].scope == (1,)
    assert mdp.discount == F(9, 10)
    assert mdp.validate() == []


def test_ring_rejects_empty():
    with pytest.raises(InvalidInputError):
        make_ring(0)


# -- core quantities ------------------------------------------------------


def test_transition_prob_product():
    mdp = make_ring(2)
    x = PartialState.of({0: W, 1: W})
    assert mdp.transition_prob(0, x, x) == F(81, 100)
    restart_1 = 2
    for nxt in full_states(mdp):
        if nxt.value(1) == B:
            assert mdp.transition_prob(restart_1, x, nxt) == 0


def test_transition_prob_normalizes():
    for n in (1, 2, 3):
        mdp = make_ring(n)
        for a in range(len(mdp.actions)):
            for x in full_states(mdp):
                assert sum(mdp.transition_prob(a, x, nxt) for nxt in full_states(mdp)) == 1


def test_transition_prob_rejects_bad_inputs():
    mdp = make_ring(2)
    x = PartialState.of({0: W, 1: W})
    with pytest.raises(InvalidInputError):
        mdp.transition_prob(9, x, x)
    with pytest.raises(InvalidInputError):
        mdp.transition_prob(0, PartialState.of({0: W}), x)
    with pytest.raises(InvalidInputError):
        mdp.transition_prob(0, x, PartialState.of({0: W, 1: 7}))


def test_reward_counts_working_machines():
    mdp = make_ring(2)
    assert mdp.reward(0, PartialState.of({0: W, 1: W})) == 2
    assert mdp.reward(0, PartialState.of({0: B, 1: B})) == 0
    assert mdp.reward(0, PartialState.of({0: W, 1: B})) == 1
    with pytest.raises(InvalidInputError):
        mdp.reward(0, PartialState.of({0: W}))


def test_g_constant_basis_is_constant_one():
    mdp = make_ring(3)
    for a in range(4):
        g0 = mdp.g(0, a)
        assert g0.scope == ()
        assert g0(EMPTY_STATE) == 1


def test_g_matches_fig_entry():
    mdp = make_ring(2)
    # basis 1 is the working-indicator of variable 0
    g = mdp.g(1, 0)
    assert g.scope == (0, 1)
    assert g(PartialState.of({0: W, 1: W})) == F(9, 10)


def test_g_after_restart_is_certainty():
    mdp = make_ring(3)
    for k in range(3):
        g = mdp.g(k + 1, k + 1)
        assert g.scope == (k,)
        assert all(v == 1 for v in g.table)


def test_g_scope_and_values_match_enumeration():
    rng = random.Random(5)
    for n in (1, 2, 3):
        mdp = make_ring(n)
        for a in range(len(mdp.actions)):
            for i in range(len(mdp.basis)):
                g = mdp.g(i, a)
                assert g.scope == mdp.gamma_scope(i, a)
                for x in full_states(mdp):
                    expected = sum(
                        (
                            mdp.transition_prob(a, x, nxt) * mdp.basis[i](nxt)
                            for nxt in full_states(mdp)
                        ),
                        F(0),
                    )
                    assert g(x) == expected


def test_nu_w_examples():
    mdp = make_ring(2)
    x = PartialState.of({0: W, 1: B})
    assert mdp.nu_w((F(0),) * 3, x) == 0
    assert mdp.nu_w((F(1), F(0), F(0)), x) == 1
    assert mdp.nu_w((F(0), F(1), F(1)), x) == 1


def test_q_value_hand_example():
    mdp = make_ring(2)
    w = (F(0), F(1), F(1))
    x = PartialState.of({0: W, 1: W})
    assert mdp.q_value(w, 0, x) == F(181, 50)


def test_q_value_degenerate_cases():
    mdp = make_ring(2)
    x = PartialState.of({0: W, 1: B})
    assert mdp.q_value((F(0),) * 3, 1, x) == mdp.reward(1, x)
    myopic = dataclasses.replace(mdp, discount=F(0))
    assert myopic.q_value((F(3), F(-2), F(5)), 1, x) == myopic.reward(1, x)


def test_q_value_matches_explicit_definition():
    rng = random.Random(13)
    for n in (1, 2, 3):
        mdp = make_ring(n)
        for _ in range(5):
            w = random_weights(rng, len(mdp.basis))
            for a in range(len(mdp.actions)):
                for x in full_states(mdp):
                    assert mdp.q_value(w, a, x) == brute_q(mdp, w, a, x)


# -- validation names ------------------------------------------------------


def violations_contain(mdp, name):
    return any(v.startswith(name) for v in mdp.validate())


def corrupt_transition(mdp, a, i, fn):
    per_var = list(mdp.transitions[a])
    per_var[i] = fn
    trans = list(mdp.transitions)
    trans[a] = tuple(per_var)
    return dataclasses.replace(mdp, transitions=tuple(trans))


def corrupt_reward(mdp, a, j, fn):
    rs = list(mdp.rewards[a])
    rs[j] = fn
    rewards = list(mdp.rewards)
    rewards[a] = tuple(rs)
    return dataclasses.replace(mdp, rewards=tuple(rewards))


def test_validate_transitions_closed():
    mdp = make_ring(2)
    bad_row = ScopedFn((0,), (2,), ((F(9, 10), F(9, 10)), (F(1), F(0))))
    assert violations_contain(
        corrupt_transition(mdp, 1, 0, bad_row), "transitions_closed"
    )


def test_validate_reports_a_scalar_transition_entry():
    mdp = make_ring(2)
    scalar_rows = ScopedFn((0,), (2,), (F(1), F(0)))
    found = corrupt_transition(mdp, 0, 0, scalar_rows).validate()
    assert any(v.startswith("transitions_closed: action 0, variable 0") for v in found)


def test_validate_transitions_scope_dims():
    mdp = make_ring(2)
    bad_scope = ScopedFn((0, 2), (2, 2), ((F(1), F(0)),) * 4)
    assert violations_contain(
        corrupt_transition(mdp, 1, 0, bad_scope), "transitions_scope_dims"
    )


def test_validate_actions_ne():
    mdp = dataclasses.replace(
        make_ring(1), actions=(), transitions=(), rewards=(), effects=()
    )
    assert violations_contain(mdp, "actions_ne")


def test_validate_doms_ne():
    mdp = dataclasses.replace(make_ring(2), domains=(("W", "B"), ()))
    assert violations_contain(mdp, "doms_ne")


def test_validate_dims_pos():
    mdp = FactoredMdp(
        domains=(),
        actions=("noop",),
        default=0,
        transitions=((),),
        rewards=((),),
        effects=((),),
        discount=F(1, 2),
        basis=(),
    )
    assert violations_contain(mdp, "dims_pos")


def test_validate_discount_bounds():
    mdp = make_ring(1)
    assert violations_contain(dataclasses.replace(mdp, discount=F(1)), "disc_lt_one")
    assert violations_contain(
        dataclasses.replace(mdp, discount=F(-1, 10)), "disc_nonneg"
    )


def test_validate_default_act():
    assert violations_contain(
        dataclasses.replace(make_ring(1), default=7), "default_act"
    )


def test_validate_effects_undeclared_deviation():
    mdp = make_ring(2)
    forced = mdp.transitions[1][0]  # restart_0's own-variable table
    sneaky = corrupt_transition(mdp, 1, 1, ScopedFn((1,), (2,), forced.table))
    assert violations_contain(sneaky, "effects")


def test_validate_effects_default_empty():
    mdp = make_ring(2)
    assert violations_contain(
        dataclasses.replace(mdp, effects=((0,), (0,), (1,))), "effects_default"
    )


def test_validate_transitions_count():
    mdp = make_ring(2)
    short = dataclasses.replace(mdp, transitions=mdp.transitions[:1])
    assert violations_contain(short, "transitions_count")


def test_validate_rewards_count():
    mdp = make_ring(2)
    short = dataclasses.replace(mdp, rewards=mdp.rewards[:1])
    assert short.validate() == ["rewards_count: 1 rewards entries for 3 actions"]


def test_validate_effects_count():
    mdp = make_ring(2)
    assert dataclasses.replace(mdp, effects=()).validate() == [
        "effects_count: 0 effects entries for 3 actions"
    ]


def test_validate_rewards_default_dim():
    mdp = make_ring(2)
    rewards = list(mdp.rewards)
    rewards[1] = rewards[1][:1]
    assert violations_contain(
        dataclasses.replace(mdp, rewards=tuple(rewards)), "rewards_default_dim"
    )


def test_validate_rewards_eq():
    mdp = make_ring(2)
    altered = ScopedFn((0,), (2,), (F(2), F(0)))
    assert violations_contain(corrupt_reward(mdp, 1, 0, altered), "rewards_eq")


def test_validate_reward_scope_eq():
    mdp = make_ring(2)
    moved = ScopedFn((1,), (2,), (F(1), F(0)))
    assert violations_contain(corrupt_reward(mdp, 1, 0, moved), "reward_scope_eq")


def test_validate_reward_scope_dims():
    mdp = make_ring(2)
    bad = ScopedFn((5,), (2,), (F(1), F(0)))
    assert violations_contain(corrupt_reward(mdp, 0, 0, bad), "reward_scope_dims")


def test_validate_h_scope_dims():
    mdp = make_ring(2)
    basis = mdp.basis[:2] + (ScopedFn((9,), (2,), (F(1), F(0))),)
    assert violations_contain(
        dataclasses.replace(mdp, basis=basis), "h_scope_dims"
    )


def test_validate_reports_an_int_effects_entry():
    mdp = make_ring(2)
    bad = dataclasses.replace(mdp, effects=((), 1, (1,)))
    assert bad.validate() == ["effects: action 1: 1 is not a tuple of variable indices"]


def test_validate_reports_a_scalar_reward_family():
    mdp = make_ring(2)
    bad = dataclasses.replace(mdp, rewards=(mdp.rewards[0], F(5), mdp.rewards[2]))
    assert bad.validate() == [
        "reward_scope_dims: action 1: Fraction(5, 1) is not a tuple of rewards"
    ]


def test_validate_reports_a_none_basis_function():
    mdp = make_ring(2)
    bad = dataclasses.replace(mdp, basis=(None,) + mdp.basis[1:])
    assert bad.validate() == ["h_scope_dims: basis 0: None is not a scoped function"]


def test_validate_reports_a_non_rational_reward_entry():
    mdp = make_ring(2)
    r = mdp.rewards[0][0]
    bad = ScopedFn(r.scope, r.card, (None,) + r.table[1:])
    rewards = tuple((bad,) + rs[1:] for rs in mdp.rewards)
    assert dataclasses.replace(mdp, rewards=rewards).validate() == [
        f"reward_scope_dims: action {a}, reward 0: entry None is not a rational"
        for a in range(len(mdp.actions))
    ]


@pytest.mark.parametrize("value", ["x", 0.5])
def test_validate_reports_a_non_rational_basis_entry(value):
    mdp = make_ring(2)
    h = mdp.basis[1]
    basis = (mdp.basis[0], ScopedFn(h.scope, h.card, (value,) + h.table[1:]), mdp.basis[2])
    assert dataclasses.replace(mdp, basis=basis).validate() == [
        f"h_scope_dims: basis 1: entry {value!r} is not a rational"
    ]


def test_validate_reports_a_domain_value_that_is_not_a_name():
    mdp = make_ring(2)
    bad = dataclasses.replace(mdp, domains=(("W", 3),) + mdp.domains[1:])
    assert bad.validate() == ["doms_ne: variable 0: value 3 is not a name"]


def test_validate_reports_an_action_that_is_not_a_name():
    mdp = make_ring(2)
    bad = dataclasses.replace(mdp, actions=(mdp.actions[0], 7) + mdp.actions[2:])
    assert bad.validate() == ["actions_ne: action 1: 7 is not a name"]


def test_validate_reports_a_scalar_transition_family():
    mdp = make_ring(2)
    bad = dataclasses.replace(mdp, transitions=(mdp.transitions[0], 3, mdp.transitions[2]))
    assert bad.validate() == [
        "transitions_scope_dims: action 1: 3 is not a tuple of transition functions"
    ]


def test_validate_reports_a_none_transition_function():
    mdp = make_ring(2)
    found = corrupt_transition(mdp, 1, 0, None).validate()
    assert found == [
        "transitions_scope_dims: action 1, variable 0: None is not a scoped function"
    ]


# -- elimination orders ----------------------------------------------------


def test_elimination_orders_are_permutations():
    mdp = make_ring(4)
    assert elimination_order(mdp, "identity") == (0, 1, 2, 3)
    assert sorted(elimination_order(mdp, "min-degree")) == [0, 1, 2, 3]
    with pytest.raises(InvalidInputError):
        elimination_order(mdp, "fancy")


# -- file format -----------------------------------------------------------


def test_model_round_trip(tmp_path):
    mdp = make_ring(2)
    path = tmp_path / "ring2.json"
    save_mdp(mdp, str(path))
    again = load_mdp(str(path))
    assert again == mdp


def test_model_dict_round_trip_bigger():
    mdp = make_ring(4)
    assert mdp_from_json_dict(mdp_to_json_dict(mdp)) == mdp


@settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(models())
def test_model_json_round_trips_through_text_and_file(tmp_path, mdp):
    assert mdp_from_json_dict(json.loads(json.dumps(mdp_to_json_dict(mdp)))) == mdp
    path = tmp_path / "drawn.json"
    save_mdp(mdp, str(path))
    assert load_mdp(str(path)) == mdp


def _at(keys, change):
    """A corruption of the ring-1 JSON: ``change`` applied to the container
    at ``keys``; it returns the corrupted JSON."""

    def corrupt(data):
        inner = data
        for key in keys:
            inner = inner[key]
        change(inner)
        return data

    return corrupt


def _set(*keys, value):
    return _at(keys[:-1], lambda inner: inner.__setitem__(keys[-1], value))


def _append(*keys, value):
    return _at(keys, lambda inner: inner.append(value))


def _pop(*keys):
    return _at(keys, list.pop)


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_set("discount", value=True), "discount: expected a rational, got a boolean"),
        (_set("basis", 1, "table", 0, value=[1]), "basis 1: table: expected a rational, got [1]"),
        (_set("basis", 0, value=3), "basis 0: expected an object with scope and table"),
        (_set("basis", 1, "scope", value=[5]), "basis 1: scope variable 5 out of range"),
        (_set("basis", 1, "table", value="10"), "basis 1: table must be a list"),
        (_set("actions", 0, "transitions", 0, "table", 1, value="1"), "transition 0: table row 1 must be a list"),
        (_append("basis", 1, "table", value="0"), "basis 1: table has 3 entries, scope needs 2"),
        (lambda data: [data], "top level must be an object"),
        (_set("domains", value="WB"), "domains must be lists of value names"),
        (_set("domains", 0, value=["W", "W"]), "variable 0 repeats a value name"),
        (_set("actions", value={}), "actions must be a list"),
        (_pop("actions", 0, "transitions"), "action 'noop' needs one transition entry per variable"),
        (_set("actions", 1, "rewards", value={}), "action 'restart_0' rewards must be a list"),
        (_set("actions", 1, "name", value="noop"), "duplicate action names"),
        (_set("default", value="wait"), "default action 'wait' not defined"),
        (_set("effects", value=[]), "effects must map action names to variables"),
        (_set("basis", value={}), "basis must be a list"),
    ],
    ids=[
        "boolean-rational",
        "non-rational-entry",
        "function-not-object",
        "scope-out-of-range",
        "table-not-list",
        "table-row-not-list",
        "table-wrong-size",
        "top-level-not-object",
        "domains-not-names",
        "repeated-value-name",
        "actions-not-list",
        "transition-count",
        "rewards-not-list",
        "duplicate-action-names",
        "undefined-default",
        "effects-not-mapping",
        "basis-not-list",
    ],
)
def test_load_rejects_each_malformed_model_field(corrupt, message):
    with pytest.raises(InvalidInputError, match=re.escape(message)):
        mdp_from_json_dict(corrupt(mdp_to_json_dict(make_ring(1))))


def test_load_parses_exact_decimals(tmp_path):
    data = mdp_to_json_dict(make_ring(1))
    text = json.dumps(data).replace('"discount": "9/10"', '"discount": 0.9')
    assert "0.9" in text
    path = tmp_path / "decimal.json"
    path.write_text(text)
    assert load_mdp(str(path)).discount == F(9, 10)


def test_load_rejects_zero_denominator(tmp_path):
    data = mdp_to_json_dict(make_ring(1))
    data["discount"] = "9/0"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(InvalidInputError):
        load_mdp(str(path))


def test_load_rejects_missing_default(tmp_path):
    data = mdp_to_json_dict(make_ring(1))
    del data["default"]
    path = tmp_path / "nodefault.json"
    path.write_text(json.dumps(data))
    with pytest.raises(InvalidInputError):
        load_mdp(str(path))


def test_load_rejects_effects_of_undefined_actions():
    data = mdp_to_json_dict(make_ring(2))
    data["effects"]["nonexistent"] = [0]
    with pytest.raises(InvalidInputError, match="nonexistent"):
        mdp_from_json_dict(data)


def _name_as_list(data):
    data["actions"][1]["name"] = ["restart_0"]


def _boolean_scope(data):
    data["basis"][1]["scope"] = [False]


def _boolean_effect(data):
    data["effects"]["restart_0"] = [False]


def _boolean_n(data):
    data["n"] = True


@pytest.mark.parametrize("corrupt", [_name_as_list, _boolean_scope, _boolean_effect, _boolean_n])
def test_load_rejects_non_string_names_and_boolean_indices(corrupt):
    # Each corruption reads as the valid ring-1 value under == (False == 0,
    # True == 1), so only the type check can reject it.
    data = mdp_to_json_dict(make_ring(1))
    corrupt(data)
    with pytest.raises(InvalidInputError):
        mdp_from_json_dict(data)


def test_load_reports_validation_names(tmp_path):
    data = mdp_to_json_dict(make_ring(1))
    data["actions"][0]["transitions"][0]["table"][0] = ["9/10", "9/10"]
    path = tmp_path / "unnormalized.json"
    path.write_text(json.dumps(data))
    with pytest.raises(InvalidInputError, match="transitions_closed"):
        load_mdp(str(path))


def test_load_rejects_non_json(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    with pytest.raises(InvalidInputError):
        load_mdp(str(path))
    with pytest.raises(InvalidInputError):
        load_mdp(str(tmp_path / "missing.json"))


@pytest.mark.parametrize(
    "field, value, want",
    [
        ("discount", None, "disc_lt_one: discount None is not a rational"),
        ("default", None, "default_act: default None is not an action index"),
        ("basis", 3, "h_scope_dims: basis 3 is not a tuple"),
        ("rewards", 3, "rewards_count: rewards 3 is not a tuple"),
        ("domains", 3, "doms_ne: domains 3 is not a tuple of value-name tuples"),
        (
            "domains",
            (("W", "B"), 2),
            "doms_ne: domains (('W', 'B'), 2) is not a tuple of value-name tuples",
        ),
    ],
    ids=["discount", "default", "basis", "rewards", "domains", "domain-entry"],
)
def test_validate_reports_a_mistyped_field(field, value, want):
    assert dataclasses.replace(make_ring(2), **{field: value}).validate() == [want]


def _value_named(bad):
    def corrupt(data):
        data["domains"][0][1] = bad

    return corrupt


def _action_named(bad):
    def corrupt(data):
        old = data["actions"][1]["name"]
        data["actions"][1]["name"] = bad
        data["effects"][bad] = data["effects"].pop(old)

    return corrupt


@pytest.mark.parametrize("bad", ["two words", "semi;colon", "new\nline"])
@pytest.mark.parametrize("where", [_value_named, _action_named], ids=["value", "action"])
def test_load_rejects_names_a_policy_file_could_not_carry(where, bad):
    # Such a model would solve, but its policy text could not be read back.
    data = mdp_to_json_dict(make_ring(1))
    where(bad)(data)
    with pytest.raises(InvalidInputError, match="whitespace or ';'"):
        mdp_from_json_dict(data)
