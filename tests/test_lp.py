"""The reference named rows (``helpers.make_constraint``), their flattening
to the standard form, and the package's variable and column types."""

import dataclasses
from fractions import Fraction

import pytest

from helpers import Constraint, Lp, flatten, make_constraint

from fmdp.factored import PartialState
from fmdp.lp import PHI, Deferred, FnId, FnVar, Tag, Weight


def test_make_constraint_rejects_repeats_and_drops_zeros():
    c = make_constraint(
        "le",
        [(Weight(1), Fraction(2)), (Weight(0), Fraction(0)), (PHI, Fraction(3))],
        7,
    )
    assert c.coefs == ((PHI, Fraction(3)), (Weight(1), Fraction(2)))
    assert c.rhs == Fraction(7)
    assert make_constraint("eq", [("x", Fraction(0))], 1).coefs == ()
    fv = FnVar(Tag(PartialState.of({0: 1}), 0, True), FnId("e", 2), PartialState.of({}))
    repeats = [
        [(Weight(1), Fraction(2)), (PHI, Fraction(3)), (Weight(1), Fraction(-2))],
        [(Weight(1), Fraction(2)), (Weight(1), Fraction(1))],
        [("x", Fraction(0)), ("y", Fraction(1)), ("x", Fraction(1))],
        [(fv, Fraction(1)), (PHI, Fraction(-1)), (fv, Fraction(1))],
    ]
    for terms in repeats:
        with pytest.raises(ValueError, match="repeated variable"):
            make_constraint("le", terms, 0)


def test_make_constraint_orders_variables_canonically():
    tag = Tag(PartialState.of({0: 1}), 2, True)
    fv = FnVar(tag, FnId("c", 0), PartialState.of({1: 0}))
    c = make_constraint(
        "eq",
        [(fv, Fraction(1)), (PHI, Fraction(-1)), (Weight(3), Fraction(5))],
        0,
    )
    assert [v for v, _ in c.coefs] == [PHI, Weight(3), fv]


def test_structurally_equal_constraints_compare_equal():
    a = make_constraint("le", {Weight(0): Fraction(1), PHI: Fraction(-1)}, 0)
    b = make_constraint("le", [(PHI, Fraction(-1)), (Weight(0), Fraction(1))], Fraction(0))
    assert a == b
    assert hash(a) == hash(b)


def test_bad_kind_rejected():
    with pytest.raises(ValueError):
        make_constraint("ge", {PHI: Fraction(1)}, 0)


def test_standard_form_objective_column_first():
    c1 = make_constraint("le", {Weight(0): Fraction(1), PHI: Fraction(-1)}, 0)
    std = flatten(Lp((c1,), PHI))
    assert std.columns[0] is PHI
    assert std.columns == (PHI, Weight(0))
    assert std.rows == (((0, Fraction(-1)), (1, Fraction(1))),)
    assert std.rhs == (Fraction(0),)


def test_standard_form_expands_equalities_adjacently():
    eq = make_constraint("eq", {Weight(0): Fraction(2)}, 6)
    le = make_constraint("le", {Weight(0): Fraction(1), PHI: Fraction(-1)}, 0)
    std = flatten(Lp((le, eq), PHI))
    assert std.num_rows == 3
    assert std.constraint_rows == ((0,), (1, 2))
    w = std.col_of[Weight(0)]
    assert std.rows[1] == ((w, Fraction(2)),)
    assert std.rhs[1] == Fraction(6)
    assert std.rows[2] == ((w, Fraction(-2)),)
    assert std.rhs[2] == Fraction(-6)


def test_negated_equality_rows_share_one_fraction_per_coefficient_object():
    half = Fraction(1, 2)
    eq = make_constraint("eq", {PHI: half, Weight(0): half}, half)
    other = make_constraint("eq", {Weight(0): half, Weight(1): Fraction(1, 2)}, 0)
    std = flatten(Lp((eq, other), PHI))
    assert std.rows[1] == ((0, -half), (1, -half)) and std.rhs[1] == -half
    assert std.rows[3] == ((1, -half), (2, -half)) and std.rhs[3] == 0
    minus_half = std.rhs[1]
    assert all(q is minus_half for _, q in std.rows[1]) and std.rows[3][0][1] is minus_half
    assert std.rows[3][1][1] is not minus_half  # an equal but distinct coefficient


def test_standard_form_registers_unseen_objective_variable():
    con = make_constraint("le", {Weight(0): Fraction(1)}, 5)
    std = flatten(Lp((con,), PHI))
    assert std.columns == (PHI, Weight(0))
    assert std.rows[0] == ((1, Fraction(1)),)


def test_constraint_is_hashable_and_usable_in_sets():
    seen = set()
    for _ in range(3):
        seen.add(make_constraint("le", {PHI: Fraction(-1)}, 0))
    assert len(seen) == 1
    assert isinstance(next(iter(seen)), Constraint)


def test_fn_var_hash_is_computed_once_and_structural():
    def build(z):
        return FnVar(Tag(PartialState.of({0: 1, 2: 0}), 3, False), FnId("b", 4), z)

    v, u = build(PartialState.of({1: 1})), build(PartialState.of({1: 1}))
    assert v is not u and v == u and hash(v) == hash(u)
    assert hash(v) == hash((v.tag, v.fn, v.z))
    assert "_hash" not in repr(v)
    moved = dataclasses.replace(v, z=PartialState.of({1: 0}))
    assert moved != v and hash(moved) == hash((moved.tag, moved.fn, moved.z))
    assert {v: 1}[u] == 1


def test_standard_form_col_of_follows_its_columns():
    con = make_constraint("le", {Weight(0): Fraction(1), PHI: Fraction(-1)}, 5)
    std = flatten(Lp((con,), PHI))
    assert "col_of" not in vars(std)
    assert std.col_of == {PHI: 0, Weight(0): 1}


def test_deferred_makes_its_items_once_on_first_read():
    calls = []
    names = Deferred(2, lambda: calls.append(1) or ["a", "b"])
    assert len(names) == 2 and calls == []
    assert names == ("a", "b") and list(names) == ["a", "b"] and names[1] == "b"
    assert names != ("a",) and names != "ab" and names != ["a", "b"]
    assert calls == [1]

