"""The reference named rows (``helpers.make_constraint``), their flattening
to the standard form, the integer rows every producer writes, and the
package's column types."""

import importlib
import random
from fractions import Fraction
from math import gcd

import pytest

from helpers import (
    PHI,
    Constraint,
    FnId,
    FnVar,
    Lp,
    Weight,
    flatten,
    make_constraint,
    perfbench_instances,
    random_token_lp,
    variable_tokens,
)

from fmdp.api import ApiConfig, api
from fmdp.factored import PartialState
from fmdp.lp import Deferred, StdRows
from fmdp.lpbuild import Tag
from fmdp.lpio import read_lp, write_lp
from fmdp.model import elimination_order
from fmdp.oracle import explicit_weight_lp

weights_module = importlib.import_module("fmdp.weights")


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
    assert std.columns == ("phi", "w0")
    assert (std.cols, std.nums, std.rhs, std.dens) == (((0, 1),), ((-1, 1),), (0,), (1,))
    assert std.fraction_row(0) == (((0, Fraction(-1)), (1, Fraction(1))), Fraction(0))


def test_standard_form_expands_equalities_adjacently():
    eq = make_constraint("eq", {Weight(0): Fraction(2)}, 6)
    le = make_constraint("le", {Weight(0): Fraction(1), PHI: Fraction(-1)}, 0)
    std = flatten(Lp((le, eq), PHI))
    assert std.num_rows == 3
    assert std.constraint_rows == ((0,), (1, 2))
    w = std.col_of["w0"]
    assert std.fraction_row(1) == (((w, Fraction(2)),), Fraction(6))
    assert std.fraction_row(2) == (((w, Fraction(-2)),), Fraction(-6))


def test_rows_are_integers_in_lowest_terms_over_one_row_denominator():
    third, half = Fraction(1, 3), Fraction(1, 2)
    rows = (
        make_constraint("le", {PHI: third, Weight(0): Fraction(-5, 6)}, Fraction(7, 4)),
        make_constraint("le", {PHI: Fraction(2, 4), Weight(0): Fraction(4, 2)}, 6),
        make_constraint("le", {PHI: Fraction(0), Weight(0): third}, 0),
        make_constraint("le", {}, Fraction(-3, 9)),
    )
    std = flatten(Lp(rows, PHI))
    assert std.cols == ((0, 1), (0, 1), (1,), ())
    assert std.nums == ((4, -10), (1, 4), (1,), ())
    assert std.rhs == (21, 12, 0, -1)
    assert std.dens == (12, 2, 3, 3)
    assert std.fraction_row(0) == (((0, third), (1, Fraction(-5, 6))), Fraction(7, 4))
    assert std.fraction_row(1) == (((0, half), (1, Fraction(2))), Fraction(6))


def test_negated_equality_rows_share_columns_and_one_numerator_tuple_per_shape():
    half = Fraction(1, 2)
    eq = make_constraint("eq", {PHI: half, Weight(0): half}, half)
    other = make_constraint("eq", {Weight(0): half, Weight(1): Fraction(1, 2)}, 0)
    std = flatten(Lp((eq, other), PHI))
    assert std.fraction_row(1) == (((0, -half), (1, -half)), -half)
    assert std.fraction_row(3) == (((1, -half), (2, -half)), 0)
    assert std.nums == ((1, 1), (-1, -1), (1, 1), (-1, -1)) and std.dens == (2, 2, 2, 2)
    assert std.nums[0] is std.nums[2] and std.nums[1] is std.nums[3]
    assert std.cols[1] is std.cols[0] and std.cols[3] is std.cols[2]


def test_standard_form_registers_unseen_objective_variable():
    con = make_constraint("le", {Weight(0): Fraction(1)}, 5)
    std = flatten(Lp((con,), PHI))
    assert std.columns == ("phi", "w0")
    assert std.fraction_row(0) == (((1, Fraction(1)),), Fraction(5))


def _assert_lowest_integer_terms(std):
    """Every row: ascending columns of the program, one nonzero integer
    numerator per column, a positive integer denominator, and gcd 1 over
    the denominator and every numerator."""
    assert len(std.cols) == len(std.nums) == len(std.dens) == std.num_rows
    for cols, nums, r, d in zip(std.cols, std.nums, std.rhs, std.dens):
        assert type(d) is int and d > 0 and type(r) is int
        assert len(nums) == len(cols) and all(type(n) is int and n for n in nums)
        assert list(cols) == sorted(set(cols)) and all(0 <= j < std.num_cols for j in cols)
        assert gcd(d, r, *nums) == 1


def test_every_producer_writes_rows_in_lowest_integer_terms(tmp_path, monkeypatch):
    masters = []

    def kept(*args):
        masters.append(master_std(*args))
        return masters[-1]

    master_std = weights_module._master_std
    monkeypatch.setattr(weights_module, "_master_std", kept)
    programs = [flatten(random_token_lp(random.Random(seed))) for seed in range(40)]
    for name, mdp in perfbench_instances(0).items():
        order = elimination_order(mdp, "min-degree")
        steps = []
        res = api(mdp, ApiConfig(order=order), trace=steps)
        programs += [step["std"] for step in steps]
        write_lp(tmp_path / f"{name}.lp", steps[-1]["std"])
        programs.append(read_lp(tmp_path / f"{name}.lp"))
        programs.append(explicit_weight_lp(mdp, res.pol))
    assert len(masters) > 20
    for std in programs + masters:
        _assert_lowest_integer_terms(std)


def test_constraint_is_hashable_and_usable_in_sets():
    seen = set()
    for _ in range(3):
        seen.add(make_constraint("le", {PHI: Fraction(-1)}, 0))
    assert len(seen) == 1
    assert isinstance(next(iter(seen)), Constraint)


def test_named_variables_are_structural_and_equal_ones_share_a_token():
    def build(z):
        return FnVar(Tag(PartialState.of({0: 1, 2: 0}), 3, False), FnId("b", 4), z)

    v, u = build(PartialState.of({1: 1})), build(PartialState.of({1: 1}))
    assert v is not u and v == u and hash(v) == hash(u)
    assert {v: 1}[u] == 1
    moved = build(PartialState.of({1: 0}))
    tokens = variable_tokens([v, u, moved])
    assert tokens[v] == tokens[u] != tokens[moved]
    assert tokens[moved] == tokens[v].replace("_1.1", "_1.0")


def test_standard_form_col_of_follows_its_columns():
    con = make_constraint("le", {Weight(0): Fraction(1), PHI: Fraction(-1)}, 5)
    std = flatten(Lp((con,), PHI))
    assert "col_of" not in vars(std)
    assert std.col_of == {"phi": 0, "w0": 1}


def test_an_equality_and_its_two_halves_are_one_program():
    half, terms = Fraction(1, 2), ((0, Fraction(-1)), (1, Fraction(3, 4)))
    eq, les = StdRows(), StdRows()
    eq.add("eq", terms, half)
    les.add("le", terms, half)
    les.add("le", tuple((j, -q) for j, q in terms), -half)
    assert eq.std(("phi", "w0")) == les.std(("phi", "w0"))
    assert les.std(("phi", "w0")).constraint_rows == ((0, 1),)


def test_constraint_rows_pair_a_row_only_with_its_negation_just_after_it():
    # Rows: a box pair (rhs not negated), an equality, a row equal to the
    # equality's second half, a row over other columns, an equality that
    # follows its own first half (the walk pairs left to right), then two
    # pairs that negate all but the numerators, and all but the denominator.
    out = StdRows()
    one, two = Fraction(1), Fraction(2)
    out.add("le", ((1, one),), two)
    out.add("le", ((1, -one),), two)
    out.add("eq", ((0, one), (1, two)), one)
    out.add("le", ((0, -one), (1, -two)), -one)
    out.add("le", ((0, one),), one)
    out.add("le", ((2, one),), -one)
    out.add("eq", ((2, -one),), one)
    out.add("le", ((1, one),), one)
    out.add("le", ((1, two),), -one)
    out.add("le", ((1, one / 2),), one)
    out.add("le", ((1, -one),), -two)
    std = out.std(("phi", "w0", "w1"))
    singles = ((9,), (10,), (11,), (12,))
    assert std.constraint_rows == ((0,), (1,), (2, 3), (4,), (5,), (6, 7), (8,), *singles)


def test_deferred_makes_its_items_once_on_first_read():
    calls = []
    names = Deferred(2, lambda: calls.append(1) or ["a", "b"])
    assert len(names) == 2 and calls == []
    assert names == ("a", "b") and list(names) == ["a", "b"] and names[1] == "b"
    assert names != ("a",) and names != "ab" and names != ["a", "b"]
    assert calls == [1]

