"""Solver behavior on hand-sized programs plus randomized self-certification."""

import hashlib
import math
import random
from collections import Counter
from fractions import Fraction

from helpers import (
    REFERENCE_SIMPLEX_CASES,
    Lp,
    flatten,
    make_constraint,
    perfbench_instances,
    random_token_lp,
    reference_solve_lp,
)
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fmdp.certify import check_infeasible, check_optimality, check_unbounded
from fmdp.errors import LpInternalError
from fmdp.lp import Infeasible, Optimal, StdLp, Unbounded
from fmdp.oracle import explicit_weight_lp
from fmdp.policy import greedy_decision_list
from fmdp.simplex import solve_lp


def _std(*cons, objective="x"):
    return flatten(Lp(tuple(cons), objective))


def test_lower_bounded_minimum():
    # min x with -x <= -3 pins the optimum at 3 with dual weight 1.
    std = _std(make_constraint("le", {"x": Fraction(-1)}, -3))
    cert = solve_lp(std)
    assert isinstance(cert, Optimal)
    assert cert.primal == (Fraction(3),)
    assert cert.dual == (Fraction(1),)
    assert check_optimality(std, cert.primal, cert.dual)


def test_unbounded_below():
    std = _std(make_constraint("le", {"x": Fraction(1)}, 3))
    cert = solve_lp(std)
    assert isinstance(cert, Unbounded)
    assert check_unbounded(std, cert.point, cert.ray)
    assert cert.ray[0] < 0


def test_infeasible_pair():
    std = _std(
        make_constraint("le", {"x": Fraction(1)}, 0),
        make_constraint("le", {"x": Fraction(-1)}, -1),
    )
    cert = solve_lp(std)
    assert isinstance(cert, Infeasible)
    assert cert.farkas == (Fraction(1), Fraction(1))
    assert check_infeasible(std, cert.farkas)


def test_equality_pins_variable():
    std = _std(make_constraint("eq", {"x": Fraction(2)}, 10))
    cert = solve_lp(std)
    assert isinstance(cert, Optimal)
    assert cert.primal == (Fraction(5),)
    assert check_optimality(std, cert.primal, cert.dual)


def test_no_rows_means_unbounded_objective():
    std = _std()
    cert = solve_lp(std)
    assert isinstance(cert, Unbounded)
    assert check_unbounded(std, cert.point, cert.ray)


def test_two_sided_envelope():
    # min phi subject to phi >= w - 1 and phi >= -w has its bottom at w = 1/2.
    std = flatten(
        Lp(
            (
                make_constraint("le", {"w": Fraction(1), "phi": Fraction(-1)}, 1),
                make_constraint("le", {"w": Fraction(-1), "phi": Fraction(-1)}, 0),
            ),
            "phi",
        )
    )
    cert = solve_lp(std)
    assert isinstance(cert, Optimal)
    assert cert.primal[std.col_of["phi"]] == Fraction(-1, 2)
    assert cert.primal[std.col_of["w"]] == Fraction(1, 2)
    assert cert.dual == (Fraction(1, 2), Fraction(1, 2))
    assert check_optimality(std, cert.primal, cert.dual)


def test_duplicate_equalities_leave_dependent_rows():
    con = make_constraint("eq", {"x": Fraction(1)}, 1)
    std = flatten(Lp((con, con), "x"))
    cert = solve_lp(std)
    assert isinstance(cert, Optimal)
    assert cert.primal == (Fraction(1),)
    assert check_optimality(std, cert.primal, cert.dual)


def test_degenerate_ties_resolve():
    std = _std(
        make_constraint("le", {"x": Fraction(1)}, 0),
        make_constraint("le", {"x": Fraction(2)}, 0),
        make_constraint("le", {"x": Fraction(-1)}, 0),
    )
    cert = solve_lp(std)
    assert isinstance(cert, Optimal)
    assert cert.primal == (Fraction(0),)
    assert check_optimality(std, cert.primal, cert.dual)


def test_random_instances_self_certify():
    rng = random.Random(20260815)
    kinds = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for _ in range(120):
        std = flatten(random_token_lp(rng))
        cert = solve_lp(std)
        if isinstance(cert, Optimal):
            kinds["optimal"] += 1
            assert check_optimality(std, cert.primal, cert.dual)
        elif isinstance(cert, Infeasible):
            kinds["infeasible"] += 1
            assert check_infeasible(std, cert.farkas)
        else:
            kinds["unbounded"] += 1
            assert check_unbounded(std, cert.point, cert.ray)
    assert all(count >= 10 for count in kinds.values()), kinds


def test_pivot_counts_stay_under_basis_bound():
    rng = random.Random(7)
    for _ in range(40):
        std = flatten(random_token_lp(rng))
        stats = {}
        solve_lp(std, stats=stats)
        bound = math.comb(stats["cols"], max(std.num_rows, 1))
        assert stats["pivots_phase1"] <= bound
        assert stats["pivots_phase2"] <= bound


def _certificate_coordinates(cert):
    if isinstance(cert, Optimal):
        return cert.primal + cert.dual
    if isinstance(cert, Infeasible):
        return cert.farkas
    return cert.point + cert.ray


def _digest(batch):
    digest = hashlib.sha256()
    for std in batch:
        stats: dict = {}
        cert = solve_lp(std, stats)
        assert all(type(q) is Fraction for q in _certificate_coordinates(cert))
        digest.update(repr(cert).encode())
        digest.update(repr(stats).encode())
    return digest.hexdigest()


# SHA-256 over the repr of every certificate and stats dict in the batch
# below.  Any change to the pivot path (entering or leaving choice, drive-out
# order, certificate extraction) moves it even when the result still certifies.
_GOLDEN_SOLVER_DIGEST = "fee333ccdeee2e6cbb65c6769843d1c8c1b42006192fda5492071f356b297fd4"


def test_golden_solver_digest():
    rng = random.Random(20261018)
    batch = [flatten(random_token_lp(rng)) for _ in range(200)]
    batch += [flatten(random_token_lp(rng, max_vars=8, max_rows=30)) for _ in range(50)]
    assert _digest(batch) == _GOLDEN_SOLVER_DIGEST


def _feasible_token_lp(rng, max_vars, max_rows):
    """A ``random_token_lp``-like program whose rows all hold at a drawn
    point, with no slack on equalities and on a third of the inequalities,
    so it is optimal or unbounded and often degenerate."""
    names = [f"x{j}" for j in range(rng.randint(1, max_vars))]
    x = {name: Fraction(rng.randint(-4, 4), rng.randint(1, 2)) for name in names}
    cons = []
    for _ in range(rng.randint(1, max_rows)):
        coefs = {
            name: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            for name in names
            if rng.random() < 0.6
        }
        kind = "eq" if rng.random() < 0.1 else "le"
        slack = 0 if kind == "eq" or rng.random() < 1 / 3 else Fraction(rng.randint(1, 3), 2)
        rhs = sum((q * x[name] for name, q in coefs.items()), Fraction(slack))
        cons.append(make_constraint(kind, coefs, rhs))
    return Lp(tuple(cons), "x0")


# The same digest over tall programs, where most tableau entries are zero:
# drawn programs of up to 120 rows (nearly all infeasible, so a feasible
# draw stands beside each), and the three 64-row explicit weight LPs that
# `fmdp oracle-check` solves on the seed-0 ring-5 model (greedy lists of
# its first three weight vectors, drawn from its check seed 0xFD).
_GOLDEN_TALL_SOLVER_DIGEST = "06079e5493711603db556974a29af0d25e080455e4ec97fa640900472e6de4c2"


def test_golden_solver_digest_on_tall_programs():
    rng = random.Random(20261019)
    batch = []
    for _ in range(15):
        batch.append(flatten(random_token_lp(rng, max_vars=6, max_rows=120)))
        batch.append(flatten(_feasible_token_lp(rng, max_vars=6, max_rows=120)))
    mdp = perfbench_instances(0)["ring-5"]
    rng = random.Random(0xFD)
    for _ in range(3):
        w = tuple(Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in mdp.basis)
        batch.append(explicit_weight_lp(mdp, greedy_decision_list(mdp, w)))
    assert _digest(batch) == _GOLDEN_TALL_SOLVER_DIGEST


def _master_shaped_lp(rng, max_weights, max_cuts):
    """A program shaped like a weight fit's master over `x0` (phi) and
    `x1`..: a box pair `+-c x_j <= b` or an equality `x_j = b` per
    weight, then dense rows `-x0 + a.x <= b`.  Some bounds are negative, so
    some boxes are empty; some weights are unboxed, some draws have no
    dense row; some equalities are listed twice, which leaves dependent
    rows for drive-out."""
    names = [f"x{j}" for j in range(rng.randint(2, max_weights + 1))]
    cons = []
    for name in names[1:]:
        roll = rng.random()
        if roll < 0.1:
            continue
        if roll < 0.2:
            con = make_constraint("eq", {name: Fraction(1)}, Fraction(rng.randint(-4, 4), 2))
            cons += [con] * rng.randint(1, 2)
            continue
        c = rng.choice((Fraction(1), Fraction(1), Fraction(2), Fraction(3, 2)))
        for sign in (1, -1):
            bound = Fraction(rng.randint(-2, 12), rng.randint(1, 2))
            cons.append(make_constraint("le", {name: sign * c}, bound))
    for _ in range(rng.randint(0, max_cuts)):
        coefs = {names[0]: Fraction(-1)}
        for name in names[1:]:
            if rng.random() < 0.7:
                coefs[name] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        kind = "eq" if rng.random() < 0.05 else "le"
        con = make_constraint(kind, coefs, Fraction(rng.randint(-9, 9), rng.randint(1, 3)))
        cons += [con] * (2 if kind == "eq" and rng.random() < 0.5 else 1)
    return Lp(tuple(cons), "x0")


# The same digest over master-shaped programs, whose box rows are the
# solver's singleton rows, with each outcome among them.  It was computed
# while the solver still stored and eliminated every row, so it pins
# derived rows to the full tableau's certificates and stats.
_GOLDEN_MASTER_SOLVER_DIGEST = "6487f9446cf9eca0843a6f289e39d2d9ead789cab657a23dd215a869bc4af3b3"


def test_golden_solver_digest_on_master_shaped_programs():
    rng = random.Random(20261020)
    batch = [flatten(_master_shaped_lp(rng, 4, 6)) for _ in range(150)]
    batch += [flatten(_master_shaped_lp(rng, 8, 40)) for _ in range(50)]
    kinds = {Optimal: 0, Infeasible: 0, Unbounded: 0}
    for std in batch:
        kinds[type(solve_lp(std))] += 1
    assert all(count >= 10 for count in kinds.values()), kinds
    assert _digest(batch) == _GOLDEN_MASTER_SOLVER_DIGEST


_rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 12))


@st.composite
def _mixed_lps(draw):
    """Mixed le/eq rows with negative right-hand sides allowed; some
    equalities appear twice, which leaves dependent rows for drive-out."""
    names = [f"x{j}" for j in range(draw(st.integers(1, 4)))]
    cons = []
    for _ in range(draw(st.integers(0, 6))):
        coefs = {name: draw(_rationals) for name in names if draw(st.booleans())}
        kind = draw(st.sampled_from(["le", "eq"]))
        cons.append(make_constraint(kind, coefs, draw(_rationals)))
    cons += [con for con in cons if con.kind == "eq" and draw(st.booleans())]
    order = draw(st.permutations(range(len(cons))))
    return Lp(tuple(cons[k] for k in order), "x0")


def _certifies(std, cert, normalized):
    if isinstance(cert, Optimal):
        return check_optimality(std, cert.primal, cert.dual, normalized=normalized)
    if isinstance(cert, Infeasible):
        return check_infeasible(std, cert.farkas, normalized=normalized)
    return check_unbounded(std, cert.point, cert.ray, normalized=normalized)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(_mixed_lps())
def test_property_certificates_verify_and_repeat(lp):
    std = flatten(lp)
    stats: dict = {}
    cert = solve_lp(std, stats)
    assert _certifies(std, cert, normalized=True)
    assert _certifies(std, cert, normalized=False)
    again: dict = {}
    assert solve_lp(std, again) == cert
    assert again == stats


@st.composite
def _reference_draws(draw):
    """Master-shaped, tall, tall feasible or mixed programs, some with
    rows that have no structural column spliced in."""
    kind = draw(st.sampled_from(("master", "tall", "feasible", "mixed")))
    if kind == "mixed":
        lp = draw(_mixed_lps())
    else:
        rng = random.Random(draw(st.integers(0, 2**32 - 1)))
        if kind == "master":
            lp = _master_shaped_lp(rng, 6, 12)
        elif kind == "tall":
            lp = random_token_lp(rng, max_vars=5, max_rows=40)
        else:
            lp = _feasible_token_lp(rng, max_vars=5, max_rows=40)
    cons = list(lp.constraints)
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["le", "eq"]))
        empty = make_constraint(kind, {}, draw(st.sampled_from([-1, 0, 0, 2])))
        cons.insert(draw(st.integers(0, len(cons))), empty)
    return Lp(tuple(cons), lp.objective)


def test_solve_lp_matches_the_full_tableau_reference():
    # The reference stores every row but singletons; the solver derives
    # every row whose basic column is a slack or an artificial.  The draws
    # must reach each state where the two could part.
    reached: Counter = Counter()

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(_reference_draws())
    @example(Lp((), "x0"))
    @example(Lp((make_constraint("le", {}, 0), make_constraint("le", {"x0": Fraction(-1)}, 1)), "x0"))
    def check(lp):
        std = flatten(lp)
        stats: dict = {}
        reference: dict = {}
        assert solve_lp(std, stats) == reference_solve_lp(std, reference, reached)
        assert stats == reference
        reached["no_rows"] += std.num_rows == 0
        reached["row_without_columns"] += any(not cols for cols in std.cols)

    check()
    wanted = REFERENCE_SIMPLEX_CASES + ("no_rows", "row_without_columns")
    assert all(reached[case] for case in wanted), reached


def test_column_outside_the_program_is_refused():
    # Derived rows read a seed's structural entries off its first keys,
    # which holds only while every input column is structural.
    std = StdLp(columns=("x0",), cols=((0, 1),), nums=((1, 1),), rhs=(0,), dens=(1,))
    with pytest.raises(LpInternalError):
        solve_lp(std)
