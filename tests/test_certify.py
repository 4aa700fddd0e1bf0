"""Checker rejection behavior, agreement of the two backends with a plain
``Fraction`` reference, and the entries that zero-skipping must still see.
Every vector is also checked as an ``IntVector`` of numerators over one
denominator, which must get the verdict of its ``Fraction`` form."""

import dataclasses
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    SMALL,
    Lp,
    flatten,
    make_constraint,
    random_token_lp,
    reference_infeasible,
    reference_optimality,
    reference_unbounded,
)

from fmdp import ApiConfig, api, elimination_order, make_ring
from fmdp.certify import IntVector, check_infeasible, check_optimality, check_unbounded
from fmdp.errors import InvalidInputError
from fmdp.lp import Infeasible, Optimal, Unbounded
from fmdp.simplex import solve_lp

BACKENDS = (True, False)


def _over_one_den(vec, factor=1):
    """``vec`` as numerators over its least denominator times ``factor``."""
    den = lcm(*(q.denominator for q in vec)) * factor
    return IntVector([q.numerator * (den // q.denominator) for q in vec], den)


def _agreed(check, std, *vectors, normalized):
    """The verdict of ``check``, the same for the ``Fraction`` vectors and
    for their ``IntVector`` forms."""
    verdict = check(std, *vectors, normalized=normalized)
    for factor in (1, 6):
        forms = [_over_one_den(vec, factor) for vec in vectors]
        assert check(std, *forms, normalized=normalized) == verdict
    return verdict


def _optimal_fixture():
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
    return std, cert


def _perturb(vec, idx, delta=Fraction(1, 7)):
    out = list(vec)
    out[idx] += delta
    return tuple(out)


def test_optimality_rejects_primal_perturbation():
    std, cert = _optimal_fixture()
    for j in range(std.num_cols):
        assert not check_optimality(std, _perturb(cert.primal, j), cert.dual)


def test_optimality_rejects_dual_perturbation():
    std, cert = _optimal_fixture()
    for i in range(std.num_rows):
        assert not check_optimality(std, cert.primal, _perturb(cert.dual, i))


def test_optimality_rejects_scaled_dual():
    std, cert = _optimal_fixture()
    halved = tuple(q / 2 for q in cert.dual)
    assert not check_optimality(std, cert.primal, halved)


def test_farkas_scaling_and_negation():
    std = flatten(
        Lp(
            (
                make_constraint("le", {"x": Fraction(1)}, 0),
                make_constraint("le", {"x": Fraction(-1)}, -1),
            ),
            "x",
        )
    )
    cert = solve_lp(std)
    assert isinstance(cert, Infeasible)
    doubled = tuple(2 * q for q in cert.farkas)
    assert check_infeasible(std, doubled)
    negated = tuple(-q for q in cert.farkas)
    assert not check_infeasible(std, negated)


def test_unbounded_requires_descending_ray():
    std = flatten(Lp((make_constraint("le", {"x": Fraction(1)}, 3),), "x"))
    cert = solve_lp(std)
    assert isinstance(cert, Unbounded)
    assert not check_unbounded(std, cert.point, (Fraction(0),))
    assert not check_unbounded(std, cert.point, (Fraction(1),))
    assert not check_unbounded(std, (Fraction(9),), cert.ray)


def test_dimension_mismatches_raise():
    std, cert = _optimal_fixture()
    with pytest.raises(InvalidInputError):
        check_optimality(std, cert.primal + (Fraction(0),), cert.dual)
    with pytest.raises(InvalidInputError):
        check_optimality(std, cert.primal, cert.dual[:-1])
    with pytest.raises(InvalidInputError):
        check_infeasible(std, (Fraction(1),))
    with pytest.raises(InvalidInputError):
        check_unbounded(std, cert.primal, cert.primal + (Fraction(0),))


def test_unreduced_pairs_agree_with_fractions():
    rng = random.Random(99)
    compared = 0
    for _ in range(60):
        std = flatten(random_token_lp(rng))
        cert = solve_lp(std)
        if isinstance(cert, Optimal):
            a = check_optimality(std, cert.primal, cert.dual)
            b = check_optimality(std, cert.primal, cert.dual, normalized=False)
            bad = check_optimality(
                std, _perturb(cert.primal, 0), cert.dual, normalized=False
            )
            assert a and b and not bad
        elif isinstance(cert, Infeasible):
            assert check_infeasible(std, cert.farkas, normalized=False)
        else:
            assert check_unbounded(std, cert.point, cert.ray, normalized=False)
        compared += 1
    assert compared == 60


def _split(cert):
    """The checker, its reference and the vectors of a certificate."""
    if isinstance(cert, Optimal):
        return check_optimality, reference_optimality, [cert.primal, cert.dual]
    if isinstance(cert, Infeasible):
        return check_infeasible, reference_infeasible, [cert.farkas]
    return check_unbounded, reference_unbounded, [cert.point, cert.ray]


@settings(derandomize=True, database=None, deadline=None, max_examples=600)
@given(st.integers(0, 2**32 - 1), st.data())
def test_backends_agree_with_the_reference(seed, data):
    # An entry moved from zero or to zero is what zero-skipping could miss.
    std = flatten(random_token_lp(random.Random(seed)))
    check, reference, vectors = _split(solve_lp(std))
    mode = data.draw(st.sampled_from(["none", "shift", "raise a zero", "zero out"]))
    if mode == "none":
        assert reference(std, *vectors)
    else:
        k = data.draw(st.integers(0, len(vectors) - 1), label="vector")
        vec = list(vectors[k])
        picks = {
            "shift": list(range(len(vec))),
            "raise a zero": [i for i, q in enumerate(vec) if q == 0],
            "zero out": [i for i, q in enumerate(vec) if q != 0],
        }[mode]
        if picks:
            i = data.draw(st.sampled_from(picks), label="index")
            vec[i] = 0 if mode == "zero out" else vec[i] + data.draw(SMALL.filter(bool))
            vectors[k] = tuple(Fraction(q) for q in vec)
    verdict = reference(std, *vectors)
    factor = data.draw(st.integers(1, 12), label="denominator factor")
    forms = [_over_one_den(vec, factor) for vec in vectors]
    for normalized in BACKENDS:
        assert check(std, *vectors, normalized=normalized) == verdict
        assert check(std, *forms, normalized=normalized) == verdict


@pytest.mark.parametrize("normalized", BACKENDS)
def test_a_row_with_only_zero_terms_is_still_compared(normalized):
    # min phi over x <= -1 and phi >= 0, columns (phi, x).  Row 0 meets only
    # x, and its dual is zero: at x = 0 it reads 0 <= -1.
    std = flatten(
        Lp(
            (
                make_constraint("le", {"x": Fraction(1)}, -1),
                make_constraint("le", {"phi": Fraction(-1)}, 0),
            ),
            "phi",
        )
    )
    dual = (Fraction(0), Fraction(1))
    zero, fixed = (Fraction(0), Fraction(0)), (Fraction(0), Fraction(-1))
    assert _agreed(check_optimality, std, fixed, dual, normalized=normalized)
    assert not _agreed(check_optimality, std, zero, dual, normalized=normalized)
    unbounded = flatten(Lp((make_constraint("le", {"x": Fraction(1)}, -1),), "phi"))
    ray = (Fraction(-1), Fraction(0))
    assert _agreed(check_unbounded, unbounded, fixed, ray, normalized=normalized)
    assert not _agreed(check_unbounded, unbounded, zero, ray, normalized=normalized)


@pytest.mark.parametrize("normalized", BACKENDS)
def test_column_zero_terms_are_checked(normalized):
    # min phi over -phi <= 0 and w <= 3, columns (phi, w): phi = 0 is
    # optimal with dual (1, 0), and b^T y = 0 for every dual (y_0, 0).
    std = flatten(
        Lp(
            (
                make_constraint("le", {"phi": Fraction(-1)}, 0),
                make_constraint("le", {"w": Fraction(1)}, 3),
            ),
            "phi",
        )
    )
    x, y = (Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))
    assert _agreed(check_optimality, std, x, y, normalized=normalized)
    # A^T y + e_0 is -1 or +1 in column 0 and 0 elsewhere.
    for missed in ((Fraction(2), Fraction(0)), (Fraction(0), Fraction(0))):
        assert not _agreed(check_optimality, std, x, missed, normalized=normalized)
    # x_0 = 1 is feasible and the dual is exact, but x_0 + b^T y = 1.
    assert not _agreed(check_optimality, std, (Fraction(1), Fraction(0)), y, normalized=normalized)
    # Without the first row phi falls forever; a ray along w has A r <= 0
    # but r_0 = 0.
    free = flatten(Lp((make_constraint("le", {"w": Fraction(1)}, 3),), "phi"))
    assert _agreed(check_unbounded, free, x, (Fraction(-1), Fraction(0)), normalized=normalized)
    assert not _agreed(check_unbounded, free, x, (Fraction(0), Fraction(-1)), normalized=normalized)


@pytest.fixture(scope="module")
def ring3_final():
    mdp = make_ring(3)
    steps: list[dict] = []
    api(mdp, ApiConfig(order=elimination_order(mdp, "min-degree")), trace=steps)
    return steps[-1]["std"], steps[-1]["certificate"]


@pytest.mark.parametrize("normalized", BACKENDS)
def test_ring3_certificate_and_its_zero_entries(ring3_final, normalized):
    std, cert = ring3_final
    assert _agreed(check_optimality, std, cert.primal, cert.dual, normalized=normalized)
    i = cert.dual.index(0)
    perturbed = _perturb(cert.dual, i, 1)
    assert not _agreed(check_optimality, std, cert.primal, perturbed, normalized=normalized)
    j = cert.primal.index(0)
    perturbed = _perturb(cert.primal, j)
    assert not _agreed(check_optimality, std, perturbed, cert.dual, normalized=normalized)


@pytest.mark.parametrize("normalized", BACKENDS)
def test_int_vectors_of_wrong_length_or_denominator_raise(normalized):
    std, cert = _optimal_fixture()
    primal, dual = _over_one_den(cert.primal), _over_one_den(cert.dual)
    bad = [
        (check_optimality, (IntVector(primal.nums[:-1], primal.den), dual)),
        (check_optimality, (primal, IntVector([*dual.nums, 0], dual.den))),
        (check_infeasible, (IntVector([1], 1),)),
        (check_unbounded, (primal, IntVector([0], 1))),
    ]
    for den in (0, -1, Fraction(1, 2), None):
        bad.append((check_optimality, (IntVector(primal.nums, den), dual)))
        bad.append((check_optimality, (primal, IntVector(dual.nums, den))))
        bad.append((check_infeasible, (IntVector(dual.nums, den),)))
        bad.append((check_unbounded, (primal, IntVector(primal.nums, den))))
    for check, vectors in bad:
        with pytest.raises(InvalidInputError):
            check(std, *vectors, normalized=normalized)


@pytest.mark.parametrize("normalized", BACKENDS)
def test_row_denominators_that_are_not_positive_raise(normalized):
    # A negative row denominator flips the row's inequality, and a zero one
    # makes no rational: both backends refuse them as they refuse such an
    # IntVector.
    std, cert = _optimal_fixture()
    k = std.num_rows - 1
    farkas = (Fraction(0),) * std.num_rows
    ray = (Fraction(-1),) + (Fraction(0),) * (std.num_cols - 1)
    for den in (0, -1, -std.dens[k]):
        bad = dataclasses.replace(std, dens=std.dens[:k] + (den,))
        calls = [
            (check_optimality, (cert.primal, cert.dual)),
            (check_infeasible, (farkas,)),
            (check_unbounded, (cert.primal, ray)),
        ]
        for check, vectors in calls:
            with pytest.raises(InvalidInputError, match=f"row {k} has denominator {den}"):
                check(bad, *vectors, normalized=normalized)


def test_int_vector_fractions_are_one_object_per_value():
    vec = IntVector([6, -3, 6, 0, -3, 4], 6)
    out = vec.fractions()
    assert out == (1, Fraction(-1, 2), 1, 0, Fraction(-1, 2), Fraction(2, 3))
    assert out[0] is out[2] and out[1] is out[4]
    assert len({id(q) for q in out}) == 4
