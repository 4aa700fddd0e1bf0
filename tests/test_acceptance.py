"""Acceptance sweep: the eight required behaviors, one test and verdict each.

Every test prints a single PASS line once its assertions hold, so running
this file with ``pytest -s`` yields one verdict per requirement.  Budgets
are asserted where a requirement states one.
"""

import dataclasses
import itertools
import random
import time
from fractions import Fraction
from functools import lru_cache

from helpers import flatten, priced, random_ext_table_fns, random_token_lp
from test_model import corrupt_reward, corrupt_transition, violations_contain

from fmdp.api import ApiConfig, api, posterior_bound
from fmdp.certify import check_infeasible, check_optimality, check_unbounded
from fmdp.elim import explicit_max, identity_order, max_sum
from fmdp.error import factored_bellman_err
from fmdp.factored import ScopedFn
from fmdp.lp import Infeasible, Optimal, Unbounded
from fmdp.model import FactoredMdp, make_ring
from fmdp.oracle import (
    enumerate_states,
    explicit_bellman_err,
    explicit_weight_lp,
)
from fmdp.policy import greedy_decision_list, select_action
from fmdp.simplex import solve_lp
from fmdp.weights import update_weights

F = Fraction


def _verdict(number: int, text: str) -> None:
    print(f"acceptance {number}/8: PASS {text}")


def _weight_sweep(rng: random.Random, mdp: FactoredMdp, count: int):
    for _ in range(count):
        yield tuple(
            F(rng.randint(-30, 30), rng.randint(1, 12)) for _ in mdp.basis
        )


# -- 1: variable elimination against brute force -----------------------------


def test_accept_1_elimination_matches_brute_force():
    started = time.perf_counter()
    rng = random.Random(1001)
    for _ in range(200):
        fns, dims = random_ext_table_fns(rng)
        assert max_sum(*priced(fns, identity_order(len(dims)), dims)) == explicit_max(
            fns, dims
        )
    rng = random.Random(1002)
    for _ in range(40):
        fns, dims = random_ext_table_fns(rng, n_max=4)
        values = {
            max_sum(*priced(fns, order, dims))
            for order in itertools.permutations(range(len(dims)))
        }
        assert values == {explicit_max(fns, dims)}
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _verdict(
        1,
        "max_sum equals brute-force maximum on 200 instances and is "
        f"order-independent on 40 more ({elapsed:.1f}s)",
    )


# -- 2 and 3: greedy lists and Bellman errors against the oracle -------------


def test_accept_2_greedy_lists_maximize_q():
    started = time.perf_counter()
    checked = 0
    for n in (1, 2, 3):
        mdp = make_ring(n)
        states = enumerate_states(mdp)
        actions = range(len(mdp.actions))
        rng = random.Random(300 + n)
        for w in _weight_sweep(rng, mdp, 50):
            pol = greedy_decision_list(mdp, w)
            for x in states:
                best = max(mdp.q_value(w, a, x) for a in actions)
                assert mdp.q_value(w, select_action(pol, x), x) == best
                checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _verdict(
        2,
        f"greedy decision lists attain max-Q at {checked} "
        f"state/weight pairs on rings 1-3 ({elapsed:.1f}s)",
    )


def test_accept_3_bellman_error_matches_oracle():
    started = time.perf_counter()
    for n in (1, 2, 3):
        mdp = make_ring(n)
        order = identity_order(mdp.n)
        rng = random.Random(300 + n)
        for w in _weight_sweep(rng, mdp, 50):
            pol = greedy_decision_list(mdp, w)
            assert factored_bellman_err(mdp, w, pol, order) == explicit_bellman_err(
                mdp, w, pol
            )
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _verdict(
        3,
        "factored Bellman error equals the enumeration value for 50 "
        f"weight vectors on each of rings 1-3 ({elapsed:.1f}s)",
    )


# -- 4: compact weight LP against the per-state LP ---------------------------


def test_accept_4_weight_lp_optimum_matches_explicit():
    for n in (1, 2, 3):
        mdp = make_ring(n)
        rng = random.Random(40 + n)
        for w in _weight_sweep(rng, mdp, 6):
            pol = greedy_decision_list(mdp, w)
            _, phi = update_weights(mdp, pol, identity_order(mdp.n))
            cert = solve_lp(explicit_weight_lp(mdp, pol))
            assert isinstance(cert, Optimal)
            assert cert.primal[0] == phi

    tiny = dataclasses.replace(make_ring(1), basis=(ScopedFn.constant(F(1)),))
    pol = greedy_decision_list(tiny, (F(0),))
    w, phi = update_weights(tiny, pol, identity_order(tiny.n))
    assert (w, phi) == ((F(5),), F(1, 2))
    _verdict(
        4,
        "weight LP optima equal their per-state counterparts on rings 1-3; "
        "single-machine constant-basis optimum is (w, phi) = (5, 1/2)",
    )


# -- 5 and 6: convergence and the final error bound --------------------------


@lru_cache(maxsize=None)
def _solved_ring(n: int):
    mdp = make_ring(n)
    started = time.perf_counter()
    res = api(mdp, ApiConfig(epsilon=F(0), t_max=30))
    elapsed = time.perf_counter() - started
    if res.w_eq:
        converged = True
    else:
        # A run can stop on exact-zero error one step before the equality
        # check would fire; refitting the final list settles convergence.
        again, _ = update_weights(mdp, res.pol, identity_order(mdp.n))
        converged = res.err == 0 and again == res.w
    return mdp, res, converged, elapsed


def test_accept_5_rings_converge_within_six_iterations():
    times = []
    for n in range(1, 6):
        mdp, res, converged, elapsed = _solved_ring(n)
        assert converged, f"ring {n} did not reach a weight fixed point"
        assert res.t + 1 <= 6, f"ring {n} took {res.t + 1} iterations"
        times.append(elapsed)
        if n == 5:
            assert elapsed < 120.0
    _verdict(
        5,
        "rings 1-5 reach exact weight fixed points within 6 iterations "
        f"(ring 5: {times[-1]:.1f}s of 120s allowed)",
    )


def test_accept_6_posterior_bound_holds_exactly():
    for n in range(1, 5):
        mdp, res, converged, _ = _solved_ring(n)
        assert converged
        settled = res if res.w_eq else dataclasses.replace(res, w_eq=True)
        lhs, rhs, holds = posterior_bound(mdp, settled)
        assert holds, f"ring {n}: {lhs} > {rhs}"
    _verdict(
        6,
        "(1-discount) * distance-to-optimal <= 2 * discount * err "
        "holds exactly on rings 1-4",
    )


# -- 7: certificate soundness under perturbation ------------------------------


def _dense(std):
    rows = [[F(0)] * std.num_cols for _ in range(std.num_rows)]
    rhs = []
    for r in range(std.num_rows):
        entries, b = std.fraction_row(r)
        for c, q in entries:
            rows[r][c] = q
        rhs.append(b)
    cost = [F(0)] * std.num_cols
    cost[0] = F(1)  # every standard form minimizes column 0
    return rows, rhs, cost


def _conditions_from_scratch(std, cert) -> bool:
    """The defining certificate conditions, recomputed without the checker."""
    rows, rhs, cost = _dense(std)
    ncols = std.num_cols

    def ax(vec):
        return [sum(row[j] * vec[j] for j in range(ncols)) for row in rows]

    if isinstance(cert, Optimal):
        x, y = cert.primal, cert.dual
        return (
            all(v <= b for v, b in zip(ax(x), rhs))
            and all(v >= 0 for v in y)
            and all(
                sum(rows[i][j] * y[i] for i in range(len(y))) + cost[j] == 0
                for j in range(ncols)
            )
            and sum(c * v for c, v in zip(cost, x))
            + sum(b * v for b, v in zip(rhs, y))
            == 0
        )
    if isinstance(cert, Infeasible):
        y = cert.farkas
        return (
            all(v >= 0 for v in y)
            and all(
                sum(rows[i][j] * y[i] for i in range(len(y))) == 0
                for j in range(ncols)
            )
            and sum(b * v for b, v in zip(rhs, y)) < 0
        )
    point, ray = cert.point, cert.ray
    return (
        all(v <= b for v, b in zip(ax(point), rhs))
        and all(v <= 0 for v in ax(ray))
        and sum(c * v for c, v in zip(cost, ray)) < 0
    )


def _checked(std, cert) -> bool:
    if isinstance(cert, Optimal):
        return check_optimality(std, cert.primal, cert.dual)
    if isinstance(cert, Infeasible):
        return check_infeasible(std, cert.farkas)
    return check_unbounded(std, cert.point, cert.ray)


def _bump(vec, k):
    return tuple(q + 1 if j == k else q for j, q in enumerate(vec))


def _single_entry_variants(cert):
    if isinstance(cert, Optimal):
        for j in range(len(cert.primal)):
            yield Optimal(_bump(cert.primal, j), cert.dual)
        for i in range(len(cert.dual)):
            yield Optimal(cert.primal, _bump(cert.dual, i))
    elif isinstance(cert, Infeasible):
        for i in range(len(cert.farkas)):
            yield Infeasible(_bump(cert.farkas, i))
    else:
        for j in range(len(cert.point)):
            yield Unbounded(_bump(cert.point, j), cert.ray)
        for j in range(len(cert.ray)):
            yield Unbounded(cert.point, _bump(cert.ray, j))


def _surely_broken(cert):
    if isinstance(cert, Optimal):
        return Optimal(_bump(cert.primal, 0), cert.dual)
    if isinstance(cert, Infeasible):
        return Infeasible(tuple(-v for v in cert.farkas))
    return Unbounded(cert.point, tuple(-v for v in cert.ray))


def test_accept_7_certificates_sound_under_perturbation():
    rng = random.Random(42)
    kind_counts = {"Optimal": 0, "Infeasible": 0, "Unbounded": 0}
    perturbations = 0
    rejected = 0
    for _ in range(100):
        lp = random_token_lp(rng, max_vars=20, max_rows=40)
        std = flatten(lp)
        cert = solve_lp(std)
        kind_counts[type(cert).__name__] += 1
        assert _checked(std, cert)
        assert _conditions_from_scratch(std, cert)
        for variant in _single_entry_variants(cert):
            verdict = _checked(std, variant)
            assert verdict == _conditions_from_scratch(std, variant)
            perturbations += 1
            rejected += not verdict
        assert not _checked(std, _surely_broken(cert))
    assert kind_counts["Infeasible"] >= 10
    assert kind_counts["Unbounded"] >= 10
    assert rejected >= (perturbations * 3) // 4
    _verdict(
        7,
        f"{sum(kind_counts.values())} solver certificates verified "
        f"({kind_counts['Infeasible']} infeasible, "
        f"{kind_counts['Unbounded']} unbounded); checker agreed with "
        f"first-principles conditions on all {perturbations} single-entry "
        f"perturbations, rejecting {rejected}",
    )


# -- 8: validator names every structural assumption ---------------------------


def test_accept_8_validator_names_each_violated_assumption():
    ring = make_ring(2)
    empty = FactoredMdp(
        domains=(),
        actions=("noop",),
        default=0,
        transitions=((),),
        rewards=((),),
        effects=((),),
        discount=F(1, 2),
        basis=(),
    )
    bad_dist = ScopedFn((0,), (2,), ((F(9, 10), F(9, 10)), (F(1), F(0))))
    off_scope = ScopedFn((0, 2), (2, 2), ((F(1), F(0)),) * 4)
    far_reward = ScopedFn((5,), (2,), (F(1), F(0)))
    doubled = ScopedFn((0,), (2,), (F(2), F(0)))
    swapped_scope = ScopedFn((1,), (2,), (F(1), F(0)))
    injected = [
        ("dims_pos", empty),
        ("doms_ne", dataclasses.replace(ring, domains=(("W", "B"), ()))),
        (
            "actions_ne",
            dataclasses.replace(
                make_ring(1), actions=(), transitions=(), rewards=(), effects=()
            ),
        ),
        ("default_act", dataclasses.replace(ring, default=7)),
        ("transitions_closed", corrupt_transition(ring, 1, 0, bad_dist)),
        ("transitions_scope_dims", corrupt_transition(ring, 1, 0, off_scope)),
        ("reward_scope_dims", corrupt_reward(ring, 0, 0, far_reward)),
        (
            "h_scope_dims",
            dataclasses.replace(ring, basis=ring.basis[:1] + (far_reward,)),
        ),
        ("disc_lt_one", dataclasses.replace(ring, discount=F(3, 2))),
        ("disc_nonneg", dataclasses.replace(ring, discount=F(-1, 10))),
        ("effects", dataclasses.replace(ring, effects=((), (), (1,)))),
        ("effects_default", dataclasses.replace(ring, effects=((0,), (0,), (1,)))),
        (
            "rewards_default_dim",
            dataclasses.replace(
                ring, rewards=(ring.rewards[0], ring.rewards[1][:1], ring.rewards[2])
            ),
        ),
        ("transitions_count", dataclasses.replace(ring, transitions=ring.transitions[:2])),
        ("rewards_count", dataclasses.replace(ring, rewards=ring.rewards[:2])),
        ("effects_count", dataclasses.replace(ring, effects=ring.effects[:2])),
        ("rewards_eq", corrupt_reward(ring, 1, 0, doubled)),
        ("reward_scope_eq", corrupt_reward(ring, 1, 0, swapped_scope)),
    ]
    for name, broken in injected:
        assert violations_contain(broken, name), name
    assert not ring.validate()
    _verdict(
        8,
        f"{len(injected)} single-fault models each rejected under the "
        "matching assumption name, covering every name the validator "
        "can report",
    )
