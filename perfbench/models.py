"""Seeded model generators for the benchmark workloads.

Both families are built only through the public ``FactoredMdp``
constructor and rejected when ``validate()`` reports any violation, so the
solver sees the same kind of input a user would hand it.

``ring_mdp`` is the package's ring network (``fmdp.make_ring``) with its
four stay-working probabilities drawn from the seed; seed 0 keeps the
package's own numbers, so seed-0 instances equal ``make_ring(n)`` exactly.
The ``*_params`` functions draw the probabilities of either family.

``sysadmin_mdp`` is the bidirectional-ring SysAdmin network of Guestrin,
Koller, Parr and Venkataraman, "Efficient Solution Algorithms for Factored
MDPs" (JAIR 2003), reduced to machine status: each machine is good, faulty
or dead, and its next status reads its own status and both neighbours'.
That gives three-variable transition scopes, wider than the ring's two.
"""

from __future__ import annotations

import random
from fractions import Fraction

from fmdp import FactoredMdp, InvalidInputError, PartialState, ScopedFn

__all__ = ["ring_mdp", "ring_params", "sysadmin_mdp", "sysadmin_params"]

# P(next = working | own, predecessor), keyed by (own, predecessor) with
# 0 = working and 1 = broken; the values of ``fmdp.make_ring``.
RING_DEFAULT = {
    (0, 0): Fraction(9, 10),
    (1, 0): Fraction(2, 10),
    (0, 1): Fraction(7, 10),
    (1, 1): Fraction(1, 10),
}

# Per own status and number of non-good neighbours k = 0, 1, 2: the
# probability of being good next, and of being dead next.  Dead machines
# stay dead until restarted.
SYSADMIN_DEFAULT = {
    "good": (Fraction(9, 10), Fraction(8, 10), Fraction(7, 10)),
    "good_dies": Fraction(1, 20),
    "faulty": (Fraction(3, 10), Fraction(2, 10), Fraction(1, 10)),
    "faulty_dies": Fraction(2, 10),
}


def _checked(mdp: FactoredMdp) -> FactoredMdp:
    problems = mdp.validate()
    if problems:
        raise InvalidInputError("generated model is invalid: " + "; ".join(problems))
    return mdp


def _nudge(rng: random.Random, centre: Fraction) -> Fraction:
    """``centre`` moved by -1, 0 or +1 thousandths.

    Wider draws change the iteration count and the cut path from seed to
    seed (ring passes took 1067 to 1627 master pivots with whole-tenth
    draws), so the seeds' costs would differ by more than any bound the
    benchmark could hold.  Thousandths still change every number the
    solver sees, but kept ring passes within 1410 to 1472 pivots over
    seeds 1 to 8, and sysadmin-3 within 630 to 714 over seeds 1 to 10.
    """
    return centre + Fraction(rng.randint(-1, 1), 1000)


def ring_params(rng: random.Random | None) -> dict:
    """Stay-working probabilities; ``None`` gives the package defaults."""
    if rng is None:
        return dict(RING_DEFAULT)
    return {key: _nudge(rng, p) for key, p in RING_DEFAULT.items()}


def ring_mdp(n: int, params: dict) -> FactoredMdp:
    """Ring of ``n`` two-state machines, laid out exactly as ``make_ring``."""
    dims = [2] * n

    def default_transition(i: int) -> ScopedFn:
        pred = (i - 1) % n

        def dist(x: PartialState) -> tuple[Fraction, Fraction]:
            p = params[(x.value(i), x.value(pred))]
            return (p, 1 - p)

        return ScopedFn.tabulate({i, pred}, dims, dist)

    default_row = tuple(default_transition(i) for i in range(n))
    transitions = [default_row]
    for k in range(n):
        forced = ScopedFn.tabulate({k}, dims, lambda _: (Fraction(1), Fraction(0)))
        transitions.append(default_row[:k] + (forced,) + default_row[k + 1 :])
    indicator = tuple(ScopedFn((i,), (2,), (Fraction(1), Fraction(0))) for i in range(n))
    return _checked(
        FactoredMdp(
            domains=(("W", "B"),) * n,
            actions=("noop",) + tuple(f"restart_{k}" for k in range(n)),
            default=0,
            transitions=tuple(transitions),
            rewards=tuple(indicator for _ in range(n + 1)),
            effects=((),) + tuple((k,) for k in range(n)),
            discount=Fraction(9, 10),
            basis=(ScopedFn.constant(Fraction(1)),) + indicator,
        )
    )


def sysadmin_params(rng: random.Random | None) -> dict:
    """Status probabilities; ``None`` gives ``SYSADMIN_DEFAULT``."""
    if rng is None:
        return dict(SYSADMIN_DEFAULT)
    return {
        "good": tuple(_nudge(rng, p) for p in SYSADMIN_DEFAULT["good"]),
        "good_dies": _nudge(rng, SYSADMIN_DEFAULT["good_dies"]),
        "faulty": tuple(_nudge(rng, p) for p in SYSADMIN_DEFAULT["faulty"]),
        "faulty_dies": _nudge(rng, SYSADMIN_DEFAULT["faulty_dies"]),
    }


def sysadmin_mdp(n: int, params: dict) -> FactoredMdp:
    """Bidirectional ring of ``n >= 3`` machines with statuses G, F, D."""
    if n < 3:
        raise InvalidInputError("a bidirectional ring needs at least three machines")
    dims = [3] * n

    def default_transition(i: int) -> ScopedFn:
        left, right = (i - 1) % n, (i + 1) % n

        def dist(x: PartialState) -> tuple[Fraction, Fraction, Fraction]:
            k = (x.value(left) != 0) + (x.value(right) != 0)
            own = x.value(i)
            if own == 2:
                return (Fraction(0), Fraction(0), Fraction(1))
            if own == 0:
                good, dead = params["good"][k], params["good_dies"]
            else:
                good, dead = params["faulty"][k], params["faulty_dies"]
            return (good, 1 - good - dead, dead)

        return ScopedFn.tabulate({left, i, right}, dims, dist)

    default_row = tuple(default_transition(i) for i in range(n))
    transitions = [default_row]
    for k in range(n):
        forced = ScopedFn.tabulate(
            {k}, dims, lambda _: (Fraction(1), Fraction(0), Fraction(0))
        )
        transitions.append(default_row[:k] + (forced,) + default_row[k + 1 :])
    rewards = tuple(
        ScopedFn((i,), (3,), (Fraction(1), Fraction(1, 2), Fraction(0))) for i in range(n)
    )
    good = tuple(ScopedFn((i,), (3,), (Fraction(1), Fraction(0), Fraction(0))) for i in range(n))
    faulty = tuple(ScopedFn((i,), (3,), (Fraction(0), Fraction(1), Fraction(0))) for i in range(n))
    return _checked(
        FactoredMdp(
            domains=(("G", "F", "D"),) * n,
            actions=("noop",) + tuple(f"restart_{k}" for k in range(n)),
            default=0,
            transitions=tuple(transitions),
            rewards=tuple(rewards for _ in range(n + 1)),
            effects=((),) + tuple((k,) for k in range(n)),
            discount=Fraction(9, 10),
            basis=(ScopedFn.constant(Fraction(1)),) + good + faulty,
        )
    )
