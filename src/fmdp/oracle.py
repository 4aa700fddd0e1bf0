"""Brute-force reference answers for small state spaces.

Everything here works on explicitly enumerated states, which is exactly
what the rest of the package exists to avoid.  That makes these routines
the measuring stick: slow, simple, and with no shared machinery beyond
the model's transition, reward and basis tables.  Every successor of a
state is expanded, and every linear solve is dense, so the costs range
from quadratic (backed-up values) to cubic (exact linear solves) in the
state count; ``enumerate_states`` refuses state spaces past an explicit
limit.

The arithmetic is over integers.  A state's successors carry integer
probability numerators over one denominator, the product of each
transition row's lcm, and the basis tables are scaled to integers over
their lcm.  Value solves write (I - gamma P) v = r as integer rows and
eliminate them fraction-free (Bareiss, Math. Comp. 22, 1968): every
update is divided exactly by the previous pivot, so values come out as
integer numerators over one determinant.  ``Fraction``s appear only in
the answers.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from operator import mul
from typing import Sequence

from .errors import FmdpError, OracleLimitError
from .factored import PartialState, ScopedFn, assignments
from .lp import PHI, StdLp, StdRows, Weight
from .model import FactoredMdp, Weights
from .policy import DecisionList, select_action

__all__ = [
    "enumerate_states",
    "explicit_q",
    "explicit_bellman_err",
    "explicit_weight_lp",
    "policy_value",
    "optimal_value",
]

DEFAULT_STATE_LIMIT = 4096

Digits = Sequence[int]


def enumerate_states(mdp: FactoredMdp, limit: int = DEFAULT_STATE_LIMIT) -> list[PartialState]:
    """All full states in table order, refusing oversized spaces."""
    count = prod(mdp.dims)
    if count > limit:
        raise OracleLimitError(
            f"state space has {count} states, above the limit of {limit}"
        )
    return assignments(range(mdp.n), mdp.dims)


def _digits(mdp: FactoredMdp, x: PartialState) -> Digits:
    return [x.value(v) for v in range(mdp.n)]


def _index(f: ScopedFn, digits: Digits) -> int:
    """Table index of ``f`` at the full state with these value digits."""
    idx = 0
    for v, c in zip(f.scope, f.card):
        idx = idx * c + digits[v]
    return idx


def _over_one_den(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], int]:
    """Rational rows as integer rows over their least common denominator."""
    den = lcm(*[q.denominator for row in rows for q in row])
    return [[q.numerator * (den // q.denominator) for q in row] for row in rows], den


def _successors(
    mdp: FactoredMdp, a: int, digits: Digits
) -> tuple[list[tuple[tuple[int, ...], int]], int]:
    """Every successor of a full state under ``a``, as value digits with an
    integer probability numerator, and the numerators' one denominator."""
    out: list[tuple[tuple[int, ...], int]] = [((), 1)]
    den = 1
    for fn in mdp.transitions[a]:
        (row,), d = _over_one_den([fn.table[_index(fn, digits)]])
        steps = [(val, p) for val, p in enumerate(row) if p]
        out = [(s + (val,), n * p) for s, n in out for val, p in steps]
        den *= d
    return out, den


def _expected_basis(mdp: FactoredMdp, a: int, digits: Digits) -> tuple[list[int], int]:
    """E[h_i(next)] under ``a`` for every basis function h_i, as integer
    numerators over one denominator."""
    succ, den = _successors(mdp, a, digits)
    tables, scale = _over_one_den([h.table for h in mdp.basis])
    sums = [
        sum(n * t[_index(h, s)] for s, n in succ) for h, t in zip(mdp.basis, tables)
    ]
    return sums, den * scale


def explicit_q(mdp: FactoredMdp, w: Weights, a: int, x: PartialState) -> Fraction:
    """One-step backup of the linear value estimate, by full expansion."""
    r = mdp.reward(a, x)
    sums, den = _expected_basis(mdp, a, _digits(mdp, x))
    (ws,), scale = _over_one_den([w])
    return r + mdp.discount * Fraction(sum(map(mul, ws, sums)), den * scale)


def explicit_bellman_err(
    mdp: FactoredMdp, w: Weights, pol: DecisionList, limit: int = DEFAULT_STATE_LIMIT
) -> Fraction:
    """sup |Q_w(pi(x), x) - nu_w(x)| over every enumerated state."""
    best = Fraction(0)
    for x in enumerate_states(mdp, limit):
        a = select_action(pol, x)
        gap = abs(explicit_q(mdp, w, a, x) - mdp.nu_w(w, x))
        if gap > best:
            best = gap
    return best


def explicit_weight_lp(
    mdp: FactoredMdp, pol: DecisionList, limit: int = DEFAULT_STATE_LIMIT
) -> StdLp:
    """The same feasible (phi, w) region as the compact construction, one
    mirrored pair of rows per enumerated state.  Phi is column 0; each
    weight takes the next column in the first row where it is nonzero."""
    col_of: dict[int, int] = {}  # basis index -> column
    minus = Fraction(-1)
    out = StdRows()
    for x in enumerate_states(mdp, limit):
        a = select_action(pol, x)
        digits = _digits(mdp, x)
        sums, den = _expected_basis(mdp, a, digits)
        coef = [
            h.table[_index(h, digits)] - mdp.discount * Fraction(s, den)
            for h, s in zip(mdp.basis, sums)
        ]
        above = sorted((col_of.setdefault(i, len(col_of) + 1), c) for i, c in enumerate(coef) if c)
        r = mdp.reward(a, x)
        out.add("le", ((0, minus), *above), r)
        out.add("le", ((0, minus), *[(j, -c) for j, c in above]), -r)
    return out.std((PHI, *(Weight(i) for i in col_of)))


def _solve_exact(aug: list[list[int]]) -> tuple[list[int], int]:
    """Solve the integer system with augmented rows ``aug`` in place by
    fraction-free Gauss-Jordan elimination.

    Each step divides every update exactly by the previous pivot, and drops
    the column it clears, which no later step reads.  What is left of each
    row is its unknown times the last pivot, so the solution is returned as
    integer numerators over one positive denominator.
    """
    n = len(aug)
    prev = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][0] != 0), None)
        if pivot is None:
            raise FmdpError("singular linear system in value solve")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        top = aug[col]
        p, rest = top[0], top[1:]
        for r, row in enumerate(aug):
            f = row[0]
            if r == col:
                aug[r] = rest
            elif f:
                aug[r] = [(p * u - f * v) // prev for u, v in zip(row[1:], rest)]
            else:
                aug[r] = [p * u // prev for u in row[1:]]
        prev = p
    sign = 1 if prev > 0 else -1
    return [sign * row[0] for row in aug], sign * prev


def _strides(mdp: FactoredMdp) -> list[int]:
    """Place value of each variable's digit in the enumeration order."""
    return [prod(mdp.dims[v + 1 :]) for v in range(mdp.n)]


def _action_values(
    mdp: FactoredMdp, states: list[PartialState], act_of: Sequence[int]
) -> tuple[list[int], int]:
    """Values of acting by ``act_of``, as numerators over one denominator,
    from (I - gamma P) v = r written as one integer row per state."""
    gn, gd = mdp.discount.numerator, mdp.discount.denominator
    strides = _strides(mdp)
    n = len(states)
    aug = []
    for k, (x, a) in enumerate(zip(states, act_of)):
        succ, den = _successors(mdp, a, _digits(mdp, x))
        r = mdp.reward(a, x)
        row = [0] * (n + 1)
        row[k] = gd * den * r.denominator
        for s, p in succ:
            row[sum(map(mul, s, strides))] -= gn * p * r.denominator
        row[n] = r.numerator * gd * den
        aug.append(row)
    return _solve_exact(aug)


def policy_value(
    mdp: FactoredMdp, pol: DecisionList, limit: int = DEFAULT_STATE_LIMIT
) -> dict[PartialState, Fraction]:
    """Exact expected discounted return of a decision list, per state."""
    states = enumerate_states(mdp, limit)
    nums, det = _action_values(mdp, states, [select_action(pol, x) for x in states])
    return {x: Fraction(v, det) for x, v in zip(states, nums)}


def optimal_value(
    mdp: FactoredMdp, limit: int = DEFAULT_STATE_LIMIT
) -> dict[PartialState, Fraction]:
    """Exact optimal values by policy iteration from the default action.

    Greedy improvement breaks ties toward the lowest action index, and each
    sweep is checked to never lower any state's value, which exact
    arithmetic guarantees.  Values are compared as cross-multiplied
    integers: v = nums / det, and each backup is q_num / q_den.
    """
    gn, gd = mdp.discount.numerator, mdp.discount.denominator
    strides = _strides(mdp)
    states = enumerate_states(mdp, limit)
    act_of = [mdp.default] * len(states)
    nums, det = _action_values(mdp, states, act_of)
    while True:
        improved = list(act_of)
        for k, x in enumerate(states):
            digits = _digits(mdp, x)
            best_a, best = act_of[k], None
            for a in range(len(mdp.actions)):
                succ, den = _successors(mdp, a, digits)
                r = mdp.reward(a, x)
                future = sum(p * nums[sum(map(mul, s, strides))] for s, p in succ)
                q_den = r.denominator * gd * den * det
                q_num = r.numerator * gd * den * det + r.denominator * gn * future
                if best is None or q_num * best[1] > best[0] * q_den:
                    best, best_a = (q_num, q_den), a
            if best[0] * det > nums[k] * best[1]:
                improved[k] = best_a
        if improved == act_of:
            return {x: Fraction(v, det) for x, v in zip(states, nums)}
        next_nums, next_det = _action_values(mdp, states, improved)
        if any(u * det < v * next_det for u, v in zip(next_nums, nums)):
            raise FmdpError("policy iteration regressed a state value")
        act_of, nums, det = improved, next_nums, next_det
