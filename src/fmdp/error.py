"""Factored Bellman error of a decision-list policy.

The error of a weight vector w against a policy is the largest deviation
|Q_w(x, pol(x)) - nu_w(x)| over all states.  A decision list partitions the
state space by branch: the states handled by branch k are those consistent
with its partial state t_k but with none of the earlier t's.  Per branch the
deviation is a sum of small scoped functions (the action's rewards and the
weighted one-step basis differences, all instantiated by t_k), so its
supremum is a variable-elimination problem; the earlier branches enter as
indicator functions that send shadowed states to negative infinity.  The
policy's error is the running maximum over branches, with empty branch state
sets contributing negative infinity and dropping out.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import InvalidInputError
from .factored import PartialState, ScopedFn, instantiate
from .model import FactoredMdp
from .policy import DecisionList
from .elim import max_sum
from .values import NEG_INF, ExtReal, fin

__all__ = [
    "indicator_fns",
    "difference_fns",
    "value_diff_fns",
    "branch_error",
    "factored_bellman_err",
]


def indicator_fns(
    ts: Sequence[PartialState], t: PartialState, dims: Sequence[int]
) -> list[ScopedFn]:
    """One exclusion function per earlier branch state, instantiated by ``t``.

    The function for t' is negative infinity exactly on assignments
    consistent with t' and zero elsewhere; after instantiation its scope is
    domain(t') minus domain(t).  A t' subsumed by t yields the constant
    negative infinity (the whole branch is shadowed), a t' conflicting with
    t on some shared variable yields the constant zero.
    """
    out = []
    for tp in ts:
        full = ScopedFn.tabulate(
            tp.domain,
            dims,
            lambda x, tp=tp: NEG_INF if x == tp else fin(0),
        )
        out.append(instantiate(full, t))
    return out


def difference_fns(mdp: FactoredMdp, t: PartialState, a: int) -> tuple[ScopedFn, ...]:
    """The basis differences h_i - gamma * g_i^a instantiated by ``t``: the
    weight LP's weighted summands, and, scaled by -w_i, the basis part of
    ``value_diff_fns``."""
    out = []
    for i, h in enumerate(mdp.basis):
        g = mdp.g(i, a)
        combined = ScopedFn.tabulate(
            set(h.scope) | set(g.scope), mdp.dims, lambda x, h=h, g=g: h(x) - mdp.discount * g(x)
        )
        out.append(instantiate(combined, t))
    return tuple(out)


def value_diff_fns(
    mdp: FactoredMdp, w: Sequence[Fraction], t: PartialState, a: int
) -> list[ScopedFn]:
    """Scoped functions (rational tables) summing to Q_w^a(x) - nu_w(x)
    for every full x consistent with ``t``: the action's rewards plus each
    basis difference scaled by -w_i."""
    parts = [instantiate(r, t) for r in mdp.rewards[a]]
    for wi, diff in zip(w, difference_fns(mdp, t, a)):
        parts.append(diff.map_table(lambda q, wi=wi: -wi * q))
    return parts


def branch_error(
    mdp: FactoredMdp,
    w: Sequence[Fraction],
    t: PartialState,
    a: int,
    ts: Sequence[PartialState],
    order: Sequence[int],
) -> ExtReal:
    """Largest |Q_w^a - nu_w| over states consistent with ``t`` but shadowed
    by no state in ``ts``; negative infinity when no such state exists."""
    parts = value_diff_fns(mdp, w, t, a)
    shadows = indicator_fns(ts, t, mdp.dims)
    above = [f.map_table(fin) for f in parts] + shadows
    below = [f.map_table(lambda q: fin(-q)) for f in parts] + shadows
    return max(
        max_sum(above, order, mdp.dims),
        max_sum(below, order, mdp.dims),
    )


def factored_bellman_err(
    mdp: FactoredMdp,
    w: Sequence[Fraction],
    pol: DecisionList,
    order: Sequence[int],
) -> Fraction:
    """The policy's Bellman error, maximized branch by branch.

    Walks the list once, accumulating earlier branch states as exclusions.
    Branches whose state set came up empty contribute negative infinity and
    are skipped by the maximum; if every branch is empty the list could not
    have been a real policy, which is reported as invalid input.
    """
    best = NEG_INF
    earlier: list[PartialState] = []
    for br in pol.branches:
        err = branch_error(mdp, w, br.t, br.action, earlier, order)
        best = max(best, err)
        earlier.append(br.t)
    if not best.is_finite:
        raise InvalidInputError("decision list covers no state at all")
    return best.unwrap()
