"""Approximate policy iteration over linear value functions.

The driver alternates two exact steps until a fixed point: project the
current policy's value onto the basis (``update_weights``), then read the
greedy decision list off the new weights.  Because every step is rational
arithmetic, weight convergence is an exact equality test, not a tolerance.

``posterior_bound`` checks the a-posteriori guarantee for converged runs
against the brute-force oracle, which limits it to small state spaces;
it alone decides which runs have converged.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .elim import identity_order
from .error import factored_bellman_err
from .errors import InvalidInputError
from .model import FactoredMdp
from .oracle import DEFAULT_STATE_LIMIT, optimal_value
from .policy import DecisionList, greedy_decision_list
from .weights import Weights, update_weights

__all__ = ["ApiConfig", "ApiResult", "Bound", "api", "posterior_bound"]


@dataclass(frozen=True)
class ApiConfig:
    """Knobs for one solver run.

    ``epsilon`` is the Bellman-error target, ``t_max`` caps the number of
    iterations, and ``order`` fixes the variable elimination order (``None``
    means index order).
    """

    epsilon: Fraction = Fraction(0)
    t_max: int = 100
    order: tuple[int, ...] | None = None


@dataclass(frozen=True)
class ApiResult:
    """Where a run stopped and why.

    ``t`` counts completed iterations before the stopping one, so the
    cheapest possible run reports ``t = 0``.  Exactly which condition fired
    is kept in the three flags; more than one can be true at once.
    ``phi_history`` records the projection error of every iteration
    performed, the stopping one included.
    """

    t: int
    pol: DecisionList
    w: Weights
    err: Fraction
    w_eq: bool
    err_le: bool
    timeout: bool
    phi_history: tuple[Fraction, ...]


def api(
    mdp: FactoredMdp,
    config: ApiConfig = ApiConfig(),
    *,
    trace: list | None = None,
) -> ApiResult:
    """Run approximate policy iteration until one stop condition fires.

    Starts from all-zero weights and their greedy list.  Each iteration
    computes fresh weights for the current list, re-derives the greedy list,
    and measures its Bellman error; weights that repeat keep the list and
    error already found for them.  The run stops when the weights repeat
    exactly, when the error drops to ``epsilon`` or below, or when the next
    iteration would exceed ``t_max``.

    When ``trace`` is a list, one dict per iteration is appended with the
    LP statistics from ``update_weights`` plus the iterate itself; the
    returned result never depends on whether tracing was on.
    """
    if config.epsilon < 0:
        raise InvalidInputError("epsilon must be nonnegative")
    if config.t_max < 1:
        raise InvalidInputError("t_max must be at least 1")
    order = identity_order(mdp.n) if config.order is None else tuple(config.order)

    w: Weights = tuple(Fraction(0) for _ in mdp.basis)
    pol = greedy_decision_list(mdp, w)
    t = 0
    phis: list[Fraction] = []
    while True:
        step: dict | None = {} if trace is not None else None
        started = time.perf_counter()
        w_new, phi = update_weights(mdp, pol, order, trace=step)
        w_eq = w_new == w
        # Repeated weights give the same greedy list, whose error at them
        # the last iteration measured (none did before the first).
        pol_new = pol if w_eq else greedy_decision_list(mdp, w_new)
        if not (w_eq and t):
            err = factored_bellman_err(mdp, w_new, pol_new, order)
        phis.append(phi)
        err_le = err <= config.epsilon
        timeout = t + 1 >= config.t_max
        if step is not None:
            step["t"] = t
            step["phi"] = phi
            step["err"] = err
            step["w"] = w_new
            step["seconds"] = time.perf_counter() - started
            trace.append(step)
        if w_eq or err_le or timeout:
            return ApiResult(t, pol_new, w_new, err, w_eq, err_le, timeout, tuple(phis))
        w, pol = w_new, pol_new
        t += 1


class Bound(NamedTuple):
    lhs: Fraction
    rhs: Fraction
    holds: bool


def posterior_bound(
    mdp: FactoredMdp,
    result: ApiResult,
    *,
    limit: int = DEFAULT_STATE_LIMIT,
) -> Bound:
    """The a-posteriori guarantee for a converged run, checked exactly.

    Compares ``(1 - discount) * sup |nu_star - nu_w|`` against
    ``2 * discount * err``, with the optimal values taken from the explicit
    oracle.  A run has converged when its weights repeated or its error is
    0: ``err`` is the Bellman residual of nu_w, so at 0 nu_w is optimal and
    both sides are 0.  Any other run raises ``InvalidInputError``; state
    spaces past ``limit`` raise ``OracleLimitError``.
    """
    if not (result.w_eq or result.err == 0):
        raise InvalidInputError("the posterior bound needs a run with converged weights")
    star = optimal_value(mdp, limit)
    gap = Fraction(0)
    for x, best in star.items():
        gap = max(gap, abs(best - mdp.nu_w(result.w, x)))
    lhs = (1 - mdp.discount) * gap
    rhs = 2 * mdp.discount * result.err
    return Bound(lhs, rhs, lhs <= rhs)
