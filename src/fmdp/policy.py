"""Greedy decision-list policies over a factored model.

A decision list is an ordered sequence of branches (t, a, bonus): the policy
acts by scanning for the first branch whose partial state t is consistent
with the current state and playing that branch's action.  The greedy list
for a weight vector w is built per action from the bonus function, the
advantage Q_w^a - Q_w^d of playing a over the default.  Thanks to the
default-action structure (shared transitions outside the effects, shared
reward prefix), the bonus depends on a small variable set T_a only, so every
state with positive advantage is captured by finitely many branches.

The bonus is linear in w, so per model and action its parts are kept as
integer tables over T_a (``FactoredMdp.g_int`` gives the lookaheads); a
greedy list dots them with w and makes a ``Fraction`` per kept branch.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from operator import add, attrgetter
from typing import Sequence

from .elim import _gather
from .errors import InvalidInputError
from .factored import EMPTY_STATE, PartialState, ScopedFn, consistent
from .model import FactoredMdp
from .values import format_rational, over_one_den, parse_rational

__all__ = [
    "Branch",
    "DecisionList",
    "relevant_basis",
    "scope_T",
    "bonus",
    "dec_list_act",
    "greedy_decision_list",
    "select_action",
    "decision_list_to_text",
    "decision_list_from_text",
    "text_safe",
]


@dataclass(frozen=True, slots=True)
class Branch:
    t: PartialState
    action: int
    bonus: Fraction


@dataclass(frozen=True, slots=True)
class DecisionList:
    branches: tuple[Branch, ...]

    def __len__(self) -> int:
        return len(self.branches)


def relevant_basis(mdp: FactoredMdp, a: int) -> tuple[int, ...]:
    """Indices of basis functions whose scope meets the effects of ``a``.

    Only these contribute to the advantage of ``a`` over the default, since
    all other basis lookaheads coincide across the two actions.
    """
    eff = set(mdp.effects[a])
    return tuple(
        i for i, h in enumerate(mdp.basis) if eff & set(h.scope)
    )


def scope_T(mdp: FactoredMdp, a: int) -> tuple[int, ...]:
    """Variables the bonus of ``a`` can depend on: scopes of the rewards
    exclusive to ``a`` plus both actions' lookahead scopes of the relevant
    basis functions (the default's side included, it does not cancel)."""
    d = mdp.default
    joint: set[int] = set()
    for j in range(len(mdp.rewards[d]), len(mdp.rewards[a])):
        joint.update(mdp.rewards[a][j].scope)
    for i in relevant_basis(mdp, a):
        joint.update(mdp.gamma_scope(i, a))
        joint.update(mdp.gamma_scope(i, d))
    return tuple(sorted(joint))


def _bonus_tables(mdp: FactoredMdp, a: int) -> tuple:
    """scope_T(a), the relevant basis functions, and the bonus of ``a``
    apart from w as integer tables over scope_T(a) and one denominator:
    the extra rewards' sum, then gamma * (g_i^a - g_i^d) per relevant
    basis function.  Kept in the model's cache under ("bonus", a)."""
    hit = mdp._cache.get(("bonus", a))
    if hit is not None:
        return hit
    d, dims = mdp.default, mdp.dims
    scope, relevant = scope_T(mdp, a), relevant_basis(mdp, a)
    extra = mdp.rewards[a][len(mdp.rewards[d]) :]
    ints, r_den = over_one_den([f.table for f in extra])
    p, q = mdp.discount.as_integer_ratio()
    # Every summand: its table's slot, scope, integers, denominator, factor.
    terms = [(0, f.scope, t, r_den, 1) for f, t in zip(extra, ints)]
    for slot, i in enumerate(relevant, 1):
        for b, factor in ((a, p), (d, -p)):
            g, g_den = mdp.g_int(i, b)
            terms.append((slot, g.scope, g.table, q * g_den, factor))
    den = lcm(*[term[3] for term in terms])
    tables = [(0,) * prod(map(dims.__getitem__, scope))] * (1 + len(relevant))
    for slot, at, table, t_den, factor in terms:
        spread = map(table.__getitem__, _gather(at, scope, dims))
        tables[slot] = tuple(map(add, tables[slot], map((factor * (den // t_den)).__mul__, spread)))
    hit = mdp._cache["bonus", a] = (scope, relevant, tables, den)
    return hit


def _advantages(mdp: FactoredMdp, w: Sequence[Fraction], a: int) -> tuple:
    """scope_T(a), the bonus numerators at ``w`` in its table order, and
    their one denominator: ``_bonus_tables`` dotted with w over lcm(w)."""
    scope, relevant, tables, den = _bonus_tables(mdp, a)
    ws = list(map(w.__getitem__, relevant))
    scale = lcm(*map(attrgetter("denominator"), ws))
    nums = map(scale.__mul__, tables[0])
    for wi, table in zip(ws, tables[1:]):
        if wi:
            k = wi.numerator * (scale // wi.denominator)
            nums = map(add, nums, map(k.__mul__, table))
    return scope, list(nums), den * scale


def bonus(mdp: FactoredMdp, w: Sequence[Fraction], a: int) -> ScopedFn:
    """The advantage function Q_w^a - Q_w^d as a ScopedFn over scope_T(a),
    rendered from the integer bonus tables dotted with w."""
    scope, nums, den = _advantages(mdp, w, a)
    card = tuple(map(mdp.dims.__getitem__, scope))
    return ScopedFn(scope, card, tuple(map(Fraction, nums, [den] * len(nums))))


def _state(scope: tuple[int, ...], dims: Sequence[int], j: int) -> PartialState:
    """The assignment at table index ``j`` over ``scope``."""
    items = []
    for v in reversed(scope):
        j, x = divmod(j, dims[v])
        items.append((v, x))
    return PartialState(tuple(reversed(items)))


def dec_list_act(mdp: FactoredMdp, w: Sequence[Fraction], a: int) -> list[Branch]:
    """Branches of ``a``: one per T_a-assignment with strictly positive
    bonus, in table order.  The integer bonus tables are dotted with w over
    one denominator, and only a kept entry becomes a ``Fraction``."""
    scope, nums, den = _advantages(mdp, w, a)
    dims = mdp.dims
    return [
        Branch(_state(scope, dims, j), a, Fraction(n, den)) for j, n in enumerate(nums) if n > 0
    ]


def greedy_decision_list(mdp: FactoredMdp, w: Sequence[Fraction]) -> DecisionList:
    """The greedy policy for w as a decision list.

    The fallback branch (empty state, default action, bonus 0) is built
    first, then every non-default action's branches in model order; the
    concatenation is stably sorted by decreasing bonus, so equal bonuses
    keep construction order and the fallback lands last (all other branches
    have strictly positive bonus).
    """
    branches = [Branch(EMPTY_STATE, mdp.default, Fraction(0))]
    for a in range(len(mdp.actions)):
        if a != mdp.default:
            branches.extend(dec_list_act(mdp, w, a))
    ordered = sorted(branches, key=lambda br: br.bonus, reverse=True)
    return DecisionList(tuple(ordered))


def select_action(pol: DecisionList, x: PartialState) -> int:
    """Action of the first branch consistent with ``x``."""
    for br in pol.branches:
        if consistent(x, br.t):
            return br.action
    raise InvalidInputError("decision list has no branch consistent with the state")


# -- text format ----------------------------------------------------------


def text_safe(name: str) -> bool:
    """Whether a value or action name survives the decision-list text:
    fields split on `;` and variable pairs on whitespace."""
    return not any(ch == ";" or ch.isspace() for ch in name)


def decision_list_to_text(mdp: FactoredMdp, pol: DecisionList) -> str:
    """One line per branch: `var=value pairs ; action name ; bonus`.

    The fallback's empty partial state shows as an empty first field.  A
    name that is not ``text_safe`` could not be read back, so it raises.
    """
    lines = []
    for br in pol.branches:
        names = [mdp.domains[v][val] for v, val in br.t.items] + [mdp.actions[br.action]]
        bad = [name for name in names if not text_safe(name)]
        if bad:
            raise InvalidInputError(
                f"name {bad[0]!r} cannot be written: it holds whitespace or ';'"
            )
        t_part = " ".join(f"{v}={name}" for (v, _), name in zip(br.t.items, names))
        lines.append(f"{t_part} ; {names[-1]} ; {format_rational(br.bonus)}")
    return "\n".join(lines) + "\n"


def decision_list_from_text(mdp: FactoredMdp, text: str) -> DecisionList:
    branches = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(";")]
        if len(parts) != 3:
            raise InvalidInputError(f"decision list line {line_no}: expected 3 fields")
        t_part, action_name, bonus_part = parts
        entries = {}
        for token in t_part.split():
            var_text, _, val_name = token.partition("=")
            try:
                var = int(var_text)
            except ValueError as exc:
                raise InvalidInputError(
                    f"decision list line {line_no}: bad variable {var_text!r}"
                ) from exc
            if not (0 <= var < mdp.n) or val_name not in mdp.domains[var]:
                raise InvalidInputError(
                    f"decision list line {line_no}: {token!r} does not name a value"
                )
            if var in entries:
                raise InvalidInputError(
                    f"decision list line {line_no}: variable {var} assigned twice"
                )
            entries[var] = mdp.domains[var].index(val_name)
        if action_name not in mdp.actions:
            raise InvalidInputError(
                f"decision list line {line_no}: unknown action {action_name!r}"
            )
        try:
            bonus = parse_rational(bonus_part)
        except InvalidInputError as exc:
            raise InvalidInputError(f"decision list line {line_no}: {exc}") from exc
        branches.append(Branch(PartialState.of(entries), mdp.actions.index(action_name), bonus))
    return DecisionList(tuple(branches))
