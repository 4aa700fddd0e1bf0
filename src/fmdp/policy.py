"""Greedy decision-list policies over a factored model.

A decision list is an ordered sequence of branches (t, a, bonus): the policy
acts by scanning for the first branch whose partial state t is consistent
with the current state and playing that branch's action.  The greedy list
for a weight vector w is built per action from the bonus function, the
advantage Q_w^a - Q_w^d of playing a over the default.  Thanks to the
default-action structure (shared transitions outside the effects, shared
reward prefix), the bonus depends on a small variable set T_a only, so every
state with positive advantage is captured by finitely many branches.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import InvalidInputError
from .factored import EMPTY_STATE, PartialState, ScopedFn, assignments, consistent
from .model import FactoredMdp
from .values import format_rational, parse_rational

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


def bonus(mdp: FactoredMdp, w: Sequence[Fraction], a: int) -> ScopedFn:
    """The advantage function Q_w^a - Q_w^d as a ScopedFn over scope_T(a)."""
    d = mdp.default
    r_d = len(mdp.rewards[d])
    extra_rewards = mdp.rewards[a][r_d:]
    relevant = relevant_basis(mdp, a)

    def advantage(t: PartialState) -> Fraction:
        value = sum((f(t) for f in extra_rewards), Fraction(0))
        swing = sum(
            (w[i] * (mdp.g(i, a)(t) - mdp.g(i, d)(t)) for i in relevant),
            Fraction(0),
        )
        return value + mdp.discount * swing

    return ScopedFn.tabulate(scope_T(mdp, a), mdp.dims, advantage)


def dec_list_act(mdp: FactoredMdp, w: Sequence[Fraction], a: int) -> list[Branch]:
    """Branches of ``a``: one per T_a-assignment with strictly positive bonus."""
    delta = bonus(mdp, w, a)
    return [
        Branch(t, a, value)
        for t, value in zip(assignments(delta.scope, mdp.dims), delta.table)
        if value > 0
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
