"""Compact linear programs whose projection onto (phi, w) enforces
`sum_i w_i C_i(x) + sum_j B_j(x) <= phi` for every full assignment x,
without ever enumerating the assignments.

A block is the elimination plan of its summands (``fmdp.elim.ElimPlan``)
read as rows; the plan is the single source of the schedule, and this
module only names its slots and entries.  Each input function gets one
private variable per point of its scope, tied down by equalities (tie
rows for weighted summands, pin rows for constant ones); each round's
replacement gets a fresh function variable whose dominance rows say it
bounds every one-variable extension of its dependents; a final summary
row says the surviving constants sum to at most phi.  Eliminating a
variable therefore costs rows proportional to the local joint scope, not
to the full state space.  The row helpers are the one definition of each
row form: ``fmdp.weights`` calls them again to locate the rows its lifted
dual loads.

Branch blocks come in mirrored pairs that share one plan: the positive
tag bounds how far the linear value estimate can sit above the backed-up
value on the branch's states, the negative tag the other direction.
Negated indicator summands release every state some earlier branch
already claimed, because any sum through minus infinity imposes nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .elim import ElimPlan, ElimRound, identity_order
from .errors import InvalidInputError
from .error import difference_fns, indicator_fns
from .factored import PartialState, ScopedFn, assignments, instantiate
from .lp import PHI, Constraint, FnId, FnVar, Lp, Tag, Weight, make_constraint
from .model import FactoredMdp
from .policy import DecisionList
from .values import fin

__all__ = ["TagBlock", "min_lp", "branch_lp", "weight_lp_blocks", "weight_lp"]
__all__ += ["tie_row", "pin_row", "dominance_row", "summary_row"]


@dataclass(frozen=True)
class TagBlock:
    """Everything one tag contributes: its summands, the elimination plan
    over them, one private variable per table entry of every plan slot,
    and the finished constraint rows in generation order."""

    tag: Tag
    c_fns: tuple[ScopedFn, ...]
    b_fns: tuple[ScopedFn, ...]
    plan: ElimPlan
    fn_vars: tuple[tuple[FnVar, ...], ...]
    constraints: tuple[Constraint, ...] = ()

    @property
    def rounds(self) -> tuple[ElimRound, ...]:
        return self.plan.rounds


def tie_row(block: TagBlock, i: int, j: int) -> Constraint:
    """Entry ``j`` of weighted summand ``i`` equals w_i times its value."""
    value = block.c_fns[i].table[j]
    return make_constraint("eq", [(block.fn_vars[i][j], Fraction(-1)), (Weight(i), value)], 0)


def pin_row(block: TagBlock, k: int, j: int) -> Constraint | None:
    """Entry ``j`` of constant summand ``k`` equals its value; ``None``
    when that value is minus infinity, which leaves the entry unpinned."""
    value = block.b_fns[k].table[j]
    if not value.is_finite:
        return None
    var = block.fn_vars[len(block.c_fns) + k][j]
    return make_constraint("eq", [(var, Fraction(1))], value.unwrap())


def dominance_row(block: TagBlock, r: int, j: int) -> Constraint:
    """Round ``r``'s replacement dominates its dependents' sum at point ``j``."""
    plan = block.plan
    rnd = plan.rounds[r]
    coefs = [(block.fn_vars[plan.inputs + r][j // plan.dims[rnd.var]], Fraction(-1))]
    for s, g in zip(rnd.dependents, rnd.gather):
        coefs.append((block.fn_vars[s][g[j]], Fraction(1)))
    return make_constraint("le", coefs, 0)


def summary_row(block: TagBlock) -> Constraint:
    """The constants left after the last round sum to at most phi."""
    coefs = [(block.fn_vars[s][0], Fraction(1)) for s in block.plan.final]
    coefs.append((PHI, Fraction(-1)))
    return make_constraint("le", coefs, 0)


def min_lp(
    dims: tuple[int, ...],
    tag: Tag,
    c_fns: tuple[ScopedFn, ...],
    b_fns: tuple[ScopedFn, ...],
    order: tuple[int, ...],
    plan: ElimPlan | None = None,
) -> TagBlock:
    """Build the constraint block for one tag.

    ``c_fns`` carry rational tables and enter scaled by their weight;
    ``b_fns`` carry extended-real tables and enter additively, with a
    minus-infinity entry simply leaving its variable unpinned.  ``plan``,
    when given, must have been built for summands shaped like these.
    """
    if plan is None:
        plan = ElimPlan.build((*c_fns, *b_fns), order, dims)
    ids = [FnId("c", i) for i in range(len(c_fns))] + [FnId("b", k) for k in range(len(b_fns))]
    ids += [FnId("e", rnd.var) for rnd in plan.rounds]
    fn_vars = tuple(
        tuple(FnVar(tag, fid, z) for z in assignments(scope, plan.dims))
        for fid, scope in zip(ids, plan.scopes)
    )
    block = TagBlock(tag, tuple(c_fns), tuple(b_fns), plan, fn_vars)
    rows = [tie_row(block, i, j) for i, c in enumerate(c_fns) for j in range(len(c.table))]
    for k, b in enumerate(b_fns):
        pins = (pin_row(block, k, j) for j in range(len(b.table)))
        rows.extend(row for row in pins if row is not None)
    for r, rnd in enumerate(plan.rounds):
        size = len(fn_vars[plan.inputs + r]) * plan.dims[rnd.var]
        rows.extend(dominance_row(block, r, j) for j in range(size))
    rows.append(summary_row(block))
    return replace(block, constraints=tuple(dict.fromkeys(rows)))


def branch_lp(
    mdp: FactoredMdp,
    t: PartialState,
    a: int,
    ts: tuple[PartialState, ...],
    order: tuple[int, ...],
) -> tuple[TagBlock, TagBlock]:
    """The mirrored pair of blocks for one branch, given the branch states
    claimed earlier in the list."""
    if not 0 <= a < len(mdp.actions):
        raise InvalidInputError(f"action index {a} out of range")
    diffs = difference_fns(mdp, t, a)
    rewards = tuple(instantiate(r, t).map_table(fin) for r in mdp.rewards[a])
    shadows = tuple(indicator_fns(ts, t, mdp.dims))
    pos_b = tuple(r.map_table(lambda v: -v if v.is_finite else v) for r in rewards) + shadows
    plan = ElimPlan.build(diffs + pos_b, order, mdp.dims)
    pos = min_lp(mdp.dims, Tag(t, a, True), diffs, pos_b, order, plan)
    neg_c = tuple(d.map_table(lambda q: -q) for d in diffs)
    neg = min_lp(mdp.dims, Tag(t, a, False), neg_c, rewards + shadows, order, plan)
    return pos, neg


def weight_lp_blocks(
    mdp: FactoredMdp, pol: DecisionList, order: tuple[int, ...] | None = None
) -> tuple[TagBlock, ...]:
    if order is None:
        order = identity_order(len(mdp.dims))
    blocks: list[TagBlock] = []
    earlier: list[PartialState] = []
    for branch in pol.branches:
        pos, neg = branch_lp(mdp, branch.t, branch.action, tuple(earlier), order)
        blocks.extend((pos, neg))
        earlier.append(branch.t)
    return tuple(blocks)


def weight_lp(
    mdp: FactoredMdp, pol: DecisionList, order: tuple[int, ...] | None = None
) -> Lp:
    """The full program: minimize phi over the union of every branch block."""
    return assemble_lp(weight_lp_blocks(mdp, pol, order))


def assemble_lp(blocks: tuple[TagBlock, ...]) -> Lp:
    cons: list[Constraint] = []
    seen: set[Constraint] = set()
    for block in blocks:
        for con in block.constraints:
            if con not in seen:
                seen.add(con)
                cons.append(con)
    return Lp(tuple(cons), PHI)
