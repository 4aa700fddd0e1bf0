"""The weight LP's blocks: the one summand family of each branch, read
as numbers by pricing and as rows by the full program.

A block holds one tag's scoped summands (built here only, by
``difference_fns`` and ``indicator_fns``) and their elimination plan
(``fmdp.elim.ElimPlan``).  Branch blocks come in mirrored pairs sharing
one plan: priced at w (``TagBlock.at``), the positive block sums to
nu_w - Q_w^a on the branch's states and the negative one to the
negation, while indicator summands send every state an earlier branch
claimed to minus infinity.  Neither kind is tabulated per branch: each
basis difference is tabulated once per model and only instantiated by
the branch state, and each indicator is written straight onto its
leftover scope.  ``fmdp.weights`` prices blocks for cuts and
``fmdp.error`` for the Bellman error; ``weight_lp_blocks`` keeps the
latest policy's blocks in the model's cache, so both share one build.

As rows, a block's projection onto (phi, w) enforces
`sum_i w_i C_i(x) + sum_j B_j(x) <= phi` for every full assignment x
without enumerating the assignments.  Rows and their private variables
are derived on first use, so a block that is only priced never pays for
them.  Each input function gets one variable per point of its scope,
tied down by equalities (tie rows for weighted summands, pin rows for
constant ones); each round's replacement gets a function variable whose
dominance rows bound every one-variable extension of its dependents; a
summary row says the surviving constants sum to at most phi.
``TagBlock.layout`` builds every row once, in that order, together with
a position index: per plan slot, the position of the row at each table
entry or round point.  ``fmdp.weights`` lifts its dual onto rows found
through that index, and ``assemble_lp`` only concatenates the blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import prod
from typing import Sequence

from .elim import ElimPlan, ElimRound, identity_order
from .errors import InvalidInputError
from .factored import PartialState, ScopedFn, assignments, instantiate
from .lp import PHI, Constraint, FnId, FnVar, Lp, Tag, Weight, make_constraint
from .model import FactoredMdp
from .policy import DecisionList
from .values import NEG_INF, fin

__all__ = ["TagBlock", "min_lp", "branch_lp", "weight_lp_blocks", "weight_lp"]
__all__ += ["indicator_fns", "difference_fns"]


@dataclass(frozen=True)
class TagBlock:
    """Everything one tag contributes: its weighted summands ``c_fns``
    (rational tables), its constant summands ``b_fns`` (extended-real
    tables) and the elimination plan over both, weighted ones first."""

    tag: Tag
    c_fns: tuple[ScopedFn, ...]
    b_fns: tuple[ScopedFn, ...]
    plan: ElimPlan

    @property
    def rounds(self) -> tuple[ElimRound, ...]:
        return self.plan.rounds

    def at(self, w: Sequence[Fraction]) -> list[ScopedFn]:
        """The summands with the weights fixed at ``w``, in plan order:
        each weighted summand scaled by its w_i, then the constant ones."""
        scaled = [c.map_table(lambda q, wi=wi: fin(wi * q)) for wi, c in zip(w, self.c_fns)]
        return scaled + list(self.b_fns)

    @cached_property
    def fn_vars(self) -> tuple[tuple[FnVar, ...], ...]:
        """One private variable per table entry of every plan slot."""
        ids = [FnId("c", i) for i in range(len(self.c_fns))]
        ids += [FnId("b", k) for k in range(len(self.b_fns))]
        ids += [FnId("e", rnd.var) for rnd in self.plan.rounds]
        return tuple(
            tuple(FnVar(self.tag, fid, z) for z in assignments(scope, self.plan.dims))
            for fid, scope in zip(ids, self.plan.scopes)
        )

    @cached_property
    def layout(self) -> tuple[tuple[Constraint, ...], tuple[tuple[int | None, ...], ...]]:
        """The block's rows (ties, pins, each round's dominance rows, the
        summary row), each built once, and per plan slot the position of
        the row at each table entry, or at each point for a round's slot.
        A minus-infinity pin entry has no row and indexes ``None``; a round
        nothing depends on has one row, ``-e <= 0``, for all of its points.
        """
        plan, fn_vars = self.plan, self.fn_vars
        one, minus = Fraction(1), Fraction(-1)
        rows: list[Constraint] = []
        index: list[tuple[int | None, ...]] = []

        def emit(kind: str, coefs: list, rhs: Fraction | int = 0) -> int:
            rows.append(make_constraint(kind, coefs, rhs))
            return len(rows) - 1

        for i, c in enumerate(self.c_fns):
            ties = (emit("eq", [(v, minus), (Weight(i), q)]) for v, q in zip(fn_vars[i], c.table))
            index.append(tuple(ties))
        for b, b_vars in zip(self.b_fns, fn_vars[len(self.c_fns) :]):
            pins = (
                emit("eq", [(v, one)], q.unwrap()) if q.is_finite else None
                for v, q in zip(b_vars, b.table)
            )
            index.append(tuple(pins))
        for rnd, e_vars in zip(plan.rounds, fn_vars[plan.inputs :]):
            card = plan.dims[rnd.var]
            if not rnd.dependents:
                index.append((emit("le", [(e_vars[0], minus)]),) * card)
                continue
            deps = [(fn_vars[s], g) for s, g in zip(rnd.dependents, rnd.gather)]
            dominance = (
                emit("le", [(e_vars[j // card], minus)] + [(vs[g[j]], one) for vs, g in deps])
                for j in range(len(e_vars) * card)
            )
            index.append(tuple(dominance))
        emit("le", [(fn_vars[s][0], one) for s in plan.final] + [(PHI, minus)])
        return tuple(rows), tuple(index)

    @property
    def constraints(self) -> tuple[Constraint, ...]:
        """The block's rows; the last is the summary row."""
        return self.layout[0]


def min_lp(
    dims: tuple[int, ...],
    tag: Tag,
    c_fns: tuple[ScopedFn, ...],
    b_fns: tuple[ScopedFn, ...],
    order: tuple[int, ...],
) -> TagBlock:
    """The block for one tag.

    ``c_fns`` carry rational tables and enter scaled by their weight;
    ``b_fns`` carry extended-real tables and enter additively, with a
    minus-infinity entry simply leaving its variable unpinned.
    """
    plan = ElimPlan.build((*c_fns, *b_fns), order, dims)
    return TagBlock(tag, tuple(c_fns), tuple(b_fns), plan)


def indicator_fns(
    ts: Sequence[PartialState], t: PartialState, dims: Sequence[int]
) -> list[ScopedFn]:
    """One exclusion function per earlier branch state, instantiated by ``t``.

    The function for t' is negative infinity exactly on assignments
    consistent with t' and zero elsewhere; instantiated by t, its scope is
    domain(t') minus domain(t), and it is written there directly: a single
    minus-infinity entry at t''s leftover values.  A t' subsumed by t yields
    the constant negative infinity (the whole branch is shadowed), a t'
    conflicting with t on some shared variable yields a function that is
    all-zero over its leftover scope.
    """
    bound = dict(t.items)
    zero = fin(0)
    out = []
    for tp in ts:
        leftover = [(v, val) for v, val in tp.items if v not in bound]
        scope = tuple(v for v, _ in leftover)
        card = tuple(dims[v] for v in scope)
        table = [zero] * prod(card)
        if all(bound.get(v, val) == val for v, val in tp.items):  # t' agrees with t
            idx = 0
            for c, (_, val) in zip(card, leftover):
                idx = idx * c + val
            table[idx] = NEG_INF
        out.append(ScopedFn(scope, card, tuple(table)))
    return out


def difference_fns(mdp: FactoredMdp, t: PartialState, a: int) -> tuple[ScopedFn, ...]:
    """The basis differences h_i - gamma * g_i^a instantiated by ``t``:
    the weighted summands of a branch's positive block.  Each difference is
    tabulated once per model, kept in its cache under ("diff", i, a)."""
    out = []
    for i, h in enumerate(mdp.basis):
        key = ("diff", i, a)
        combined = mdp._cache.get(key)
        if combined is None:
            g = mdp.g(i, a)
            combined = ScopedFn.tabulate(
                set(h.scope) | set(g.scope),
                mdp.dims,
                lambda x, h=h, g=g: h(x) - mdp.discount * g(x),
            )
            mdp._cache[key] = combined
        out.append(instantiate(combined, t))
    return tuple(out)


def branch_lp(
    mdp: FactoredMdp,
    t: PartialState,
    a: int,
    ts: tuple[PartialState, ...],
    order: tuple[int, ...],
) -> tuple[TagBlock, TagBlock]:
    """The mirrored pair of blocks for one branch, given the branch states
    claimed earlier in the list.  At weights w the positive block's
    summands sum to nu_w - Q_w^a on the branch's states and the negative
    block's to Q_w^a - nu_w; elsewhere some indicator is minus infinity."""
    if not 0 <= a < len(mdp.actions):
        raise InvalidInputError(f"action index {a} out of range")
    diffs = difference_fns(mdp, t, a)
    rewards = tuple(instantiate(r, t).map_table(fin) for r in mdp.rewards[a])
    shadows = tuple(indicator_fns(ts, t, mdp.dims))
    pos_b = tuple(r.map_table(lambda v: -v if v.is_finite else v) for r in rewards) + shadows
    plan = ElimPlan.build(diffs + pos_b, order, mdp.dims)
    neg_c = tuple(d.map_table(lambda q: -q) for d in diffs)
    pos = TagBlock(Tag(t, a, True), diffs, pos_b, plan)
    return pos, TagBlock(Tag(t, a, False), neg_c, rewards + shadows, plan)


def weight_lp_blocks(
    mdp: FactoredMdp, pol: DecisionList, order: tuple[int, ...] | None = None
) -> tuple[TagBlock, ...]:
    """The pair of blocks of every branch, in list order.

    A branch repeating an earlier (state, action) handles no state and adds
    no blocks.  The model's cache keeps only the latest (policy, order): the
    error of each new greedy policy is measured just before the weights are
    fitted to it, and both ask for the same blocks.
    """
    order = identity_order(len(mdp.dims)) if order is None else tuple(order)
    key = (pol, order)
    hit = mdp._cache.get("blocks")
    if hit is not None and hit[0] == key:
        return hit[1]
    blocks: list[TagBlock] = []
    earlier: list[PartialState] = []
    for branch in pol.branches:
        if Tag(branch.t, branch.action, True) in (block.tag for block in blocks):
            continue
        pos, neg = branch_lp(mdp, branch.t, branch.action, tuple(earlier), order)
        blocks.extend((pos, neg))
        earlier.append(branch.t)
    result = tuple(blocks)
    mdp._cache["blocks"] = (key, result)
    return result


def weight_lp(
    mdp: FactoredMdp, pol: DecisionList, order: tuple[int, ...] | None = None
) -> Lp:
    """The full program: minimize phi over the union of every branch block."""
    return assemble_lp(weight_lp_blocks(mdp, pol, order))


def assemble_lp(blocks: tuple[TagBlock, ...]) -> Lp:
    """The blocks' rows, block after block; private variables carry their
    block's tag, so no row appears in two blocks."""
    return Lp(tuple(con for block in blocks for con in block.constraints), PHI)
