"""The weight LP's blocks: the one summand family of each branch, read
as numbers by pricing and as rows by the full program.

A block holds one tag's summands (built here only, from
``difference_fns`` and ``indicator_fns``) and their elimination plan
(``fmdp.elim.ElimPlan``), each summand an integer table over the
block's one denominator, with minus infinity as ``None``: a basis
difference or reward is converted once, as it is built, and an
indicator is written as one.  Branch blocks come in mirrored pairs sharing one
plan and one denominator, the negative block's tables the negated ints
of the positive one's: priced at w, the positive block sums to
nu_w - Q_w^a on the branch's states and the negative one to the
negation, while indicator summands send every state an earlier branch
claimed to minus infinity.  Neither kind is tabulated per branch: each
basis difference is tabulated once per model and only instantiated by
the branch state, and each indicator is written straight onto its
leftover scope.  ``fmdp.weights`` prices blocks for cuts and
``fmdp.error`` for the Bellman error, both through ``TagBlock.at(w)``,
which scales the tables to the ``fmdp.elim.Scaled`` family the
elimination kernel sweeps; ``weight_lp_blocks`` keeps the latest
policy's blocks in the model's cache, so both share one build.

Only live branches get blocks.  A branch whose state extends an earlier
live branch's state handles no state: its blocks would price to minus
infinity at every w, so it gets none, and it is no earlier state to the
branches after it, whose indicator for the live state it extends already
excludes every state it would.  An empty list thus has no blocks, and is
rejected.

As rows, a block's projection onto (phi, w) enforces
`sum_i w_i C_i(x) + sum_j B_j(x) <= phi` for every full assignment x
without enumerating the assignments.  Each input function gets one
variable per point of its scope, tied down by equalities (tie rows for
weighted summands, pin rows for constant ones); each round's replacement
gets a function variable whose dominance rows bound every one-variable
extension of its dependents; a summary row says the surviving constants
sum to at most phi.  A block that is only priced never builds rows.
``assemble_lp`` emits every block's rows, in that order, in one pass
straight into standard form.  Each plan slot of a block is one run of
columns, an entry per table entry, and one run of rows, so a block's
``Placed`` record holds only where each run starts; ``Placed.credited``
maps a (slot, entry or round point) to the row a dual lift credits.
``fmdp.weights`` writes its integer primal a slot at a time and lifts its
dual through that map.
The ``FnVar`` column names are made only when read, to write an LP or
certificate file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, repeat
from math import lcm, prod
from operator import mul
from typing import NamedTuple, Sequence

from .elim import ElimPlan, ElimRound, Scaled, identity_order, int_tables
from .errors import InvalidInputError
from .factored import PartialState, ScopedFn, assignments, instantiate
from .lp import PHI, Deferred, FnId, FnVar, LpVar, StdLp, Tag, Weight
from .model import FactoredMdp
from .policy import DecisionList

__all__ = ["TagBlock", "branch_lp", "weight_lp_blocks"]
__all__ += ["indicator_fns", "difference_fns", "Placed", "FullLp", "assemble_lp"]


@dataclass(frozen=True, slots=True)
class TagBlock:
    """Everything one tag contributes, as integer tables over one
    denominator ``den``: its weighted summands ``c``, its constant summands
    ``b`` (``None`` for minus infinity) and the elimination plan over both,
    weighted ones first.  ``c_max`` holds each weighted table's largest
    magnitude and ``b_max`` the sum of the constant tables' largest finite
    magnitudes."""

    tag: Tag
    c: tuple[tuple[int, ...], ...]
    b: tuple[tuple[int | None, ...], ...]
    den: int
    plan: ElimPlan
    c_max: tuple[int, ...]
    b_max: int

    @classmethod
    def of(cls, tag: Tag, c: tuple, b: tuple, den: int, plan: ElimPlan) -> "TagBlock":
        """The block of these tables, with their largest magnitudes."""
        c_max = tuple(max(map(abs, t), default=0) for t in c)
        b_max = sum(max(map(abs, filter(None, t)), default=0) for t in b)
        return cls(tag, c, b, den, plan, c_max, b_max)

    @property
    def rounds(self) -> tuple[ElimRound, ...]:
        return self.plan.rounds

    def at(self, w: Sequence[Fraction]) -> Scaled:
        """The summands at ``w``, in plan order, over ``den * lcm(w)``:
        each weighted table scaled by its w_i, then the constant ones."""
        ratios = [q.as_integer_ratio() for q in w]
        scale = lcm(*(d for _, d in ratios))
        a = [n * (scale // d) for n, d in ratios]
        bound = sum(map(mul, map(abs, a), self.c_max)) + scale * self.b_max
        floor = -(2 * bound + 1)
        tables = [list(map(ai.__mul__, t)) for ai, t in zip(a, self.c)]
        for t in self.b:
            if None in t:
                tables.append([floor if n is None else n * scale for n in t])
            else:
                tables.append(t if scale == 1 else list(map(scale.__mul__, t)))
        return Scaled(tuple(tables), self.den * scale, bound)


def _negated(tables: Sequence[tuple[int, ...]]) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple([-n for n in t]) for t in tables)


def indicator_fns(
    ts: Sequence[PartialState], t: PartialState, dims: Sequence[int]
) -> list[ScopedFn]:
    """One exclusion function per earlier branch state, instantiated by ``t``.

    The function for t' is minus infinity (``None``) exactly on
    assignments consistent with t' and ``0`` elsewhere; instantiated by t,
    its scope is domain(t') minus domain(t), and it is written there
    directly: a single ``None`` entry at t''s leftover values.  A t'
    subsumed by t yields the constant ``None`` (the whole branch is
    shadowed, so ``weight_lp_blocks`` builds no such branch), a t'
    conflicting with t on some shared variable yields a function that is
    all-zero over its leftover scope.  A table of ``0`` and ``None`` is an
    integer table over any denominator, so blocks hold it as it is.
    """
    bound = dict(t.items)
    out = []
    for tp in ts:
        leftover = [(v, val) for v, val in tp.items if v not in bound]
        scope = tuple(v for v, _ in leftover)
        card = tuple(dims[v] for v in scope)
        table: list[int | None] = [0] * prod(card)
        if all(bound.get(v, val) == val for v, val in tp.items):  # t' agrees with t
            idx = 0
            for c, (_, val) in zip(card, leftover):
                idx = idx * c + val
            table[idx] = None
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
    rewards = tuple(instantiate(r, t) for r in mdp.rewards[a])
    shadows = indicator_fns(ts, t, mdp.dims)
    plan = ElimPlan.build((*diffs, *rewards, *shadows), order, mdp.dims)
    tables, den = int_tables([f.table for f in (*diffs, *rewards)])
    c, r = tables[: len(diffs)], tables[len(diffs) :]
    s = tuple(f.table for f in shadows)
    pos = TagBlock.of(Tag(t, a, True), c, _negated(r) + s, den, plan)
    return pos, TagBlock.of(Tag(t, a, False), _negated(c), r + s, den, plan)


def weight_lp_blocks(
    mdp: FactoredMdp, pol: DecisionList, order: tuple[int, ...] | None = None
) -> tuple[TagBlock, ...]:
    """The pair of blocks of every live branch, in list order.

    A branch whose state extends an earlier live branch's state (an exact
    repeat among them) handles no state and adds no blocks; a list with no branch
    covers no state and is invalid.  The model's cache keeps only the
    latest (policy, order): the error of each new greedy policy is measured
    just before the weights are fitted to it, and both ask for the same
    blocks.
    """
    if not pol.branches:
        raise InvalidInputError("decision list covers no state at all")
    order = identity_order(len(mdp.dims)) if order is None else tuple(order)
    key = (pol, order)
    hit = mdp._cache.get("blocks")
    if hit is not None and hit[0] == key:
        return hit[1]
    blocks: list[TagBlock] = []
    earlier: list[PartialState] = []
    for branch in pol.branches:
        pairs = set(branch.t.items)
        if any(pairs.issuperset(tp.items) for tp in earlier):
            continue
        blocks += branch_lp(mdp, branch.t, branch.action, tuple(earlier), order)
        earlier.append(branch.t)
    result = tuple(blocks)
    mdp._cache["blocks"] = (key, result)
    return result


class Placed(NamedTuple):
    """Where one block sits in the full standard form.  Plan slot ``s`` has
    one run of columns from ``cols[s]``, one per table entry in table order,
    and one run of rows from ``rows[s]``: two tie rows per entry of a
    weighted slot, two pin rows per finite entry of a constant slot, one
    dominance row per point of a round (one in all for a round nothing
    depends on).  ``summary`` is the block's last row."""

    cols: tuple[int, ...]
    rows: tuple[int, ...]
    summary: int

    def credited(self, block: TagBlock, s: int, j: int) -> int | None:
        """The row with -1 on slot ``s``'s entry ``j`` (for a round's slot,
        on its entry at point ``j``), the one a dual lift credits: a tie's
        first half, a pin's second, a dominance row; ``None`` for an
        unpinned entry."""
        nc, plan = len(block.c), block.plan
        if s < nc:
            return self.rows[s] + 2 * j
        if s < plan.inputs:
            b = block.b[s - nc]
            return None if b[j] is None else self.rows[s] + 2 * (j - b[:j].count(None)) + 1
        return self.rows[s] + (j if plan.rounds[s - plan.inputs].dependents else 0)


@dataclass(frozen=True)
class FullLp(StdLp):
    """The full program's standard form, its columns named on first read,
    with the column of every weight (``None`` if no row has it) and the
    place of every block."""

    weight_cols: tuple[int | None, ...] = field(compare=False, repr=False)
    placed: tuple[Placed, ...] = field(compare=False, repr=False)


def _slot_ids(block: TagBlock) -> list[FnId]:
    ids = [FnId("c", i) for i in range(len(block.c))]
    ids += [FnId("b", k) for k in range(len(block.b))]
    return ids + [FnId("e", rnd.var) for rnd in block.plan.rounds]


def assemble_lp(blocks: tuple[TagBlock, ...]) -> FullLp:
    """The blocks' rows, block after block, straight in standard form.

    Per block: ties, pins, each round's dominance rows, the summary row.
    Phi is column 0.  A block first takes a column for each weight no
    earlier row has, then one run of columns per plan slot, slots in
    order, so every row lists its columns in ascending order: a weight
    before the block's runs, a round's dependents before its own slot, and
    a row's slots ascending.  Private variables carry their block's tag,
    so no row appears in two blocks.  Every row holding a column with
    coefficient 1 (or -1) shares one term object for it, every tie
    coefficient and pin right-hand side n/den is one ``Fraction`` per
    distinct (n, den), and the rows of each constraint are listed only
    when read.
    """
    one, minus, zero = Fraction(1), Fraction(-1), Fraction(0)
    rows: list[tuple[tuple[int, Fraction], ...]] = []
    rhs: list[Fraction] = []
    halves = bytearray()  # per constraint, its row count: 2 for an equality
    weight_cols: list[int | None] = []
    placed: list[Placed] = []
    # The terms (column, 1) and (column, -1) of every column; phi is column 0.
    up: list[tuple[int, Fraction]] = [(0, one)]
    down: list[tuple[int, Fraction]] = [(0, minus)]
    # Per denominator, the Fraction n/den of every numerator n met so far.
    by_den: dict[int, dict[int, Fraction]] = {}

    def frac(n: int) -> Fraction:
        q = fracs.get(n)
        if q is None:
            q = fracs[n] = Fraction(n, den)
        return q

    def fresh(count: int) -> int:
        """The first of ``count`` new columns."""
        k = len(up)
        ids = list(range(k, k + count))  # one int per column, in both terms
        up.extend(zip(ids, repeat(one)))
        down.extend(zip(ids, repeat(minus)))
        return k

    def equality(row, negated, n: int) -> None:
        """The rows ``row <= n/den`` and ``negated <= -n/den``."""
        rows.extend((row, negated))
        rhs.extend((frac(n), frac(-n)))
        halves.append(2)

    for block in blocks:
        plan, nc, den = block.plan, len(block.c), block.den
        fracs = by_den.setdefault(den, {})
        weight_cols += [None] * (nc - len(weight_cols))
        for i, c in enumerate(block.c):
            if weight_cols[i] is None and any(c):
                weight_cols[i] = fresh(1)
        sizes = [prod(plan.dims[v] for v in scope) for scope in plan.scopes]
        cols = tuple(accumulate(sizes[:-1], initial=fresh(sum(sizes))))
        first: list[int] = []
        for k, w, c in zip(cols, weight_cols, block.c):
            first.append(len(rows))
            for j, n in enumerate(c, k):
                if n:
                    equality(((w, frac(n)), down[j]), ((w, frac(-n)), up[j]), 0)
                else:
                    equality((down[j],), (up[j],), 0)
        for k, b in zip(cols[nc:], block.b):
            first.append(len(rows))
            for j, n in enumerate(b, k):
                if n is not None:
                    equality((up[j],), (down[j],), n)
        for slot, rnd in enumerate(plan.rounds, plan.inputs):
            e = cols[slot]
            first.append(len(rows))
            if rnd.dependents:
                # Point j's row: each dependent's entry there, then -1 on
                # the replacement's entry j // card.
                terms = [
                    list(map(up[cols[s] : cols[s] + sizes[s]].__getitem__, g))
                    for s, g in zip(rnd.dependents, rnd.gather)
                ]
                card = plan.dims[rnd.var]
                terms.append([t for t in down[e : e + sizes[slot]] for _ in range(card)])
                rows.extend(zip(*terms))
            else:
                rows.append((down[e],))  # -e <= 0, for all the round's points
        placed.append(Placed(cols, tuple(first), len(rows)))
        rows.append((down[0], *(up[cols[s]] for s in plan.final)))
        inequalities = len(rows) - len(rhs)
        rhs.extend(repeat(zero, inequalities))
        halves.extend(repeat(1, inequalities))
    n = len(up)

    def names() -> list[LpVar]:
        out: list[LpVar] = [PHI] * n
        for i, w in enumerate(weight_cols):
            if w is not None:
                out[w] = Weight(i)
        for block, at in zip(blocks, placed):
            for fid, scope, k in zip(_slot_ids(block), block.plan.scopes, at.cols):
                for j, z in enumerate(assignments(scope, block.plan.dims), k):
                    out[j] = FnVar(block.tag, fid, z)
        return out

    def constraint_rows():
        k = 0
        for h in halves:
            yield tuple(range(k, k + h))
            k += h

    return FullLp(
        Deferred(n, names),
        tuple(rows),
        tuple(rhs),
        Deferred(len(halves), constraint_rows),
        tuple(weight_cols),
        tuple(placed),
    )
