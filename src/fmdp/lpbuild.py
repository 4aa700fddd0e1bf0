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
without enumerating the assignments.  Each input function gets one
variable per point of its scope, tied down by equalities (tie rows for
weighted summands, pin rows for constant ones); each round's replacement
gets a function variable whose dominance rows bound every one-variable
extension of its dependents; a summary row says the surviving constants
sum to at most phi.  A block that is only priced never builds rows.
``assemble_lp`` emits every block's rows, in that order, in one pass
straight into standard form: a private variable is a column number in
one integer array per plan slot, and each block's ``Placed`` record keeps
those arrays and the row at each table entry or round point, through
which ``fmdp.weights`` fills its primal and lifts its dual.  Names (the
``FnVar`` columns and ``weight_lp``'s named rows) are made only when
read, to write an LP or certificate file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import prod
from typing import NamedTuple, Sequence

from .elim import ElimPlan, ElimRound, identity_order
from .errors import InvalidInputError
from .factored import PartialState, ScopedFn, assignments, instantiate
from .lp import PHI, Deferred, FnId, FnVar, Lp, LpVar, StdLp, Tag, Weight, named_lp
from .model import FactoredMdp
from .policy import DecisionList
from .values import NEG_INF, fin

__all__ = ["TagBlock", "min_lp", "branch_lp", "weight_lp_blocks", "weight_lp"]
__all__ += ["indicator_fns", "difference_fns", "Placed", "FullLp", "assemble_lp"]


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
    seen: set[tuple[PartialState, int]] = set()
    for branch in pol.branches:
        if (branch.t, branch.action) in seen:
            continue
        seen.add((branch.t, branch.action))
        pos, neg = branch_lp(mdp, branch.t, branch.action, tuple(earlier), order)
        blocks.extend((pos, neg))
        earlier.append(branch.t)
    result = tuple(blocks)
    mdp._cache["blocks"] = (key, result)
    return result


def weight_lp(
    mdp: FactoredMdp, pol: DecisionList, order: tuple[int, ...] | None = None
) -> Lp:
    """The full program, named: minimize phi over the union of every
    branch block."""
    return named_lp(assemble_lp(weight_lp_blocks(mdp, pol, order)), PHI)


class Placed(NamedTuple):
    """Where one block sits in the full standard form: per plan slot, the
    column of each table entry and the row of each entry (``None`` for an
    unpinned one) or, for a round's slot, of each point; an equality's row
    is its first half.  ``summary`` is the block's last row."""

    cols: tuple[list[int], ...]
    rows: tuple[tuple[int | None, ...], ...]
    summary: int


@dataclass(frozen=True)
class FullLp(StdLp):
    """The full program's standard form, its columns named on first read,
    with the column of every weight (``None`` if no row has it) and the
    place of every block."""

    weight_cols: tuple[int | None, ...] = field(compare=False, repr=False)
    placed: tuple[Placed, ...] = field(compare=False, repr=False)


def _slot_ids(block: TagBlock) -> list[FnId]:
    ids = [FnId("c", i) for i in range(len(block.c_fns))]
    ids += [FnId("b", k) for k in range(len(block.b_fns))]
    return ids + [FnId("e", rnd.var) for rnd in block.plan.rounds]


def assemble_lp(blocks: tuple[TagBlock, ...]) -> FullLp:
    """The blocks' rows, block after block, straight in standard form.

    Per block: ties, pins, each round's dominance rows, the summary row.
    Columns are numbered as ``to_standard_form`` numbers the named program:
    phi first, then each variable at its first appearance, reading every
    row in the canonical variable order (a weight before private variables;
    those by kind b, c, e, then index), so ``to_standard_form(named_lp(...))``
    rebuilds these very rows.  Private variables carry their block's tag,
    so no row appears in two blocks.
    """
    one, minus, zero = Fraction(1), Fraction(-1), Fraction(0)
    rows: list[tuple[tuple[int, Fraction], ...]] = []
    rhs: list[Fraction] = []
    produced: list[tuple[int, ...]] = []
    weight_cols: list[int | None] = []
    placed: list[Placed] = []
    n = 1  # the next free column; phi holds column 0

    def col(s: int, e: int) -> int:
        nonlocal n
        if cols[s][e] < 0:
            cols[s][e], n = n, n + 1
        return cols[s][e]

    def equality(row, negated, b) -> int:
        k = len(rows)
        rows.extend((row, negated))
        rhs.extend((b, -b if b else zero))
        produced.append((k, k + 1))
        return k

    def inequality(terms, j: int, row: list) -> int:
        """After ``row``, each (slot, entry at each point, coefficient) term at point j."""
        k = len(rows)
        row += [(col(s, at[j]), coef) for s, at, coef in terms]
        rows.append(tuple(sorted(row)))
        rhs.append(zero)
        produced.append((k,))
        return k

    for block in blocks:
        plan, nc = block.plan, len(block.c_fns)
        weight_cols += [None] * (nc - len(weight_cols))
        cols = tuple([-1] * prod(plan.dims[v] for v in scope) for scope in plan.scopes)
        index: list[tuple[int | None, ...]] = []
        for i, c in enumerate(block.c_fns):
            ties = []
            for e, q in enumerate(c.table):
                if q and weight_cols[i] is None:
                    weight_cols[i], n = n, n + 1
                j, w = col(i, e), weight_cols[i]
                if q:
                    ties.append(equality(((w, q), (j, minus)), ((w, -q), (j, one)), zero))
                else:
                    ties.append(equality(((j, minus),), ((j, one),), zero))
            index.append(tuple(ties))
        for s, b in enumerate(block.b_fns, nc):
            pins = (
                equality(((col(s, e), one),), ((col(s, e), minus),), v.unwrap()) if v.is_finite else None
                for e, v in enumerate(b.table)
            )
            index.append(tuple(pins))
        # Every private variable of the block shares its tag, so the
        # canonical order of a row's terms is their slots' (kind, index).
        key = [(fid.kind, fid.idx) for fid in _slot_ids(block)]
        for r, rnd in enumerate(plan.rounds):
            slot, card = plan.inputs + r, plan.dims[rnd.var]
            points = range(len(cols[slot]) * card)
            terms = [(slot, [j // card for j in points], minus)]
            terms += [(s, g, one) for s, g in zip(rnd.dependents, rnd.gather)]
            terms.sort(key=lambda term: key[term[0]])
            # A round nothing depends on has one row, -e <= 0, for all its points.
            dominance = tuple(inequality(terms, j, []) for j in (points if rnd.dependents else (0,)))
            index.append(dominance * (1 if rnd.dependents else card))
        final = [(s, (0,), one) for s in sorted(plan.final, key=key.__getitem__)]
        placed.append(Placed(cols, tuple(index), inequality(final, 0, [(0, minus)])))

    def names() -> list[LpVar]:
        out: list[LpVar] = [PHI] * n
        for i, w in enumerate(weight_cols):
            if w is not None:
                out[w] = Weight(i)
        for block, at in zip(blocks, placed):
            slots = zip(_slot_ids(block), block.plan.scopes, at.cols)
            for fid, scope, slot_cols in slots:
                for z, j in zip(assignments(scope, block.plan.dims), slot_cols):
                    out[j] = FnVar(block.tag, fid, z)
        return out

    return FullLp(
        Deferred(n, names),
        tuple(rows),
        tuple(rhs),
        ((0, one),),
        tuple(produced),
        tuple(weight_cols),
        tuple(placed),
    )
