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
basis difference is tabulated once per model, one ``Fraction`` per
entry read off the integer tables of h_i and of the backprojection
(``FactoredMdp.g_int``), and only instantiated by the branch state, and
each indicator is written straight onto its leftover scope.
``fmdp.weights`` prices blocks for cuts and ``fmdp.error`` for the
Bellman error, both through ``TagBlock.at(w)``, which scales the tables
to the ``fmdp.elim.Scaled`` family the elimination kernel sweeps.
``weight_lp_blocks`` keeps the latest list's pairs in the model's cache,
so the error and the fit of one list share one build (the fit's call
returns the error's block tuple), and the next list takes every pair it
repeats from them: whole when the branch also repeats its earlier
states, else its summand tables, denominator and their plan scopes,
which depend only on the branch state and action.

A branch whose state extends an earlier built branch's state handles no
state and gets no blocks: it is no earlier state to the branches after
it, whose indicator for the state it extends already excludes every
state it would.  An empty list thus has no blocks, and is rejected.  A
branch whose states earlier branches claim only jointly keeps its pair
and rows, but the pair is dead (``TagBlock.live``): ``branch_lp`` finds
it priced to minus infinity once, at w = 0, and no pricing sweeps it.

As rows, a block's projection onto (phi, w) enforces
`sum_i w_i C_i(x) + sum_j B_j(x) <= phi` for every full assignment x
without enumerating the assignments.  Each input function gets one
variable per point of its scope, tied down by equalities (tie rows for
weighted summands, pin rows for constant ones); each round's replacement
gets a function variable whose dominance rows bound every one-variable
extension of its dependents; a summary row says the surviving constants
sum to at most phi.  A block that is only priced never builds rows.
``assemble_lp`` emits every block's rows, in that order, in one pass
straight into standard form, each row in lowest integer terms over its
own denominator (``fmdp.lp``), read off the block's integer tables with
no ``Fraction``.  Each plan slot of a block is one run of
columns, an entry per table entry, and one run of rows, so a block's
``Placed`` record holds only where each run starts; ``Placed.credited``
maps a (slot, entry or round point) to the row a dual lift credits.
``fmdp.weights`` writes its integer primal a slot at a time and lifts its
dual through that map.

The builder is the one producer of private column tokens
(`f<tag>_<slot>_<z>`, in the grammar of ``fmdp.lpio``'s notes).  It
renders every column's token only when the names are first read, to
write an LP or certificate file, the tag part widened from 8 hex digits
to 16 or 64 if two of the program's tags collide there.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import accumulate, product, repeat
from math import gcd, lcm, prod
from operator import mul, sub
from typing import NamedTuple, Sequence

from .elim import ElimPlan, ElimRound, Scaled, _gather, max_sum
from .errors import InvalidInputError, LpInternalError
from .factored import PartialState, ScopedFn, instantiate
from .lp import Deferred, StdLp
from .model import FactoredMdp
from .policy import DecisionList
from .values import over_one_den

__all__ = ["Tag", "TagBlock", "branch_lp", "weight_lp_blocks"]
__all__ += ["indicator_fns", "difference_fns", "Placed", "FullLp", "assemble_lp"]


@dataclass(frozen=True, slots=True)
class Tag:
    """Identity of one block: branch state, action, sign."""

    t: PartialState
    action: int
    pos: bool


@dataclass(frozen=True, slots=True)
class TagBlock:
    """Everything one tag contributes, as integer tables over one
    denominator ``den``: its weighted summands ``c``, its constant summands
    ``b`` (``None`` for minus infinity) and the elimination plan over both,
    weighted ones first.  ``c_max`` holds each weighted table's largest
    magnitude and ``b_max`` the sum of the constant tables' largest finite
    magnitudes.  ``live`` is false when every full state meets a ``None``,
    at every w alike; ``branch_lp`` decides it once per pair."""

    tag: Tag
    c: tuple[tuple[int, ...], ...]
    b: tuple[tuple[int | None, ...], ...]
    den: int
    plan: ElimPlan
    c_max: tuple[int, ...]
    b_max: int
    live: bool

    @classmethod
    def of(cls, tag: Tag, c: tuple, b: tuple, den: int, plan: ElimPlan, live=True) -> "TagBlock":
        """The block of these tables, with their largest magnitudes."""
        c_max = tuple(max(map(abs, t), default=0) for t in c)
        b_max = sum(max(map(abs, filter(None, t)), default=0) for t in b)
        return cls(tag, c, b, den, plan, c_max, b_max, live)

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
    tabulated once per model, over the union of the two scopes, from the
    integer tables of h_i and ``FactoredMdp.g_int`` (one ``Fraction`` per
    entry), and kept in its cache under ("diff", i, a)."""
    dims = mdp.dims
    p, q = mdp.discount.as_integer_ratio()
    out = []
    for i, h in enumerate(mdp.basis):
        key = ("diff", i, a)
        combined = mdp._cache.get(key)
        if combined is None:
            (hn,), h_den = over_one_den([h.table])
            g, g_den = mdp.g_int(i, a)
            den = q * lcm(h_den, g_den)
            scope = tuple(sorted({*h.scope, *g.scope}))
            hs = map(hn.__getitem__, _gather(h.scope, scope, dims))
            gs = map(g.table.__getitem__, _gather(g.scope, scope, dims))
            hs, gs = map((den // h_den).__mul__, hs), map((p * (den // q // g_den)).__mul__, gs)
            table = tuple(map(Fraction, map(sub, hs, gs), repeat(den)))
            combined = mdp._cache[key] = ScopedFn(scope, tuple(map(dims.__getitem__, scope)), table)
        out.append(instantiate(combined, t))
    return tuple(out)


def branch_lp(
    mdp: FactoredMdp,
    t: PartialState,
    a: int,
    ts: tuple[PartialState, ...],
    order: tuple[int, ...],
    like: tuple[TagBlock, TagBlock] | None = None,
) -> tuple[TagBlock, TagBlock]:
    """The mirrored pair of blocks for one branch, given the branch states
    claimed earlier in the list.  At weights w the positive block's
    summands sum to nu_w - Q_w^a on the branch's states and the negative
    block's to Q_w^a - nu_w; elsewhere some indicator is minus infinity.

    ``like``, a pair built for the same ``t`` and ``a`` under other
    earlier states and the same order, lends its weighted and reward
    tables, its denominator and their plan scopes, which depend on
    neither: only the indicators, the plan and the liveness are built."""
    if not 0 <= a < len(mdp.actions):
        raise InvalidInputError(f"action index {a} out of range")
    shadows = indicator_fns(ts, t, mdp.dims)
    s = tuple(f.table for f in shadows)
    if like is None:
        diffs = difference_fns(mdp, t, a)
        rewards = tuple(instantiate(r, t) for r in mdp.rewards[a])
        plan = ElimPlan.build((*diffs, *rewards, *shadows), order, mdp.dims)
        tables, den = over_one_den([f.table for f in (*diffs, *rewards)])
        c, r = tables[: len(diffs)], tables[len(diffs) :]
        pos = TagBlock.of(Tag(t, a, True), c, _negated(r) + s, den, plan)
        neg = TagBlock.of(Tag(t, a, False), _negated(c), r + s, den, plan)
    else:
        # The reward tables lead each block's constant summands, and the
        # indicators add nothing to ``b_max``.
        nr = len(mdp.rewards[a])
        scopes = like[0].plan.scopes[: len(like[0].c) + nr] + tuple(f.scope for f in shadows)
        plan = ElimPlan.over(scopes, order, mdp.dims)
        pos, neg = (replace(b, b=b.b[:nr] + s, plan=plan, live=True) for b in like)
    # Exclusions do not depend on w: the pair is dead exactly when it
    # prices to minus infinity at w = 0.
    if any(None in f for f in s) and max_sum(pos.at((Fraction(0),) * len(pos.c)), plan) is None:
        pos, neg = replace(pos, live=False), replace(neg, live=False)
    return pos, neg


def weight_lp_blocks(
    mdp: FactoredMdp, pol: DecisionList, order: Sequence[int]
) -> tuple[TagBlock, ...]:
    """The pair of blocks of every branch, in list order, but one whose
    state extends an earlier built branch's state.

    Such a branch (an exact repeat among them) handles no state and adds
    no blocks; a list with no branch covers no state and is invalid.

    The model's cache keeps the latest list's pairs and its order.  The
    error of each new greedy list is measured just before the weights are
    fitted to it, and consecutive lists mostly repeat their branches.  So
    under the same order a branch whose (t, action, earlier states) the
    latest list has takes that pair as it stands, and one whose
    (t, action) it has builds only its indicators, plan and liveness from
    that pair (``branch_lp``'s ``like``).  The fit's call, which gets the
    very list object the error's call just built under the same order,
    takes that call's blocks as they stand.
    """
    if not pol.branches:
        raise InvalidInputError("decision list covers no state at all")
    order = tuple(order)
    hit = mdp._cache.get("blocks")
    if hit is not None and hit[2] is pol and hit[0] == order:
        return hit[3]
    latest = hit[1] if hit is not None and hit[0] == order else {}
    # Both keys of a pair in one dict: (t, action, earlier) and (t, action).
    pairs: dict[tuple, tuple[TagBlock, TagBlock]] = {}
    blocks: list[TagBlock] = []
    earlier: list[PartialState] = []
    for branch in pol.branches:
        t, a = branch.t, branch.action
        items = set(t.items)
        if any(items.issuperset(tp.items) for tp in earlier):
            continue
        ts = tuple(earlier)
        pair = latest.get((t, a, ts))
        if pair is None:
            pair = branch_lp(mdp, t, a, ts, order, latest.get((t, a)))
        pairs[t, a, ts] = pairs[t, a] = pair
        blocks += pair
        earlier.append(t)
    built = tuple(blocks)
    mdp._cache["blocks"] = (order, pairs, pol, built)
    return built


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


def _digest(tag: Tag) -> str:
    """The SHA-256 hex digest of a tag's text."""
    items = ",".join(f"{v}:{val}" for v, val in tag.t.items)
    text = f"t={items};a={tag.action};pos={int(tag.pos)}"
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def _tag_digests(tags: Sequence[Tag]) -> dict[Tag, str]:
    """Each tag's digest cut to 8 hex digits, or to 16 or all 64 if two
    distinct tags collide at the narrower width."""
    full = {tag: _digest(tag) for tag in tags}
    for width in (8, 16, 64):
        cut = {tag: d[:width] for tag, d in full.items()}
        if len(set(cut.values())) == len(cut):
            return cut
    raise LpInternalError("tag digests collide at full width")


def _slot_names(block: TagBlock) -> list[str]:
    names = [f"c{i}" for i in range(len(block.c))]
    names += [f"b{k}" for k in range(len(block.b))]
    return names + [f"e{rnd.var}" for rnd in block.plan.rounds]


def _points(scope: tuple[int, ...], dims: Sequence[int]) -> list[str]:
    """The ``z`` part of the token of each entry of a table over ``scope``,
    in table order: `<var>.<value>` per variable, joined by `-`."""
    axes = [[f"{v}.{x}" for x in range(dims[v])] for v in sorted(scope)]
    return ["-".join(z) for z in product(*axes)]


def assemble_lp(blocks: tuple[TagBlock, ...]) -> FullLp:
    """The blocks' rows, block after block, straight in standard form.

    Per block: ties, pins, each round's dominance rows, the summary row.
    Phi is column 0.  A block first takes a column for each weight no
    earlier row has, then one run of columns per plan slot, slots in
    order, so every row lists its columns in ascending order: a weight
    before the block's runs, a round's dependents before its own slot, and
    a row's slots ascending.  Private variables carry their block's tag,
    so no row appears in two blocks.  Each row is written in lowest
    integer terms straight from the block's integer tables: a tie of
    weight coefficient n/den is the row ``(n, -den) / den`` divided by
    gcd(n, den), a pin of value n/den the row ``den * f <= n`` over den,
    divided likewise, and every other row has denominator 1.  Every column
    is one int object, the two rows of an equality share one column tuple,
    and rows of one shape share one numerator tuple.  Ties and pins are
    equalities, a row and its negation; ``StdLp.constraint_rows`` reads
    them back from the rows.
    """
    # Count the rows and columns first, so each row field and the column
    # ints are one list of final length: a list that regrows leaves holes
    # in the heap.
    sized = []
    m = 0
    for block in blocks:
        plan = block.plan
        sizes = [prod(plan.dims[v] for v in scope) for scope in plan.scopes]
        sized.append((block, sizes))
        m += 2 * sum(map(len, block.c)) + 2 * sum(len(b) - b.count(None) for b in block.b) + 1
        for slot, rnd in enumerate(plan.rounds, plan.inputs):
            m += sizes[slot] * plan.dims[rnd.var] if rnd.dependents else 1
    weights = {i for block in blocks for i, c in enumerate(block.c) if any(c)}
    # One int per column, shared by every row that names it.
    ids = list(range(1 + len(weights) + sum(sum(sizes) for _, sizes in sized)))
    cols: list = [None] * m
    nums: list = [None] * m
    rhs = [0] * m
    dens = [1] * m
    r = 0  # the next row
    width = 1  # the next column; phi is column 0
    weight_cols: list[int | None] = []
    placed: list[Placed] = []
    shapes: dict[tuple[int, ...], tuple[int, ...]] = {}

    def shared(t: tuple[int, ...]) -> tuple[int, ...]:
        return shapes.setdefault(t, t)

    minus_one, plus_one = shared((-1,)), shared((1,))
    # Per block denominator, per numerator n met so far: the numerator pair
    # and the denominator of its tie rows, and of its pin rows with their
    # right-hand sides.  A zero tie coefficient leaves ``-f <= 0, f <= 0``.
    by_den: dict[int, tuple[dict, dict]] = {}

    def tie(n: int) -> tuple:
        g = gcd(n, den)
        a, d = n // g, den // g
        got = ties[n] = ((shared((a, -d)), shared((-a, d))), d)
        return got

    def pin(n: int) -> tuple:
        g = gcd(n, den)
        a, d = n // g, den // g
        got = pins[n] = ((shared((d,)), shared((-d,))), (a, -a), d)
        return got

    for block, sizes in sized:
        plan, nc, den = block.plan, len(block.c), block.den
        ties, pins = by_den.setdefault(den, ({0: ((minus_one, plus_one), 1)}, {}))
        weight_cols += [None] * (nc - len(weight_cols))
        for i, c in enumerate(block.c):
            if weight_cols[i] is None and any(c):
                weight_cols[i], width = width, width + 1
        runs = tuple(accumulate(sizes[:-1], initial=width))
        width += sum(sizes)
        first: list[int] = []
        # An equality's two rows share one column tuple.
        for k, w, c in zip(runs, weight_cols, block.c):
            first.append(r)
            weight = None if w is None else ids[w]
            for j, n in zip(ids[k : k + len(c)], c):
                pair, d = ties.get(n) or tie(n)
                cols[r] = cols[r + 1] = (weight, j) if n else (j,)
                nums[r], nums[r + 1] = pair
                dens[r] = dens[r + 1] = d
                r += 2
        for k, b in zip(runs[nc:], block.b):
            first.append(r)
            for j, n in zip(ids[k : k + len(b)], b):
                if n is not None:
                    pair, sides, d = pins.get(n) or pin(n)
                    cols[r] = cols[r + 1] = (j,)
                    nums[r], nums[r + 1] = pair
                    rhs[r], rhs[r + 1] = sides
                    dens[r] = dens[r + 1] = d
                    r += 2
        for slot, rnd in enumerate(plan.rounds, plan.inputs):
            e = runs[slot]
            first.append(r)
            if rnd.dependents:
                # Point j's row: each dependent's entry there, then -1 on
                # the replacement's entry j // card.
                points = [
                    list(map(ids[runs[s] : runs[s] + sizes[s]].__getitem__, g))
                    for s, g in zip(rnd.dependents, rnd.gather)
                ]
                card = plan.dims[rnd.var]
                points.append([t for t in ids[e : e + sizes[slot]] for _ in range(card)])
                count = sizes[slot] * card
                cols[r : r + count] = zip(*points)
                nums[r : r + count] = repeat(shared((1,) * len(rnd.dependents) + (-1,)), count)
                r += count
            else:
                cols[r], nums[r] = (ids[e],), minus_one  # -e <= 0, for all the round's points
                r += 1
        placed.append(Placed(runs, tuple(first), r))
        cols[r] = (0, *(ids[runs[s]] for s in plan.final))
        nums[r] = shared((-1,) + (1,) * len(plan.final))
        r += 1

    def names() -> list[str]:
        out = ["phi"] * width
        for i, w in enumerate(weight_cols):
            if w is not None:
                out[w] = f"w{i}"
        digests = _tag_digests([block.tag for block in blocks])
        points: dict[tuple, list[str]] = {}
        for block, at in zip(blocks, placed):
            plan = block.plan
            for slot, scope, k in zip(_slot_names(block), plan.scopes, at.cols):
                zs = points.get((scope, plan.dims))
                if zs is None:
                    zs = points[scope, plan.dims] = _points(scope, plan.dims)
                head = f"f{digests[block.tag]}_{slot}_"
                out[k : k + len(zs)] = [head + z for z in zs]
        return out

    # One list at a time becomes its tuple and is dropped, so the peak
    # holds one spare copy of a row field, not four.
    cols = tuple(cols)
    nums = tuple(nums)
    rhs = tuple(rhs)
    dens = tuple(dens)
    return FullLp(
        Deferred(width, names),
        cols,
        nums,
        rhs,
        dens,
        tuple(weight_cols),
        tuple(placed),
    )
