"""Weight fitting by cutting planes, certified against the full program.

The full program per branch block is far too wide to hand a dense solver,
but its projection onto (phi, w) is what actually matters.  So a small
master program over (phi, w) collects one cut per violated block per
round: pricing a block at the master optimum is a numeric elimination
sweep over the block's own plan, and its argmax yields the affine
inequality the master was missing.  A box trust region keeps the early
masters bounded; whenever a box row carries positive dual weight at
convergence the box grows and pricing resumes, since a binding box could
be hiding the true optimum.

Convergence alone is not trusted.  Each block's elimination plan
(``fmdp.elim.ElimPlan``, built once by ``fmdp.lpbuild``) is the single
source of its schedule, and both halves of the certificate interpret it.
The finished point is lifted to a full primal solution by one sweep of
each plan over exact rationals.  Unpinned (minus infinity) entries take
the stand-in -reach, with reach = |phi| + 1 + each summand's largest
finite magnitude at w: an assignment meeting a stand-in totals at most
-|phi| - 1, any other totals its priced value, which the last pricing
round found <= phi, so every summary row holds.  The master
duals are propagated backwards through the plan's rounds along each
cut's argmax path into a full dual vector.  Both vectors are written by
position: ``assemble_lp`` builds the complete standard form directly and
records, per block and plan slot, the column of every entry and the row
at every entry or round point (``fmdp.lpbuild.Placed``), so no variable
is named on the way.  The pair must then survive ``check_optimality`` on
that standard form; anything less raises ``LpInternalError``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Collection, Iterable, Sequence

from .certify import check_optimality
from .elim import identity_order, max_sum_decode
from .errors import LpInternalError
from .factored import PartialState
from .lp import PHI, Optimal, StdLp, Weight, named_lp
from .lp import to_standard_form  # unused here; perfbench/tracer.py patches this name
from .lpbuild import FullLp, TagBlock, assemble_lp, weight_lp_blocks
from .model import FactoredMdp, Weights
from .policy import DecisionList
from .simplex import solve_lp
from .values import ExtReal, ext_sum, fin

__all__ = ["update_weights"]

_INITIAL_BOX = Fraction(1024)
_BOX_GROWTH = 16
_MAX_BOX_GROWTHS = 40
_MAX_ROUNDS = 10000


@dataclass(frozen=True)
class _Cut:
    block_index: int
    witness: PartialState
    alpha: tuple[Fraction, ...]
    beta: Fraction


def _price(block: TagBlock, w: Sequence[Fraction], order, dims) -> tuple[ExtReal, PartialState]:
    return max_sum_decode(block.at(w), order, dims, block.plan)


def _cut_at(block_index: int, block: TagBlock, x: PartialState) -> _Cut:
    alpha = tuple(c(x) for c in block.c_fns)
    total = ext_sum(b(x) for b in block.b_fns)
    if not total.is_finite:
        raise LpInternalError("cut witness passed through an excluded state")
    return _Cut(block_index, x, alpha, total.unwrap())


def _master_std(m: int, box: Fraction, cuts: Collection[_Cut]) -> StdLp:
    """The master over columns (phi, w_0..w_{m-1}): box rows `+-w_i <= box`,
    then `-phi + alpha.w <= -beta` per cut."""
    one, minus = Fraction(1), Fraction(-1)
    rows = [((i + 1, q),) for i in range(m) for q in (one, minus)]
    rows += [((0, minus), *((i + 1, a) for i, a in enumerate(c.alpha) if a != 0)) for c in cuts]
    rhs = (box,) * (2 * m) + tuple(-c.beta for c in cuts)
    columns = (PHI, *(Weight(i) for i in range(m)))
    singles = tuple((k,) for k in range(len(rows)))
    return StdLp(columns, tuple(rows), rhs, ((0, one),), singles)


def update_weights(
    mdp: FactoredMdp,
    pol: DecisionList,
    order: Sequence[int] | None = None,
    *,
    trace: dict | None = None,
) -> tuple[Weights, Fraction]:
    """Best linear value weights for a fixed decision list.

    Returns the minimizing weights together with the optimal bound phi.
    The result is exact and certified; see the module notes for how.
    """
    if order is None:
        order = identity_order(len(mdp.dims))
    order = tuple(order)
    dims = mdp.dims
    m = len(mdp.basis)
    started = time.perf_counter()
    blocks = weight_lp_blocks(mdp, pol, order)

    cuts: dict[tuple, _Cut] = {}

    def consider(idx: int, witness: PartialState) -> None:
        cut = _cut_at(idx, blocks[idx], witness)
        cuts.setdefault((cut.alpha, cut.beta), cut)

    zero = tuple(Fraction(0) for _ in range(m))
    for idx, block in enumerate(blocks):
        value, witness = _price(block, zero, order, dims)
        if value.is_finite:
            consider(idx, witness)
    if not cuts:
        raise LpInternalError("no branch block admits any state")

    box = _INITIAL_BOX
    growths = 0
    rounds = 0
    pivots = 0
    while True:
        rounds += 1
        if rounds > _MAX_ROUNDS:
            raise LpInternalError("cut generation failed to converge")
        master_std = _master_std(m, box, cuts.values())
        stats: dict = {}
        cert = solve_lp(master_std, stats)
        pivots += stats["pivots"]
        if not isinstance(cert, Optimal):
            raise LpInternalError(f"master program came back {type(cert).__name__}")
        if not check_optimality(master_std, cert.primal, cert.dual):
            raise LpInternalError("master certificate failed verification")
        phi, w = cert.primal[0], cert.primal[1:]
        # Two blocks may yield one new cut; a cut the master holds is never violated.
        known, violated = len(cuts), False
        for idx, block in enumerate(blocks):
            value, witness = _price(block, w, order, dims)
            if value > fin(phi):
                consider(idx, witness)
                violated = True
        if violated:
            if len(cuts) == known:
                raise LpInternalError("violated blocks repeated existing cuts")
            continue
        box_binding = any(cert.dual[r] > 0 for r in range(2 * m))
        if box_binding:
            growths += 1
            if growths > _MAX_BOX_GROWTHS:
                raise LpInternalError("trust region kept binding after repeated growth")
            box *= _BOX_GROWTH
            continue
        cut_duals = tuple(cert.dual[2 * m + k] for k in range(len(cuts)))
        break

    std = assemble_lp(blocks)
    primal = _complete_primal(std, blocks, phi, w)
    dual = _lift_dual(std, blocks, cuts.values(), cut_duals)
    lp_seconds = time.perf_counter() - started
    if not check_optimality(std, primal, dual):
        raise LpInternalError("assembled certificate failed verification")
    if trace is not None:
        trace["rounds"] = rounds
        trace["cuts"] = len(cuts)
        trace["box_growths"] = growths
        trace["pivots"] = pivots
        trace["blocks"] = len(blocks)
        trace["lp_rows"] = std.num_rows
        trace["lp_cols"] = std.num_cols
        trace["lp_seconds"] = lp_seconds
        trace["certificate"] = Optimal(primal, dual)
        trace["std"] = std
        trace["lp"] = named_lp(std, PHI)
    return w, phi


def _block_tables(
    block: TagBlock, w: Sequence[Fraction], phi: Fraction
) -> list[tuple[Fraction, ...]]:
    """Exact values for every private variable of one block, one table
    per plan slot, from a single sweep.

    Entries that the program leaves unpinned take a stand-in far below
    everything finite (see the module notes for why one sweep suffices).
    """
    reach = abs(phi) + 1
    for wi, c in zip(w, block.c_fns):
        reach += max((abs(wi * q) for q in c.table), default=Fraction(0))
    for b in block.b_fns:
        reach += max((abs(v.unwrap()) for v in b.table if v.is_finite), default=Fraction(0))
    stand_in = -reach
    weighted = [tuple(wi * q for q in c.table) for wi, c in zip(w, block.c_fns)]
    pinned = [tuple(v.unwrap() if v.is_finite else stand_in for v in b.table) for b in block.b_fns]
    tables, _ = block.plan.sweep(weighted + pinned, Fraction(0))
    if sum((tables[s][0] for s in block.plan.final), Fraction(0)) > phi:
        raise LpInternalError("completed block exceeds phi")
    return tables


def _complete_primal(
    std: FullLp,
    blocks: Sequence[TagBlock],
    phi: Fraction,
    w: Sequence[Fraction],
) -> tuple[Fraction, ...]:
    primal = [Fraction(0)] * std.num_cols
    primal[0] = phi
    for wi, col in zip(w, std.weight_cols):
        if col is not None:
            primal[col] = wi
    for block, at in zip(blocks, std.placed):
        for cols, table in zip(at.cols, _block_tables(block, w, phi)):
            for col, value in zip(cols, table):
                primal[col] = value
    return tuple(primal)


def _lift_dual(
    std: FullLp,
    blocks: Sequence[TagBlock],
    cuts: Iterable[_Cut],
    cut_duals: Sequence[Fraction],
) -> tuple[Fraction, ...]:
    """Push each cut's dual weight back along its witness: through the
    summary row, down every round's dominance row at the witness, and onto
    the tie and pin rows of the input entries it reaches."""
    dual = [Fraction(0)] * std.num_rows

    for cut, lam in zip(cuts, cut_duals):
        if lam == 0:
            continue
        block = blocks[cut.block_index]
        plan = block.plan
        at = std.placed[cut.block_index]
        x = [v for _, v in cut.witness.items]
        dual[at.summary] += lam
        demand: dict[int, Fraction] = {s: lam for s in plan.final}
        for r in reversed(range(len(plan.rounds))):
            flow = demand.pop(plan.inputs + r, Fraction(0))
            if flow == 0:
                continue
            rnd = plan.rounds[r]
            j = plan.entry(rnd.scope_e, x) * plan.dims[rnd.var] + x[rnd.var]
            dual[at.rows[plan.inputs + r][j]] += flow
            for s in rnd.dependents:
                demand[s] = demand.get(s, Fraction(0)) + flow
        for s, flow in demand.items():
            if flow == 0:
                continue
            k = at.rows[s][plan.entry(plan.scopes[s], x)]
            if k is None:
                raise LpInternalError("dual flow reached an unpinned entry")
            # The half with coefficient -1 on the entry: a tie's first, a pin's second.
            dual[k + int(s >= len(block.c_fns))] += flow
    return tuple(dual)
