"""Weight fitting by cutting planes, certified against the full program.

The full program per branch block is far too wide to hand a dense solver,
but its projection onto (phi, w) is what actually matters.  So a small
master program over (phi, w) collects one cut per violated block per
round: pricing a block at the master optimum is an integer elimination
sweep over the block's own plan, and its argmax yields the affine
inequality the master was missing; a block whose states earlier branches
all claim prices to ``None`` (minus infinity) and yields none.  Blocks
hold their summands as integer tables over one denominator
(``fmdp.lpbuild.TagBlock``), so pricing, cuts, rows and the completion
all read the same ints.  Only live branches have blocks, so every block
is priced and every block's rows are checked.  A box trust region keeps
the early masters bounded; whenever a box row carries positive dual
weight at convergence the box grows and pricing resumes, since a binding
box could be hiding the true optimum.

Convergence alone is not trusted.  Each block's elimination plan
(``fmdp.elim.ElimPlan``, built once by ``fmdp.lpbuild``) is the single
source of its schedule, and both halves of the certificate interpret it.
The finished point is lifted to a full primal solution by sweeping each
block once more at w, as pricing sweeps it (``TagBlock.at``), every
value then scaled to one denominator D fixed up front: the lcm of phi's
denominator and of lcm(w) times the lcm of the blocks' denominators.
The filled vector is divided by the gcd of D and its numerators, down to
the least common denominator.  Unpinned (minus infinity) entries keep
pricing's stand-in -(2 * bound + 1), and that is enough for every
summary row, which reads the sweep's largest total.  If that total
meets no stand-in it is the block's price, which the last pricing round
found <= phi; if it meets one it is below -bound, so negative.  And
phi >= 0: the first live branch has no indicator, so its mirrored
blocks sum to nu_w - Q_w^a and to the negation on the same non-empty set
of states, and one of the two maxima is >= 0.
The master duals are propagated backwards through the plan's rounds
along each cut's argmax path into a full dual vector.  Both vectors are
written by position: ``assemble_lp`` builds the complete standard form
directly, giving each plan slot of a block one run of columns and one
run of rows (``fmdp.lpbuild.Placed``), so the completion writes each
swept table as one slice, the lift asks ``Placed.credited`` for the row
of each entry or round point it reaches, and no variable is named on the
way.  The pair must then survive ``check_optimality`` on that standard
form, the primal as an ``fmdp.certify.IntVector``; anything less raises
``LpInternalError``.
The primal becomes ``Fraction``s only for a traced certificate, one
object per distinct value.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Collection, Iterable, Sequence

from .certify import IntVector, check_optimality
from .elim import identity_order, max_sum_decode
from .errors import LpInternalError
from .factored import PartialState
from .lp import PHI, Optimal, StdLp, Weight
from .lp import to_standard_form  # perfbench's tracer patches it; goes in ROADMAP item 2's revision
from .lpbuild import FullLp, TagBlock, assemble_lp, weight_lp_blocks
from .model import FactoredMdp, Weights
from .policy import DecisionList
from .simplex import solve_lp

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


def _cut_at(block_index: int, block: TagBlock, x: PartialState) -> _Cut:
    """The cut of ``block`` at the full state ``x``: its weighted summands'
    values there and the sum of its constant ones."""
    plan, values = block.plan, [v for _, v in x.items]
    at = [t[plan.entry(scope, values)] for t, scope in zip(block.c + block.b, plan.scopes)]
    nc = len(block.c)
    if None in at[nc:]:
        raise LpInternalError("cut witness passed through an excluded state")
    alpha = tuple(Fraction(n, block.den) for n in at[:nc])
    return _Cut(block_index, x, alpha, Fraction(sum(at[nc:]), block.den))


def _master_std(m: int, box: Fraction, cuts: Collection[_Cut]) -> StdLp:
    """The master over columns (phi, w_0..w_{m-1}): box rows `+-w_i <= box`,
    then `-phi + alpha.w <= -beta` per cut."""
    one, minus = Fraction(1), Fraction(-1)
    rows = [((i + 1, q),) for i in range(m) for q in (one, minus)]
    rows += [((0, minus), *((i + 1, a) for i, a in enumerate(c.alpha) if a != 0)) for c in cuts]
    rhs = (box,) * (2 * m) + tuple(-c.beta for c in cuts)
    columns = (PHI, *(Weight(i) for i in range(m)))
    singles = tuple((k,) for k in range(len(rows)))
    return StdLp(columns, tuple(rows), rhs, singles)


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

    def cut_above(w: Sequence[Fraction], floor: Fraction | None) -> bool:
        """Keep the cut of every block whose price at ``w`` is not ``None``
        and is above ``floor`` (any price is, when ``floor`` is ``None``);
        whether there was one."""
        found = False
        for idx, block in enumerate(blocks):
            value, witness = max_sum_decode(block.at(w), order, dims, block.plan)
            if value is not None and (floor is None or value > floor):
                cut = _cut_at(idx, block, witness)
                cuts.setdefault((cut.alpha, cut.beta), cut)
                found = True
        return found

    # The first branch's blocks exclude no state, so they always cut here.
    cut_above(tuple(Fraction(0) for _ in range(m)), None)

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
        known = len(cuts)
        if cut_above(w, phi):
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
        trace["certificate"] = Optimal(primal.fractions(), dual)
        trace["std"] = std
        trace["lp"] = std  # perfbench still reads this name; it goes in ROADMAP item 2's revision
    return w, phi


def _complete_primal(
    std: FullLp,
    blocks: Sequence[TagBlock],
    phi: Fraction,
    w: Sequence[Fraction],
) -> IntVector:
    """The full primal as numerators over one denominator D: each block's
    summands at ``w`` swept once, as pricing sweeps them, and each slot's
    table written to its run of columns scaled to D; then all of it reduced
    to the least common denominator."""
    lw = lcm(*(q.denominator for q in w))
    den = lcm(phi.denominator, lw * lcm(*{block.den for block in blocks}))
    top = phi.numerator * (den // phi.denominator)
    nums = [0] * std.num_cols
    nums[0] = top
    for q, col in zip(w, std.weight_cols):
        if col is not None:
            nums[col] = q.numerator * (den // q.denominator)
    for block, at in zip(blocks, std.placed):
        scaled = block.at(w)
        tables, _ = block.plan.sweep(scaled.tables, 0)
        factor = den // scaled.den
        if factor * sum(tables[s][0] for s in block.plan.final) > top:
            raise LpInternalError("completed block exceeds phi")
        for k, table in zip(at.cols, tables):
            nums[k : k + len(table)] = [n * factor for n in table]
    g = gcd(den, *nums)  # D is rarely the least denominator
    return IntVector([n // g for n in nums], den // g)


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
            dual[at.credited(block, plan.inputs + r, j)] += flow
            for s in rnd.dependents:
                demand[s] = demand.get(s, Fraction(0)) + flow
        for s, flow in demand.items():
            if flow == 0:
                continue
            k = at.credited(block, s, plan.entry(plan.scopes[s], x))
            if k is None:
                raise LpInternalError("dual flow reached an unpinned entry")
            dual[k] += flow
    return tuple(dual)
