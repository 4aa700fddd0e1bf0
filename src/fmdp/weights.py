"""Weight fitting by cutting planes, certified against the full program.

The full program per branch block is far too wide to hand a dense solver,
but its projection onto (phi, w) is what actually matters.  So a small
master program over (phi, w) collects one cut per violated block per
round: pricing a block at the master optimum is an integer elimination
sweep over the block's own plan, and its argmax yields the affine
inequality the master was missing.  Blocks hold their summands as
integer tables over one denominator (``fmdp.lpbuild.TagBlock``), so
pricing, cuts, rows and the completion all read the same ints.  A dead
block (``TagBlock.live``), whose states earlier branches jointly claim,
is never priced; its rows are assembled, completed and checked like any
other's.  A box trust region keeps
the early masters bounded; whenever a box row carries positive dual
weight at convergence the box grows and pricing resumes, since a binding
box could be hiding the true optimum.

Convergence alone is not trusted.  Each block's elimination plan
(``fmdp.elim.ElimPlan``, built once by ``fmdp.lpbuild``) is the single
source of its schedule, and both halves of the certificate interpret it.
The finished point is lifted to a full primal solution from each
block's tables swept at w, as pricing sweeps them (``TagBlock.at``).
The last pricing round ran at the returned w and found no cut, so its
tables are kept and written as they are (``max_sum_decode`` hands them
back); only the dead blocks, which no round prices, are swept for the
completion.  Every value is then scaled to one denominator D fixed up
front: the lcm of phi's denominator and of lcm(w) times the lcm of the
blocks' denominators.
The filled vector is divided by the gcd of D and its numerators, down to
the least common denominator.  Unpinned (minus infinity) entries keep
pricing's stand-in -(2 * bound + 1), and that is enough for every
summary row, which reads the sweep's largest total.  If that total
meets no stand-in it is the block's price, which the last pricing round
found <= phi; if it meets one it is below -bound, so negative.  And
phi >= 0: the first branch has no indicator, so its mirrored
blocks sum to nu_w - Q_w^a and to the negation on the same non-empty set
of states, and one of the two maxima is >= 0.
The master duals are propagated backwards through the plan's rounds
along each cut's argmax path into a full dual vector, as numerators over
the lcm of the master duals' denominators.  Both vectors are
written by position: ``assemble_lp`` builds the complete standard form
directly, giving each plan slot of a block one run of columns and one
run of rows (``fmdp.lpbuild.Placed``), so the completion writes each
swept table as one slice, the lift asks ``Placed.credited`` for the row
of each entry or round point it reaches, and no variable is named on the
way.  The pair must then survive ``check_optimality`` on that standard
form, both as ``fmdp.certify.IntVector``s; anything less raises
``LpInternalError``.
Both become ``Fraction``s only for a traced certificate, one object per
distinct value.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Collection, Iterable, Mapping, Sequence

from .certify import IntVector, check_optimality
from .elim import max_sum_decode
from .errors import LpInternalError
from .factored import PartialState
from .lp import Optimal, StdLp
from .lp import to_standard_form  # perfbench's tracer patches it; goes in ROADMAP item 2's revision
from .lpbuild import FullLp, TagBlock, assemble_lp, weight_lp_blocks
from .model import FactoredMdp, Weights
from .policy import DecisionList
from .simplex import solve_lp

__all__ = ["update_weights"]

_INITIAL_BOX = 1024
_BOX_GROWTH = 16
_MAX_BOX_GROWTHS = 40
_MAX_ROUNDS = 10000


@dataclass(frozen=True)
class _Cut:
    """A block's cut at ``witness``: the master row
    `-phi + alpha.w <= -beta` as the standard form holds it, its columns,
    numerators, right-hand side numerator and denominator, in lowest terms
    (``fmdp.lp``), so two cuts say the same exactly when their rows are
    equal."""

    block_index: int
    witness: PartialState
    row: tuple[tuple[int, ...], tuple[int, ...], int, int]


def _cut_at(block_index: int, block: TagBlock, x: PartialState) -> _Cut:
    """The cut of ``block`` at the full state ``x``: its weighted summands'
    values there and the sum of its constant ones, over the block's
    denominator."""
    plan, values = block.plan, [v for _, v in x.items]
    at = [t[plan.entry(scope, values)] for t, scope in zip(block.c + block.b, plan.scopes)]
    nc = len(block.c)
    if None in at[nc:]:
        raise LpInternalError("cut witness passed through an excluded state")
    den, beta = block.den, sum(at[nc:])
    alpha = [(i + 1, n) for i, n in enumerate(at[:nc]) if n]
    g = gcd(den, beta, *(n for _, n in alpha))
    cols = (0, *(j for j, _ in alpha))
    nums = (-den // g, *(n // g for _, n in alpha))
    return _Cut(block_index, x, (cols, nums, -beta // g, den // g))


def _master_std(m: int, box: int, cuts: Collection[_Cut]) -> StdLp:
    """The master over columns `phi`, `w0`..`w<m-1>`: box rows `+-w_i <= box`,
    then `-phi + alpha.w <= -beta` per cut."""
    rows = [((i + 1,), q, box, 1) for i in range(m) for q in ((1,), (-1,))]
    rows += [cut.row for cut in cuts]
    cols, nums, rhs, dens = zip(*rows) if rows else ((), (), (), ())
    return StdLp(("phi", *(f"w{i}" for i in range(m))), cols, nums, rhs, dens)


def update_weights(
    mdp: FactoredMdp,
    pol: DecisionList,
    order: Sequence[int],
    *,
    trace: dict | None = None,
) -> tuple[Weights, Fraction]:
    """Best linear value weights for a fixed decision list.

    Returns the minimizing weights together with the optimal bound phi.
    The result is exact and certified; see the module notes for how.
    """
    m = len(mdp.basis)
    started = time.perf_counter()
    blocks = weight_lp_blocks(mdp, pol, order)

    cuts: dict[tuple, _Cut] = {}
    live = [(idx, block) for idx, block in enumerate(blocks) if block.live]
    # The swept tables of every live block, by index, from the last round
    # that found no cut: its w is the one returned, so the completion
    # writes them as they are.
    swept: dict[int, list] = {}

    def cut_above(w: Sequence[Fraction], floor: Fraction | None) -> bool:
        """Keep the cut of every live block whose price at ``w`` is above
        ``floor`` (any price is, when ``floor`` is ``None``); whether there
        was one."""
        found = False
        swept.clear()
        for idx, block in live:
            value, witness, swept[idx] = max_sum_decode(block.at(w), block.plan)
            if floor is None or value > floor:
                cut = _cut_at(idx, block, witness)
                cuts.setdefault(cut.row, cut)
                found = True
        if found:
            swept.clear()
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
    primal = _complete_primal(std, blocks, phi, w, swept)
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
        trace["certificate"] = Optimal(primal.fractions(), dual.fractions())
        trace["std"] = std
        trace["lp"] = std  # perfbench still reads this name; it goes in ROADMAP item 2's revision
    return w, phi


def _complete_primal(
    std: FullLp,
    blocks: Sequence[TagBlock],
    phi: Fraction,
    w: Sequence[Fraction],
    swept: Mapping[int, Sequence[Sequence[int]]] = {},
) -> IntVector:
    """The full primal as numerators over one denominator D: each block's
    summands at ``w`` swept once, as pricing sweeps them, and each slot's
    table written to its run of columns scaled to D; then all of it reduced
    to the least common denominator.  ``swept`` holds, by block index, the
    tables pricing already swept at ``w``; every other block is swept
    here, and every block's total is checked against phi."""
    lw = lcm(*(q.denominator for q in w))
    den = lcm(phi.denominator, lw * lcm(*{block.den for block in blocks}))
    top = phi.numerator * (den // phi.denominator)
    nums = [0] * std.num_cols
    nums[0] = top
    for q, col in zip(w, std.weight_cols):
        if col is not None:
            nums[col] = q.numerator * (den // q.denominator)
    for idx, (block, at) in enumerate(zip(blocks, std.placed)):
        tables = swept.get(idx)
        if tables is None:
            tables, _ = block.plan.sweep(block.at(w).tables)
        # ``TagBlock.at`` puts a block's tables over den * lcm(w).
        factor = den // (block.den * lw)
        if factor * sum(tables[s][0] for s in block.plan.final) > top:
            raise LpInternalError("completed block exceeds phi")
        for k, table in zip(at.cols, tables):
            nums[k : k + len(table)] = [n * factor for n in table]
    g = gcd(den, *nums)  # D is rarely the least denominator
    if g > 1:
        nums = [n // g for n in nums]
    return IntVector(nums, den // g)


def _lift_dual(
    std: FullLp,
    blocks: Sequence[TagBlock],
    cuts: Iterable[_Cut],
    cut_duals: Sequence[Fraction],
) -> IntVector:
    """Push each cut's dual weight back along its witness: through the
    summary row, down every round's dominance row at the witness, and onto
    the tie and pin rows of the input entries it reaches.  Every weight is
    a numerator over the lcm of the cut duals' denominators, so the lift
    adds ints only."""
    den = lcm(*(q.denominator for q in cut_duals))
    dual = [0] * std.num_rows

    for cut, q in zip(cuts, cut_duals):
        lam = q.numerator * (den // q.denominator)
        if lam == 0:
            continue
        block = blocks[cut.block_index]
        plan = block.plan
        at = std.placed[cut.block_index]
        x = [v for _, v in cut.witness.items]
        dual[at.summary] += lam
        demand: dict[int, int] = {s: lam for s in plan.final}
        for r in reversed(range(len(plan.rounds))):
            flow = demand.pop(plan.inputs + r, 0)
            if flow == 0:
                continue
            rnd = plan.rounds[r]
            j = plan.entry(rnd.scope_e, x) * plan.dims[rnd.var] + x[rnd.var]
            dual[at.credited(block, plan.inputs + r, j)] += flow
            for s in rnd.dependents:
                demand[s] = demand.get(s, 0) + flow
        for s, flow in demand.items():
            if flow == 0:
                continue
            k = at.credited(block, s, plan.entry(plan.scopes[s], x))
            if k is None:
                raise LpInternalError("dual flow reached an unpinned entry")
            dual[k] += flow
    return IntVector(dual, den)
