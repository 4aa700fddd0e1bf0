"""Variable elimination over scoped functions, driven by one symbolic plan.

An ``ElimPlan`` is the elimination schedule of a function family along a
fixed variable order: per round, the variable removed, the slots of the
functions mentioning it, and the joint scope ``scope_e`` of their
replacement.  ``ElimPlan.over`` is the only place the schedule is
derived, from the inputs' scopes; ``ElimPlan.build`` checks a family of
inputs once and plans over their scopes, and ``fmdp.lpbuild`` calls
``over`` directly with scopes read off a plan it built before.  Each
round precomputes every dependent's integer table index at every point,
one tuple per distinct dependent scope, laid out from the scope's
strides, so interpreters index tables directly instead of assembling
partial states.  The interpreters:

* ``ElimPlan.sweep``, the numeric max-and-argmax pass over any values
  with ``+`` and ``<``;
* ``max_sum_decode``, the one pricing kernel: it takes a ``Scaled``
  family and its plan, sweeps the family's plain integers over one
  denominator, minus infinity (``None``, an assignment excluded by an
  indicator function) held as a stand-in below every finite total, and
  walks the argmax tables back into a maximizing state.  It also hands
  back every slot's swept table, which ``fmdp.weights`` keeps from its
  last pricing round to complete the primal; ``max_sum`` is its
  value-only case, the same sweep without the walk.
  ``fmdp.lpbuild.TagBlock.at``, which scales a block's integer tables
  to w, is the only producer of ``Scaled`` families;
* ``fmdp.lpbuild``, which reads each round as the dominance rows of a block;
* ``fmdp.weights``, which writes swept integer tables over one
  denominator into a primal solution and walks the rounds backwards to
  lift a dual one.

``explicit_max`` is the deliberately inefficient reference that enumerates
every full state of a ``ScopedFn`` family of rationals and ``None``;
tests hold the two implementations against each other.  All three return
a ``Fraction``, or ``None`` when every full state is excluded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Iterable, Sequence

from .errors import InvalidInputError
from .factored import PartialState, ScopedFn, assignments

__all__ = [
    "ElimRound",
    "ElimPlan",
    "Scaled",
    "max_sum",
    "max_sum_decode",
    "explicit_max",
    "identity_order",
    "min_degree_order",
]


def identity_order(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def min_degree_order(scopes: Iterable[Sequence[int]], n: int) -> tuple[int, ...]:
    """Greedy minimum-degree elimination order for the given scope family.

    Builds the interaction graph (variables adjacent when they share a
    scope), then repeatedly eliminates a variable with the fewest live
    neighbors, connecting those neighbors into a clique.  Ties break toward
    the lowest variable index, so the order is deterministic.
    """
    neighbors: dict[int, set[int]] = {v: set() for v in range(n)}
    for scope in scopes:
        for u in scope:
            for v in scope:
                if u != v:
                    neighbors[u].add(v)
    alive = set(range(n))
    order: list[int] = []
    while alive:
        v = min(alive, key=lambda u: (len(neighbors[u] & alive), u))
        order.append(v)
        clique = neighbors[v] & alive
        for u in clique:
            neighbors[u] |= clique - {u}
        alive.remove(v)
    return tuple(order)


def _index(point: Sequence[int], digits: Iterable[tuple[int, int]]) -> int:
    """Mixed-radix table index of ``point`` read at (position, radix) digits."""
    j = 0
    for axis, card in digits:
        j = j * card + point[axis]
    return j


def _gather(scope: tuple[int, ...], axes: tuple[int, ...], dims: Sequence[int]) -> tuple[int, ...]:
    """The table index over ``scope`` at every point over ``axes`` (a
    superset of ``scope``), points in table order: built one axis at a
    time from each variable's stride in ``scope``'s table."""
    strides = {}
    step = 1
    for v in reversed(scope):
        strides[v] = step
        step *= dims[v]
    out = [0]
    for v in axes:
        offsets = [x * strides.get(v, 0) for x in range(dims[v])]
        out = [j + k for j in out for k in offsets]
    return tuple(out)


@dataclass(frozen=True, slots=True)
class ElimRound:
    """One round: the variable removed, the slots of the functions it
    consumes, and the scope of their replacement.

    The round's points are the assignments to ``scope_e`` plus ``var`` in
    table order, ``var`` as the least significant digit: point ``j`` is
    entry ``j // dims[var]`` of the replacement with ``var`` set to
    ``j % dims[var]``.  ``gather[k][j]`` is the table entry of
    ``dependents[k]`` at point ``j``.
    """

    var: int
    dependents: tuple[int, ...]
    scope_e: tuple[int, ...]
    gather: tuple[tuple[int, ...], ...]


@dataclass(frozen=True, slots=True)
class ElimPlan:
    """The elimination schedule of a function family along one order.

    ``scopes`` holds the scope of every slot, inputs first, then one
    replacement per round; ``final`` lists the slots left over once every
    variable is gone, all of them constants whose sum is the maximum.
    """

    dims: tuple[int, ...]
    scopes: tuple[tuple[int, ...], ...]
    rounds: tuple[ElimRound, ...]
    final: tuple[int, ...]

    @property
    def inputs(self) -> int:
        return len(self.scopes) - len(self.rounds)

    @classmethod
    def build(
        cls, fns: Sequence[ScopedFn], order: Sequence[int], dims: Sequence[int]
    ) -> "ElimPlan":
        """Plan eliminating ``order`` from functions shaped like ``fns``.

        Only the scopes and cardinalities of ``fns`` are read, so the plan
        serves every family of the same shape.
        """
        dims = tuple(dims)
        n = len(dims)
        if sorted(order) != list(range(n)):
            raise InvalidInputError(f"order {tuple(order)!r} is not a permutation of 0..{n - 1}")
        for i, f in enumerate(fns):
            if any(v < 0 or v >= n for v in f.scope):
                raise InvalidInputError(f"function {i} scope {f.scope} leaves 0..{n - 1}")
            want = tuple(dims[v] for v in f.scope)
            if f.card != want:
                raise InvalidInputError(f"function {i} cardinalities {f.card} do not match {want}")
        return cls.over([f.scope for f in fns], order, dims)

    @classmethod
    def over(
        cls, scopes: Sequence[tuple[int, ...]], order: Sequence[int], dims: tuple[int, ...]
    ) -> "ElimPlan":
        """``build``'s plan for functions over ``scopes``, each with its
        variables' full domains, unchecked: for callers whose scopes come
        from a plan already built."""
        scopes = list(scopes)
        live = list(range(len(scopes)))
        rounds = []
        for var in order:
            dependents = tuple(s for s in live if var in scopes[s])
            scope_e = tuple(sorted({v for s in dependents for v in scopes[s]} - {var}))
            axes = scope_e + (var,)
            # Dependents often share a scope, and so a gather tuple.
            made = {sc: _gather(sc, axes, dims) for sc in dict.fromkeys(scopes[s] for s in dependents)}
            gather = tuple(made[scopes[s]] for s in dependents)
            live = [s for s in live if s not in dependents] + [len(scopes)]
            scopes.append(scope_e)
            rounds.append(ElimRound(var, dependents, scope_e, gather))
        return cls(dims, tuple(scopes), tuple(rounds), tuple(live))

    def entry(self, scope: Sequence[int], x: Sequence[int]) -> int:
        """Table index over ``scope`` of the full state with values ``x``."""
        return _index(x, [(v, self.dims[v]) for v in scope])

    def sweep(self, tables: Sequence[Sequence]) -> tuple[list[tuple], list[tuple[int, ...]]]:
        """Run every round over one value table per input slot.

        Values need ``+`` and ``<``, and ``0`` is the empty sum, so a round
        nothing depends on yields the constant ``0``.  Returns the table
        of every slot and, per round, the winning value of the eliminated
        variable at each entry of the replacement, the lowest on ties.
        """
        tables = list(tables)
        choices = []
        for rnd in self.rounds:
            card = self.dims[rnd.var]
            size = math.prod(self.dims[v] for v in rnd.scope_e)
            if not rnd.dependents:
                tables.append((0,) * size)
                choices.append((0,) * size)
                continue
            # The dependents' sum at every point, one dependent at a time.
            deps = zip(rnd.dependents, rnd.gather)
            s, g = next(deps)
            totals = list(map(tables[s].__getitem__, g))
            for s, g in deps:
                totals = list(map(add, totals, map(tables[s].__getitem__, g)))
            # ``max`` keeps the first of equal values, ``index`` finds it.
            groups = [totals[j : j + card] for j in range(0, size * card, card)]
            values = tuple(map(max, groups))
            tables.append(values)
            choices.append(tuple(map(list.index, groups, values)))
        return tables, choices


@dataclass(frozen=True, slots=True)
class Scaled:
    """A function family as integer tables over one positive denominator,
    in the slot order of the plan it is swept along; its one producer
    is ``fmdp.lpbuild.TagBlock.at``.

    Entry ``e`` of input slot ``s`` stands for ``tables[s][e] / den``.
    Minus infinity is the stand-in ``-(2 * bound + 1)``, where ``bound``
    is at least the sum over slots of each table's largest finite
    magnitude.  Every value a sweep forms is a sum of one entry per input
    slot below it, so a sum of finite entries is ``>= -bound`` and a sum
    meeting a stand-in is ``< -bound``: excluded totals stay below every
    finite one, and the maximum is minus infinity exactly when it is
    below ``-bound``.
    """

    tables: tuple[Sequence[int], ...]
    den: int
    bound: int


def max_sum(family: Scaled, plan: ElimPlan) -> Fraction | None:
    """Maximum over all full states of the sum of ``family``'s functions,
    ``None`` (minus infinity) exactly when every full state is excluded;
    the value ``max_sum_decode`` returns, swept without the decode."""
    return _total(family, plan, plan.sweep(family.tables)[0])


def _total(family: Scaled, plan: ElimPlan, tables: Sequence[Sequence[int]]) -> Fraction | None:
    """The sum of a swept family's final constants, ``None`` below ``-bound``."""
    total = sum(tables[s][0] for s in plan.final)
    return Fraction(total, family.den) if total >= -family.bound else None


def max_sum_decode(
    family: Scaled, plan: ElimPlan
) -> tuple[Fraction | None, PartialState, list[Sequence[int]]]:
    """The maximum of ``family`` along ``plan``, a full state attaining
    it, and the table of every slot the sweep formed (``ElimPlan.sweep``).

    ``plan`` must have been built for functions shaped like ``family``'s
    slots.  Walking the rounds backwards, each eliminated variable takes
    its recorded winner (the lowest value on ties) given the variables
    eliminated after it.  When the maximum is ``None`` the returned state
    is still a valid full state (every state is equally excluded, so an
    arbitrary consistent choice is fine).
    """
    tables, choices = plan.sweep(family.tables)
    x = [0] * len(plan.dims)
    for rnd, choice in zip(reversed(plan.rounds), reversed(choices)):
        x[rnd.var] = choice[plan.entry(rnd.scope_e, x)]
    return _total(family, plan, tables), PartialState(tuple(enumerate(x))), tables


def explicit_max(fs: Sequence[ScopedFn], dims: Sequence[int]) -> Fraction | None:
    """Brute-force maximum over every full state; the oracle for ``max_sum``.
    A state where some table reads ``None`` is excluded; ``None`` if all are."""
    best = None
    for x in assignments(range(len(dims)), dims):
        values = [f(x) for f in fs]
        if None not in values:
            total = sum(values, Fraction(0))
            if best is None or best < total:
                best = total
    return best
