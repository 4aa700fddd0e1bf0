"""Partial states and scoped functions over a factored state space.

A state of a factored model assigns a value index to every variable; a
partial state assigns values to an explicit subset of variables and is the
basic currency of everything downstream (transition scopes, decision-list
branches, LP constraint indices).  A scoped function stores the variables it
reads together with a dense table, one entry per assignment to the scope.

Table layout convention, used identically by ``assignments`` and every table
in the package: assignments are enumerated in mixed-radix order with the
lowest variable index as the most significant digit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

__all__ = [
    "PartialState",
    "ScopedFn",
    "EMPTY_STATE",
    "restrict",
    "consistent",
    "instantiate",
    "assignments",
]


@dataclass(frozen=True, slots=True)
class PartialState:
    """An assignment of value indices to an explicit set of variables.

    ``items`` holds (variable, value) pairs in strictly ascending variable
    order, so equality and hashing are structural and two states with the
    same assignments always compare equal.
    """

    items: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        for (u, _), (v, _) in zip(self.items, self.items[1:]):
            if u >= v:
                raise ValueError(f"variables out of order or repeated: {self.items!r}")

    @classmethod
    def of(cls, assignment: Mapping[int, int] | Iterable[tuple[int, int]]) -> "PartialState":
        pairs = assignment.items() if isinstance(assignment, Mapping) else assignment
        return cls(tuple(sorted(pairs)))

    @property
    def domain(self) -> tuple[int, ...]:
        return tuple(v for v, _ in self.items)

    def value(self, var: int) -> int:
        for v, val in self.items:
            if v == var:
                return val
        raise KeyError(var)

    def get(self, var: int) -> int | None:
        for v, val in self.items:
            if v == var:
                return val
        return None

    def override(self, other: "PartialState") -> "PartialState":
        """Merge, with entries of ``other`` winning wherever both assign."""
        merged = dict(self.items)
        merged.update(other.items)
        return PartialState(tuple(sorted(merged.items())))

    def __str__(self) -> str:
        return "{" + ", ".join(f"{v}={val}" for v, val in self.items) + "}"


EMPTY_STATE = PartialState(())


@dataclass(frozen=True, slots=True)
class ScopedFn:
    """A function of finitely many variables stored as a dense table.

    ``scope`` lists the variables the function reads, ascending; ``card``
    gives each scope variable's domain size.  ``table`` has one entry per
    scope assignment in the shared mixed-radix order.  An empty scope means
    a single constant entry.  The value type is whatever the caller stores
    (probability vectors, rationals, or rationals with ``None`` for minus
    infinity); the container is agnostic.
    """

    scope: tuple[int, ...]
    card: tuple[int, ...]
    table: tuple

    def __post_init__(self) -> None:
        if len(self.scope) != len(self.card):
            raise ValueError("scope and card lengths differ")
        if any(u >= v for u, v in zip(self.scope, self.scope[1:])):
            raise ValueError(f"scope out of order: {self.scope!r}")
        size = 1
        for c in self.card:
            if c <= 0:
                raise ValueError("scope variable with empty domain")
            size *= c
        if len(self.table) != size:
            raise ValueError(f"table has {len(self.table)} entries, scope needs {size}")

    @classmethod
    def constant(cls, value) -> "ScopedFn":
        return cls((), (), (value,))

    @classmethod
    def tabulate(
        cls,
        variables: Iterable[int],
        dims: Sequence[int],
        fn: Callable[[PartialState], object],
    ) -> "ScopedFn":
        """Build a function over ``variables`` by evaluating ``fn`` everywhere.

        ``dims`` is the per-variable domain size list of the ambient model.
        """
        scope = tuple(sorted(variables))
        card = tuple(dims[v] for v in scope)
        table = tuple(fn(x) for x in assignments(scope, dims))
        return cls(scope, card, table)

    def index_of(self, x: PartialState) -> int:
        """Mixed-radix table index of ``x``; requires scope ⊆ domain(x)."""
        idx = 0
        for var, c in zip(self.scope, self.card):
            idx = idx * c + x.value(var)
        return idx

    def __call__(self, x: PartialState):
        return self.table[self.index_of(x)]

    def map_table(self, fn: Callable) -> "ScopedFn":
        """Same scope, ``fn`` applied to every table entry."""
        return ScopedFn(self.scope, self.card, tuple(fn(v) for v in self.table))


def restrict(x: PartialState, variables: Iterable[int]) -> PartialState:
    """Drop every assignment outside ``variables``."""
    keep = set(variables)
    return PartialState(tuple(p for p in x.items if p[0] in keep))


def consistent(x: PartialState, t: PartialState) -> bool:
    """True iff ``x`` agrees with ``t`` on all of ``t``'s domain."""
    return restrict(x, t.domain) == t


def instantiate(f: ScopedFn, t: PartialState) -> ScopedFn:
    """Fix the variables of ``t`` inside ``f``, shrinking its scope.

    The result's scope is scope(f) minus domain(t), and evaluating it on any
    x equals evaluating f on x overridden by t wherever t assigns a scope
    variable.  States outside scope(f) in t are simply ignored.
    """
    bound = dict(t.items)
    if not any(v in bound for v in f.scope):
        return f
    keep_scope = tuple(v for v in f.scope if v not in bound)
    keep_card = tuple(c for v, c in zip(f.scope, f.card) if v not in bound)
    digit_ranges = [
        (bound[v],) if v in bound else range(c) for v, c in zip(f.scope, f.card)
    ]
    table = []
    for digits in itertools.product(*digit_ranges):
        idx = 0
        for c, d in zip(f.card, digits):
            idx = idx * c + d
        table.append(f.table[idx])
    return ScopedFn(keep_scope, keep_card, tuple(table))


def assignments(variables: Iterable[int], dims: Sequence[int]) -> list[PartialState]:
    """Every partial state with domain exactly ``variables``, in table order.

    The order is the package-wide mixed-radix one: the lowest variable index
    is the most significant digit, so the last variable cycles fastest.
    """
    scope = sorted(variables)
    ranges = [range(dims[v]) for v in scope]
    return [
        PartialState(tuple(zip(scope, digits)))
        for digits in itertools.product(*ranges)
    ]
