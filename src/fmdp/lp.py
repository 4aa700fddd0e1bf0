"""Linear program data model shared by the builder, solver, and checkers.

A program has one representation, ``StdLp``: `minimize x_0 subject to
A x <= b` with free x and sparse rational rows, the only shape the
simplex and the certificate checkers speak.  Column 0 is the objective
variable, so the objective vector is always the unit vector e_0 and no
program stores it.  Every column is named by its ``str`` token, the name
a program file gives it (``fmdp.lpio``), whichever producer made it.

Each row is integers over one positive row denominator: its columns in
ascending order, the numerators of its coefficients, the numerator of its
right-hand side, and the denominator, kept as four parallel per-row
tuples.  A row is in lowest terms, the gcd of its denominator and all its
numerators 1, and has no zero coefficient, so every rational row has
exactly one such form and two programs are equal exactly when their
rows are.  The simplex seeds its tableau from these ints as they stand
and the checkers sum them as they stand; ``StdLp.fraction_row`` renders a
row as ``Fraction``s for readers that want rationals.

Every producer numbers its own columns.  An equality is two adjacent
rows, the second negated; no producer lists the constraints, which
``StdLp.constraint_rows`` reads off the rows.  The program reader
(``fmdp.lpio.read_lp``) and the oracle's explicit program
(``fmdp.oracle.explicit_weight_lp``) add their rows through ``StdRows``,
which puts each rational row into this form once.  The builder
(``fmdp.lpbuild.assemble_lp``) and the weight fit's master
(``fmdp.weights``) write theirs straight from their integer tables; the
builder renders its column tokens only on first read (``Deferred``).
The builder and ``StdRows`` keep one numerator tuple per row shape.  The
dual convention is fixed once for the whole package: the dual of
`min x_0, A x <= b` is `max -b^T y, A^T y = -e_0, y >= 0`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import add
from typing import Callable, Iterable, Union

__all__ = [
    "StdLp",
    "Deferred",
    "StdRows",
    "Optimal",
    "Infeasible",
    "Unbounded",
    "Certificate",
]


@dataclass(frozen=True)
class StdLp:
    """`minimize x_0 subject to A x <= b`, x free, rows sparse.

    Row i reads `sum_k nums[i][k] * x[cols[i][k]] <= rhs[i]` with every
    number divided by ``dens[i] > 0``, in lowest terms with no zero
    numerator (see the module notes).  ``columns`` holds each column's
    token, and may be a ``Deferred`` tuple.  ``col_of`` inverts
    ``columns`` on first read, and ``constraint_rows`` derives the
    constraints from the rows.
    """

    columns: Sequence[str]
    cols: tuple[tuple[int, ...], ...]
    nums: tuple[tuple[int, ...], ...]
    rhs: tuple[int, ...]
    dens: tuple[int, ...]

    @cached_property
    def col_of(self) -> dict[str, int]:
        return {v: j for j, v in enumerate(self.columns)}

    @cached_property
    def constraint_rows(self) -> tuple[tuple[int, ...], ...]:
        """The rows of each constraint, in order: ``(k, k + 1)`` for an
        equality, a row followed by its negation (same columns and
        denominator, negated numerators and right-hand side), and ``(k,)``
        for every other row."""
        cols, nums, rhs, dens = self.cols, self.nums, self.rhs, self.dens
        out, k, m = [], 0, len(rhs)
        while k < m:
            j = k + 1
            same = j < m and rhs[j] == -rhs[k] and cols[j] == cols[k] and dens[j] == dens[k]
            out.append((k, j) if same and not any(map(add, nums[j], nums[k])) else (k,))
            k += len(out[-1])
        return tuple(out)

    @property
    def num_rows(self) -> int:
        return len(self.rhs)

    @property
    def num_cols(self) -> int:
        return len(self.columns)

    def fraction_row(self, i: int) -> tuple[tuple[tuple[int, Fraction], ...], Fraction]:
        """Row ``i`` as ``(column, coefficient)`` terms and its right-hand
        side, every number a ``Fraction``."""
        d = self.dens[i]
        terms = tuple((j, Fraction(n, d)) for j, n in zip(self.cols[i], self.nums[i]))
        return terms, Fraction(self.rhs[i], d)


class Deferred(Sequence):
    """A tuple made by ``make`` on first read; only its length is known
    before.  ``make`` is dropped once called, with all it holds."""

    def __init__(self, length: int, make: Callable[[], Iterable]) -> None:
        self._length, self._make = length, make

    @cached_property
    def items(self) -> tuple:
        items, self._make = tuple(self._make()), None
        return items

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, k):
        return self.items[k]

    def __iter__(self):
        return iter(self.items)

    def __eq__(self, other) -> bool:
        return isinstance(other, (tuple, Deferred)) and self.items == tuple(other)

    def __repr__(self) -> str:
        return repr(self.items)


class StdRows:
    """The rows of a standard form, added one input constraint at a time.

    ``add`` puts each rational row in lowest integer terms.  An equality
    adds its row and then the negated row, the two sharing one column
    tuple.  Equal numerator tuples are kept once, and so is the negation of
    each.
    """

    def __init__(self) -> None:
        self.cols: list[tuple[int, ...]] = []
        self.nums: list[tuple[int, ...]] = []
        self.rhs: list[int] = []
        self.dens: list[int] = []
        self._shapes: dict[tuple[int, ...], tuple[int, ...]] = {}
        self._negated: dict[tuple[int, ...], tuple[int, ...]] = {}

    def add(self, kind: str, sparse: Sequence[tuple[int, Fraction]], rhs: Fraction) -> None:
        """Add one constraint: rational terms ``sparse`` sorted by column,
        zero terms dropped here, and the right-hand side ``rhs``."""
        terms = [(j, *q.as_integer_ratio()) for j, q in sparse if q]
        cols, nums, dens = zip(*terms) if terms else ((), (), ())
        self.add_ratios(kind, cols, nums, dens, rhs.as_integer_ratio())

    def add_ratios(
        self,
        kind: str,
        cols: tuple[int, ...],
        nums: tuple[int, ...],
        dens: Sequence[int],
        rhs: tuple[int, int],
    ) -> None:
        """Add one constraint over the ascending columns ``cols``, the
        coefficient on ``cols[k]`` being ``nums[k] / dens[k]``, nonzero and
        in lowest terms with a positive denominator, as is the right-hand
        side's pair ``rhs``: over the lcm of the denominators the row is in
        lowest terms too."""
        r, rd = rhs
        den = lcm(rd, *dens)
        if den != 1:
            nums = tuple([n * (den // d) for n, d in zip(nums, dens)])
            r *= den // rd
        nums = self._shapes.setdefault(nums, nums)
        if kind == "eq":
            negated = self._negated.get(nums)
            if negated is None:
                negated = tuple([-n for n in nums])
                negated = self._negated[nums] = self._shapes.setdefault(negated, negated)
            self.cols += (cols, cols)
            self.nums += (nums, negated)
            self.rhs += (r, -r)
            self.dens += (den, den)
        else:
            self.cols.append(cols)
            self.nums.append(nums)
            self.rhs.append(r)
            self.dens.append(den)

    def std(self, columns: Sequence[str]) -> StdLp:
        return StdLp(
            columns,
            tuple(self.cols),
            tuple(self.nums),
            tuple(self.rhs),
            tuple(self.dens),
        )


def to_standard_form(std: StdLp) -> StdLp:
    return std  # perfbench still calls and traces it; it goes in ROADMAP item 2's revision


@dataclass(frozen=True)
class Optimal:
    primal: tuple[Fraction, ...]
    dual: tuple[Fraction, ...]


@dataclass(frozen=True)
class Infeasible:
    farkas: tuple[Fraction, ...]


@dataclass(frozen=True)
class Unbounded:
    point: tuple[Fraction, ...]
    ray: tuple[Fraction, ...]


Certificate = Union[Optimal, Infeasible, Unbounded]
