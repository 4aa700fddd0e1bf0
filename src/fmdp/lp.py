"""Linear program data model shared by the builder, solver, and checkers.

A program has one representation, ``StdLp``: `minimize x_0 subject to
A x <= b` with free x and sparse rational rows, the only shape the
simplex and the certificate checkers speak.  Column 0 is the objective
variable, so the objective vector is always the unit vector e_0 and no
program stores it.  Columns are named by three kinds of variables: the
objective scalar phi, one weight per basis function, and private function
variables introduced by the factored construction; a program read from a
file names them by their ``str`` tokens.  Private variables carry a tag
naming the branch and sign half they belong to, so rows from different
branches never share them.

Every producer numbers its own columns.  An equality is two adjacent
rows, the second negated.  The program reader (``fmdp.lpio.read_lp``)
and the oracle's explicit program (``fmdp.oracle.explicit_weight_lp``)
add their rows through ``StdRows``, whose negated row shares one
``Fraction`` per distinct coefficient object, so a program whose rows
share coefficients makes one negation per distinct number.  The builder
(``fmdp.lpbuild.assemble_lp``) writes its rows itself and names its
columns only on first read (``Deferred``); the weight fit's master
(``fmdp.weights``) has inequalities only.  The dual convention is fixed
once for the whole package: the dual of `min x_0, A x <= b` is
`max -b^T y, A^T y = -e_0, y >= 0`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Union

from .factored import PartialState

__all__ = [
    "Phi",
    "PHI",
    "Weight",
    "Tag",
    "FnId",
    "FnVar",
    "LpVar",
    "StdLp",
    "Deferred",
    "StdRows",
    "Optimal",
    "Infeasible",
    "Unbounded",
    "Certificate",
]


@dataclass(frozen=True, slots=True)
class Phi:
    """The objective scalar; a single shared instance is enough."""


PHI = Phi()


@dataclass(frozen=True, slots=True)
class Weight:
    i: int


@dataclass(frozen=True, slots=True)
class Tag:
    """Identity of one factored-LP invocation: branch state, action, sign."""

    t: PartialState
    action: int
    pos: bool


@dataclass(frozen=True, slots=True)
class FnId:
    """Which function a private variable tabulates.

    kind "c" with a basis index, "b" with a summand index, or "e" with the
    variable eliminated in the round that created it.
    """

    kind: str
    idx: int


@dataclass(frozen=True, slots=True)
class FnVar:
    """One private variable: entry ``z`` of function ``fn`` in block ``tag``.

    The hash is computed once, at construction, since column lookups hash
    every variable many times.  ``str`` hashes are salted per process, so
    the stored value is only valid in the process that built it; an
    ``FnVar`` never crosses a process (files name variables by token).
    """

    tag: Tag
    fn: FnId
    z: PartialState
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.tag, self.fn, self.z)))

    def __hash__(self) -> int:
        return self._hash


LpVar = Union[Phi, Weight, FnVar, str]


@dataclass(frozen=True)
class StdLp:
    """`minimize x_0 subject to A x <= b`, x free, rows sparse.

    ``constraint_rows[k]`` lists the row indices produced by the k-th input
    constraint (one for an inequality, two adjacent for an equality), which
    lets duals built against the input constraints translate to row space.
    ``columns`` names each column; it and ``constraint_rows`` may each be a
    ``Deferred`` tuple.  ``col_of`` inverts ``columns`` on first read.
    """

    columns: Sequence[LpVar]
    rows: tuple[tuple[tuple[int, Fraction], ...], ...]
    rhs: tuple[Fraction, ...]
    constraint_rows: Sequence[tuple[int, ...]]

    @cached_property
    def col_of(self) -> dict[LpVar, int]:
        return {v: j for j, v in enumerate(self.columns)}

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    @property
    def num_cols(self) -> int:
        return len(self.columns)


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

    An equality adds its row and then the negated row.  The negation of each
    coefficient object is made once: ``rows`` and ``rhs`` keep every
    coefficient object alive, so its id names it; keying by value would hash
    each ``Fraction``, a modular inverse each.
    """

    def __init__(self) -> None:
        self.rows: list[tuple[tuple[int, Fraction], ...]] = []
        self.rhs: list[Fraction] = []
        self.constraint_rows: list[tuple[int, ...]] = []
        self._negated: dict[int, Fraction] = {}

    def add(self, kind: str, sparse: tuple[tuple[int, Fraction], ...], rhs: Fraction) -> None:
        """Add one constraint, its terms ``sparse`` sorted by column."""
        k = len(self.rows)
        self.rows.append(sparse)
        self.rhs.append(rhs)
        if kind == "eq":
            negated = self._negated
            for _, q in ((0, rhs), *sparse):
                if id(q) not in negated:
                    negated[id(q)] = -q
            self.rows.append(tuple([(j, negated[id(q)]) for j, q in sparse]))
            self.rhs.append(negated[id(rhs)])
            self.constraint_rows.append((k, k + 1))
        else:
            self.constraint_rows.append((k,))

    def std(self, columns: Sequence[LpVar]) -> StdLp:
        return StdLp(columns, tuple(self.rows), tuple(self.rhs), tuple(self.constraint_rows))


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
