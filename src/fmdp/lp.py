"""Linear program data model shared by the builder, solver, and checkers.

Constraints are sparse rational rows over three kinds of variables: the
objective scalar phi, one weight per basis function, and private function
variables introduced by the factored construction.  Private variables carry
a tag naming the branch and sign half they belong to, so unions of
constraint sets from different branches never share them.  A row names
each variable at most once; ``make_constraint`` checks this, never merges.

``to_standard_form`` flattens a constraint list to `minimize x_0 subject
to A x <= b` with free x, the only shape the simplex and the certificate
checkers speak.  Column 0 is the objective variable in every standard
form, so the objective vector is always the unit vector e_0 and no
program stores it.  Equalities become two adjacent rows (``StdRows``);
the negated row shares one ``Fraction`` per distinct coefficient object,
so a program whose rows share coefficients makes one negation per
distinct number.  The dual convention is fixed once for the whole
package: the dual of `min x_0, A x <= b` is `max -b^T y, A^T y = -e_0,
y >= 0`.

Code that numbers its own columns emits the standard form directly: the
builder (``fmdp.lpbuild.assemble_lp``), which names its columns only on
first read (``Deferred``), and the program reader (``fmdp.lpio.read_lp``).
``named_lp`` is the inverse of ``to_standard_form``: the program it names
keeps the form it came from, so ``to_standard_form(named_lp(std, o)) is
std`` and its constraints are made only if someone reads them.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import itemgetter
from typing import Callable, Iterable, Mapping, Union

from .factored import PartialState

__all__ = [
    "Phi",
    "PHI",
    "Weight",
    "Tag",
    "FnId",
    "FnVar",
    "LpVar",
    "Constraint",
    "make_constraint",
    "Lp",
    "StdLp",
    "Deferred",
    "column_order",
    "StdRows",
    "to_standard_form",
    "named_lp",
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


def _var_key(v: LpVar):
    if type(v) is str:
        return (3, v)
    if isinstance(v, Phi):
        return (0, 0)
    if isinstance(v, Weight):
        return (1, v.i)
    if isinstance(v, FnVar):
        return (
            2,
            (v.tag.t.items, v.tag.action, v.tag.pos, v.fn.kind, v.fn.idx, v.z.items),
        )
    return (3, str(v))


@dataclass(frozen=True, slots=True)
class Constraint:
    """A single row: sum of coef * var `kind` rhs, kind "le" or "eq".

    Coefficients are stored zero-free, one per variable, canonically ordered,
    so two constraints are structurally equal exactly when they say the same.
    """

    kind: str
    coefs: tuple[tuple[LpVar, Fraction], ...]
    rhs: Fraction


def make_constraint(
    kind: str,
    coefs: Mapping[LpVar, Fraction] | Iterable[tuple[LpVar, Fraction]],
    rhs: Fraction | int,
) -> Constraint:
    """The row without its zero terms; ``ValueError`` on an unknown kind or
    on a variable named twice, whatever its coefficients."""
    if kind not in ("le", "eq"):
        raise ValueError(f"constraint kind {kind!r}")
    # Lists and tuples, as ``named_lp`` passes, skip the ABC check.
    if not isinstance(coefs, (list, tuple)) and isinstance(coefs, Mapping):
        coefs = coefs.items()
    keyed = sorted(((_var_key(v), v, q) for v, q in coefs), key=itemgetter(0))
    for (key, v, _), (next_key, _, _) in zip(keyed, keyed[1:]):
        if key == next_key:
            raise ValueError(f"repeated variable {v!r}")
    if type(rhs) is not Fraction:
        rhs = Fraction(rhs)
    return Constraint(kind, tuple((v, q) for _, v, q in keyed if q != 0), rhs)


@dataclass(frozen=True)
class Lp:
    """Ordered constraints plus the variable to minimize.  ``std``, set only
    by ``named_lp``, is the standard form the constraints are named from."""

    constraints: Sequence[Constraint]
    objective: LpVar
    std: StdLp | None = field(default=None, compare=False, repr=False)


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


def column_order(lp: Lp) -> dict[LpVar, int]:
    """The column of every variable: the objective takes column 0 and the
    rest follow in order of first appearance across the constraint list."""
    col_of: dict[LpVar, int] = {lp.objective: 0}
    for con in lp.constraints:
        for v, _ in con.coefs:
            if v not in col_of:
                col_of[v] = len(col_of)
    return col_of


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


def to_standard_form(lp: Lp) -> StdLp:
    """Flatten to inequality form, columns in ``column_order``; a program
    ``named_lp`` made returns the standard form it was named from."""
    if lp.std is not None:
        return lp.std
    col_of = column_order(lp)
    out = StdRows()
    for con in lp.constraints:
        out.add(con.kind, tuple(sorted((col_of[v], q) for v, q in con.coefs)), con.rhs)
    return out.std(tuple(col_of))


def named_lp(std: StdLp, objective: LpVar) -> Lp:
    """The program ``std`` is the standard form of, named by its columns
    (``objective`` is column 0); an equality is read off its first row.
    Rows are named on first read of the constraints; until then only their
    count is known.  The program keeps ``std`` as its ``std`` field."""

    def constraints():
        cols = std.columns
        for produced in std.constraint_rows:
            k = produced[0]
            kind = "eq" if len(produced) == 2 else "le"
            yield make_constraint(kind, [(cols[j], q) for j, q in std.rows[k]], std.rhs[k])

    return Lp(Deferred(len(std.constraint_rows), constraints), objective, std)


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
