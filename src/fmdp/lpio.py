"""Plain-text exchange formats for programs and certificates.

A program file holds one directive line `min <var>` followed by one line
per constraint: the kind (`le` or `eq`), whitespace-separated `var:coef`
terms, and the right-hand side; a row names each variable at most once.
Coefficients and sides are exact rationals.  Lines starting with `#` are
comments; the writer uses them to record the conventions a consumer needs:

  * rows are `sum coef*var  <=|==  rhs` over free variables,
  * the dual of `min c^T x, A x <= b` is `max -b^T y, A^T y = -c, y >= 0`,
  * an `eq` row expands to two adjacent standard rows, positive first, so
    certificate row indices count the expanded form in file order.

Variable tokens never contain whitespace or colons; the program reader
rejects a term or objective whose token has a colon, so every column it
names can be written back.  Internal variables render as `phi`, `w<i>`,
and `f<tag>_<fn>_<z>` where the tag part is a short hash of the branch
identity; readers treat every token as opaque.

A certificate file names its kind on the first directive line, then holds
labeled sections: `primal`, `point`, and `ray` entries are keyed by
variable token, `dual` and `farkas` entries by standard row index.
Omitted entries are zero; a section names each place at most once.

Both directions work on the standard form (``fmdp.lp.StdLp``).  The
writer names column 0 on the `min` line and writes each constraint's terms
in column order, an equality once, from the first of its two rows.  The
reader builds the standard form in one pass over the file, the objective
as column 0.  Both readers parse each distinct number token once per
file, and every occurrence of a token shares that one ``Fraction``;
omitted certificate entries share one zero.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from pathlib import Path
from typing import Collection, Iterable

from .errors import InvalidInputError, LpInternalError
from .lp import (
    Certificate,
    FnVar,
    Infeasible,
    LpVar,
    Optimal,
    Phi,
    StdLp,
    StdRows,
    Tag,
    Unbounded,
    Weight,
)
from .values import format_rational, parse_rational

__all__ = [
    "tag_digest",
    "variable_tokens",
    "write_lp",
    "read_lp",
    "write_certificate",
    "read_certificate",
]

_LP_HEADER = (
    "# rows: kind  var:coef ...  rhs   with kind le (<=) or eq (==), x free",
    "# dual convention: for min c^T x with A x <= b the dual is"
    " max -b^T y with A^T y = -c, y >= 0",
    "# eq rows expand to two adjacent standard rows, positive first",
)


def tag_digest(tag: Tag, length: int = 8) -> str:
    """Short stable identifier for a branch tag."""
    items = ",".join(f"{v}:{val}" for v, val in tag.t.items)
    text = f"t={items};a={tag.action};pos={int(tag.pos)}"
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:length]


def _token(v: LpVar, digests: dict[Tag, str]) -> str:
    if isinstance(v, Phi):
        return "phi"
    if isinstance(v, Weight):
        return f"w{v.i}"
    if isinstance(v, FnVar):
        z = "-".join(f"{var}.{val}" for var, val in v.z.items)
        return f"f{digests[v.tag]}_{v.fn.kind}{v.fn.idx}_{z}"
    token = str(v)
    if ":" in token or token.split() != [token]:
        raise InvalidInputError(f"variable token {token!r} is not writable")
    return token


def variable_tokens(variables: Collection[LpVar]) -> dict[LpVar, str]:
    """Map each variable to a unique token, widening the tag hash if two
    distinct tags ever collide at the default width."""
    tags = {v.tag for v in variables if isinstance(v, FnVar)}
    for tag_len in (8, 16, 64):
        digests = {t: tag_digest(t, tag_len) for t in tags}
        if len(set(digests.values())) == len(tags):
            break
    else:
        raise LpInternalError("tag digests collide at full width")
    out: dict[LpVar, str] = {}
    seen: dict[str, LpVar] = {}
    for v in variables:
        tok = _token(v, digests)
        if tok in seen and seen[tok] != v:
            raise LpInternalError(f"distinct variables share the token {tok}")
        out[v] = tok
        seen[tok] = v
    return out


def _column_tokens(std: StdLp) -> list[str]:
    tokens = variable_tokens(std.columns)
    return [tokens[v] for v in std.columns]


def _write_lines(path: str | Path, lines: list[str]) -> None:
    # Encoded before the file is opened, so text the readers would refuse
    # leaves no file behind.
    try:
        data = ("\n".join(lines) + "\n").encode("ascii")
    except UnicodeEncodeError as exc:
        raise InvalidInputError(f"cannot write {path}: not ascii text: {exc}") from exc
    try:
        Path(path).write_bytes(data)
    except OSError as exc:
        raise InvalidInputError(f"cannot write {path}: {exc}") from exc


def write_lp(path: str | Path, std: StdLp) -> None:
    """Write ``std`` as a program file: `min` names column 0, and each
    constraint is one line, its terms in column order."""
    names = _column_tokens(std)
    lines = list(_LP_HEADER)
    lines.append(f"min {names[0]}")
    for produced in std.constraint_rows:
        k = produced[0]
        terms = [f"{names[j]}:{format_rational(q)}" for j, q in std.rows[k]]
        kind = "eq" if len(produced) == 2 else "le"
        lines.append(" ".join([kind, *terms, format_rational(std.rhs[k])]))
    _write_lines(path, lines)


def _content_lines(path: str | Path) -> list[tuple[int, str]]:
    try:
        raw = Path(path).read_text(encoding="ascii")
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InvalidInputError(f"{path} is not ascii text: {exc}") from exc
    out = []
    for lineno, line in enumerate(raw.splitlines(), start=1):
        text = line.strip()
        if text and not text.startswith("#"):
            out.append((lineno, text))
    return out


class _Numbers(dict):
    """The number tokens of one file, each parsed by ``parse_rational`` on
    its first lookup, so every occurrence of a token shares one
    ``Fraction``.  Readers set ``lineno`` to the line they read; a bad
    token is named with it."""

    def __init__(self, path: str | Path) -> None:
        super().__init__()
        self.path, self.lineno = path, 0

    def __missing__(self, token: str) -> Fraction:
        try:
            q = self[token] = parse_rational(token)
        except InvalidInputError as exc:
            raise InvalidInputError(f"{self.path}:{self.lineno}: {exc}") from exc
        return q


def read_lp(path: str | Path) -> StdLp:
    """Parse a program file straight into its standard form.

    The objective takes column 0; every other token takes the next column
    when a row first names it with a nonzero coefficient, a row's new
    tokens in string order.  A variable token is the text before a term's
    only colon, kept as the ``str`` the line was split into.  Each distinct
    number token is parsed once per read, and every occurrence of it
    shares that one ``Fraction``.
    """
    lines = _content_lines(path)
    if not lines or not lines[0][1].startswith("min "):
        raise InvalidInputError(f"{path}: expected a leading 'min <var>' line")
    obj_line, obj_text = lines[0]
    objective = obj_text[4:].strip()
    if ":" in objective or objective.split() != [objective]:
        raise InvalidInputError(f"{path}:{obj_line}: malformed objective {objective!r}")
    numbers = _Numbers(path)
    col_of: dict[str, int] = {objective: 0}
    out = StdRows()
    for lineno, text in lines[1:]:
        fields = text.split()
        kind = fields[0]
        if kind not in ("le", "eq") or len(fields) < 2:
            raise InvalidInputError(f"{path}:{lineno}: malformed row {text!r}")
        numbers.lineno = lineno
        rhs = numbers[fields[-1]]
        row: dict[str, Fraction] = {}
        for term in fields[1:-1]:
            name, _, coef = term.rpartition(":")
            if not name or ":" in name:
                raise InvalidInputError(f"{path}:{lineno}: malformed term {term!r}")
            row[name] = numbers[coef]
        if len(row) < len(fields) - 2:
            names = [term.rpartition(":")[0] for term in fields[1:-1]]
            repeated = min(v for v in row if names.count(v) > 1)
            raise InvalidInputError(f"{path}:{lineno}: repeated variable {repeated!r}")
        for v in sorted([v for v in row if v not in col_of]):
            if row[v]:
                col_of[v] = len(col_of)
        out.add(kind, tuple(sorted([(col_of[v], q) for v, q in row.items() if q])), rhs)
    return out.std(tuple(col_of))


def _write_labeled(lines: list[str], label: str, pairs: Iterable[tuple[str, Fraction]]) -> None:
    lines.append(label)
    for key, q in pairs:
        if q != 0:
            lines.append(f"{key} {format_rational(q)}")


def write_certificate(path: str | Path, std: StdLp, cert: Certificate) -> None:
    cols = _column_tokens(std)
    lines = ["# entries omitted from a section are zero"]
    if isinstance(cert, Optimal):
        lines.append("optimal")
        _write_labeled(lines, "primal", zip(cols, cert.primal))
        _write_labeled(lines, "dual", ((str(i), q) for i, q in enumerate(cert.dual)))
    elif isinstance(cert, Infeasible):
        lines.append("infeasible")
        _write_labeled(lines, "farkas", ((str(i), q) for i, q in enumerate(cert.farkas)))
    elif isinstance(cert, Unbounded):
        lines.append("unbounded")
        _write_labeled(lines, "point", zip(cols, cert.point))
        _write_labeled(lines, "ray", zip(cols, cert.ray))
    else:
        raise InvalidInputError(f"unknown certificate {cert!r}")
    _write_lines(path, lines)


def _split_sections(path: str | Path, lines: list[tuple[int, str]]) -> dict[str, list]:
    sections: dict[str, list] = {}
    current: list | None = None
    for lineno, text in lines:
        fields = text.split()
        if len(fields) == 1:
            name = fields[0]
            if name in sections:
                raise InvalidInputError(f"{path}:{lineno}: repeated section {name!r}")
            current = sections.setdefault(name, [])
        elif len(fields) == 2 and current is not None:
            current.append((lineno, fields[0], fields[1]))
        else:
            raise InvalidInputError(f"{path}:{lineno}: malformed line {text!r}")
    return sections


def _token_columns(std: StdLp) -> dict[str, int]:
    return {token: j for j, token in enumerate(_column_tokens(std))}


def _vector(
    numbers: _Numbers, entries, label: str, size: int, col_of: dict[str, int] | None = None
) -> tuple[Fraction, ...]:
    """A section's entries as a vector of ``size``, zero where omitted,
    keyed by variable token through ``col_of`` or, without it, by row
    index."""
    path = numbers.path
    out = [Fraction(0)] * size
    seen: set[int] = set()
    for lineno, key, val in entries:
        if col_of is not None:
            idx = col_of.get(key)
            if idx is None:
                raise InvalidInputError(f"{path}:{lineno}: unknown variable {key!r} in {label}")
        else:
            try:
                idx = int(key)
            except ValueError as exc:
                raise InvalidInputError(f"{path}:{lineno}: bad row index {key!r}") from exc
            if not 0 <= idx < size:
                raise InvalidInputError(f"{path}:{lineno}: row {idx} outside 0..{size - 1}")
        if idx in seen:
            raise InvalidInputError(f"{path}:{lineno}: repeated entry {key!r} in {label}")
        seen.add(idx)
        numbers.lineno = lineno
        out[idx] = numbers[val]
    return tuple(out)


def read_certificate(path: str | Path, std: StdLp) -> Certificate:
    """Parse a certificate file against the standard form it claims to certify.

    Each distinct number token is parsed once per read, and every entry
    that repeats it shares that one ``Fraction``.
    """
    lines = _content_lines(path)
    if not lines:
        raise InvalidInputError(f"{path}: empty certificate")
    kind_line, kind = lines[0]
    if len(kind.split()) != 1:
        raise InvalidInputError(f"{path}:{kind_line}: expected a bare certificate kind")
    sections = _split_sections(path, lines[1:])
    numbers = _Numbers(path)
    if kind == "optimal":
        if set(sections) != {"primal", "dual"}:
            raise InvalidInputError(f"{path}: optimal needs primal and dual sections")
        return Optimal(
            _vector(numbers, sections["primal"], "primal", std.num_cols, _token_columns(std)),
            _vector(numbers, sections["dual"], "dual", std.num_rows),
        )
    if kind == "infeasible":
        if set(sections) != {"farkas"}:
            raise InvalidInputError(f"{path}: infeasible needs a farkas section")
        return Infeasible(_vector(numbers, sections["farkas"], "farkas", std.num_rows))
    if kind == "unbounded":
        if set(sections) != {"point", "ray"}:
            raise InvalidInputError(f"{path}: unbounded needs point and ray sections")
        col_of = _token_columns(std)
        return Unbounded(
            _vector(numbers, sections["point"], "point", std.num_cols, col_of),
            _vector(numbers, sections["ray"], "ray", std.num_cols, col_of),
        )
    raise InvalidInputError(f"{path}:{kind_line}: unknown certificate kind {kind!r}")
