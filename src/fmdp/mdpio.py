"""Model files: JSON with explicit domains, scoped tables and exact rationals.

Every number is written as a string and read back as an exact rational
(``"9/10"``, ``"0.5"``, ``"3"``).  The reader checks the JSON's own types
as it goes, then hands the built model to ``FactoredMdp.validate``; any
problem raises ``InvalidInputError``.  Value and action names must be
``fmdp.policy.text_safe`` (no whitespace, no `;`), so that every policy
of the model can be written as decision-list text and read back.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import InvalidInputError
from .factored import ScopedFn
from .model import FactoredMdp
from .policy import text_safe
from .values import format_rational, parse_rational

__all__ = ["load_mdp", "save_mdp", "mdp_to_json_dict", "mdp_from_json_dict"]


def _as_rational(value: object, where: str) -> Fraction:
    if isinstance(value, bool):
        raise InvalidInputError(f"{where}: expected a rational, got a boolean")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise InvalidInputError(f"{where}: expected a rational, got {value!r}")


def _is_index(value: object) -> bool:
    """A JSON integer; ``bool`` subclasses ``int`` but is not one."""
    return isinstance(value, int) and not isinstance(value, bool)


def _scoped_fn_to_json(f: ScopedFn, as_distribution: bool) -> dict:
    if as_distribution:
        table = [[format_rational(p) for p in row] for row in f.table]
    else:
        table = [format_rational(v) for v in f.table]
    return {"scope": list(f.scope), "table": table}


def _scoped_fn_from_json(
    obj: object, dims: Sequence[int], where: str, distributions: bool
) -> ScopedFn:
    if not isinstance(obj, dict) or "scope" not in obj or "table" not in obj:
        raise InvalidInputError(f"{where}: expected an object with scope and table")
    scope = obj["scope"]
    if not isinstance(scope, list) or not all(_is_index(v) for v in scope):
        raise InvalidInputError(f"{where}: scope must be a list of variable indices")
    for v in scope:
        if not (0 <= v < len(dims)):
            raise InvalidInputError(f"{where}: scope variable {v} out of range")
    card = tuple(dims[v] for v in scope)
    raw = obj["table"]
    if not isinstance(raw, list):
        raise InvalidInputError(f"{where}: table must be a list")
    if distributions:
        table = []
        for row_idx, row in enumerate(raw):
            if not isinstance(row, list):
                raise InvalidInputError(f"{where}: table row {row_idx} must be a list")
            table.append(
                tuple(
                    _as_rational(p, f"{where}: table row {row_idx}") for p in row
                )
            )
        entries = tuple(table)
    else:
        entries = tuple(_as_rational(v, f"{where}: table") for v in raw)
    try:
        return ScopedFn(tuple(scope), card, entries)
    except ValueError as exc:
        raise InvalidInputError(f"{where}: {exc}") from exc


def mdp_to_json_dict(mdp: FactoredMdp) -> dict:
    actions = []
    for a, name in enumerate(mdp.actions):
        actions.append(
            {
                "name": name,
                "transitions": [
                    _scoped_fn_to_json(f, as_distribution=True)
                    for f in mdp.transitions[a]
                ],
                "rewards": [
                    _scoped_fn_to_json(f, as_distribution=False)
                    for f in mdp.rewards[a]
                ],
            }
        )
    return {
        "n": mdp.n,
        "domains": [list(dom) for dom in mdp.domains],
        "actions": actions,
        "default": mdp.actions[mdp.default],
        "effects": {
            mdp.actions[a]: list(mdp.effects[a]) for a in range(len(mdp.actions))
        },
        "discount": format_rational(mdp.discount),
        "basis": [_scoped_fn_to_json(f, as_distribution=False) for f in mdp.basis],
    }


def mdp_from_json_dict(data: object) -> FactoredMdp:
    """Build and validate a model from parsed JSON; raises on any violation."""
    if not isinstance(data, dict):
        raise InvalidInputError("model file: top level must be an object")

    def need(key: str):
        if key not in data:
            raise InvalidInputError(f"model file: missing field {key!r}")
        return data[key]

    domains_raw = need("domains")
    if not isinstance(domains_raw, list) or not all(
        isinstance(dom, list) and all(isinstance(v, str) for v in dom)
        for dom in domains_raw
    ):
        raise InvalidInputError("model file: domains must be lists of value names")
    domains = tuple(tuple(dom) for dom in domains_raw)
    for i, dom in enumerate(domains):
        if len(set(dom)) != len(dom):
            raise InvalidInputError(f"model file: variable {i} repeats a value name")
        for v in dom:
            if not text_safe(v):
                raise InvalidInputError(
                    f"model file: variable {i} value {v!r} holds whitespace or ';'"
                )
    n = need("n")
    if not _is_index(n) or n != len(domains):
        raise InvalidInputError(f"model file: n={n} but {len(domains)} domains given")
    dims = tuple(len(dom) for dom in domains)

    actions_raw = need("actions")
    if not isinstance(actions_raw, list):
        raise InvalidInputError("model file: actions must be a list")
    names: list[str] = []
    transitions: list[tuple[ScopedFn, ...]] = []
    rewards: list[tuple[ScopedFn, ...]] = []
    for idx, entry in enumerate(actions_raw):
        if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
            raise InvalidInputError(f"model file: action {idx} needs a name string")
        name = entry["name"]
        if not text_safe(name):
            raise InvalidInputError(f"model file: action {name!r} holds whitespace or ';'")
        where = f"action {name!r}"
        names.append(name)
        trans_raw = entry.get("transitions")
        if not isinstance(trans_raw, list) or len(trans_raw) != len(domains):
            raise InvalidInputError(
                f"model file: {where} needs one transition entry per variable"
            )
        transitions.append(
            tuple(
                _scoped_fn_from_json(t, dims, f"{where}, transition {i}", distributions=True)
                for i, t in enumerate(trans_raw)
            )
        )
        rewards_raw = entry.get("rewards", [])
        if not isinstance(rewards_raw, list):
            raise InvalidInputError(f"model file: {where} rewards must be a list")
        rewards.append(
            tuple(
                _scoped_fn_from_json(r, dims, f"{where}, reward {j}", distributions=False)
                for j, r in enumerate(rewards_raw)
            )
        )
    if len(set(names)) != len(names):
        raise InvalidInputError("model file: duplicate action names")

    default_name = need("default")
    if default_name not in names:
        raise InvalidInputError(f"model file: default action {default_name!r} not defined")
    effects_raw = need("effects")
    if not isinstance(effects_raw, Mapping):
        raise InvalidInputError("model file: effects must map action names to variables")
    unknown = [key for key in effects_raw if key not in names]
    if unknown:
        raise InvalidInputError(f"model file: effects name undefined actions {unknown}")
    effects: list[tuple[int, ...]] = []
    for name in names:
        eff = effects_raw.get(name, [])
        if not isinstance(eff, list) or not all(_is_index(v) for v in eff):
            raise InvalidInputError(f"model file: effects of {name!r} must list variables")
        effects.append(tuple(sorted(eff)))

    basis_raw = need("basis")
    if not isinstance(basis_raw, list):
        raise InvalidInputError("model file: basis must be a list")
    basis = tuple(
        _scoped_fn_from_json(h, dims, f"basis {i}", distributions=False)
        for i, h in enumerate(basis_raw)
    )

    mdp = FactoredMdp(
        domains=domains,
        actions=tuple(names),
        default=names.index(default_name),
        transitions=tuple(transitions),
        rewards=tuple(rewards),
        effects=tuple(effects),
        discount=_as_rational(need("discount"), "discount"),
        basis=basis,
    )
    violations = mdp.validate()
    if violations:
        raise InvalidInputError("model validation failed: " + "; ".join(violations))
    return mdp


def load_mdp(path: str) -> FactoredMdp:
    """Read and validate a model file; any problem raises InvalidInputError."""
    try:
        with open(path) as handle:
            data = json.load(handle, parse_float=Fraction)
    except OSError as exc:
        raise InvalidInputError(f"cannot read model file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"model file is not valid JSON: {exc}") from exc
    return mdp_from_json_dict(data)


def save_mdp(mdp: FactoredMdp, path: str) -> None:
    """Write a model file; a path that cannot be written raises
    InvalidInputError."""
    try:
        with open(path, "w") as handle:
            json.dump(mdp_to_json_dict(mdp), handle, indent=1)
            handle.write("\n")
    except OSError as exc:
        raise InvalidInputError(f"cannot write model file: {exc}") from exc
