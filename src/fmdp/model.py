"""Factored MDP representation, validation, and the ring benchmark family.

A model stores, per action, one transition distribution per state variable
(a ScopedFn whose table entries are probability vectors over that variable's
domain) and a list of scoped reward summands.  One action is designated the
default; every other action must declare the variables on which its
transitions deviate from the default (its effects), and must share the
default's reward summands as a prefix of its own.  These closure conditions
are what the decision-list policy and LP constructions later rely on, so
``validate`` checks each one and reports violations under stable names.

Value functions enter through a list of scoped basis functions h_i.  For a
weight vector w the model evaluates nu_w = sum w_i h_i directly, and the
action-value Q via the one-step lookahead of each basis function, which
stays a small scoped function (its scope is the union of the transition
scopes feeding the basis scope) rather than an object over all states.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .elim import identity_order, min_degree_order
from .errors import InvalidInputError
from .factored import PartialState, ScopedFn, assignments
from .values import format_rational, parse_rational

__all__ = [
    "FactoredMdp",
    "Weights",
    "make_ring",
    "load_mdp",
    "save_mdp",
    "mdp_to_json_dict",
    "mdp_from_json_dict",
    "elimination_order",
]

Weights = tuple[Fraction, ...]


@dataclass(frozen=True)
class FactoredMdp:
    """An immutable factored MDP with a default action.

    ``transitions[a][i]`` is a ScopedFn whose entries are tuples of
    probabilities over ``domains[i]``; ``rewards[a]`` is the tuple of reward
    summands of action ``a``; ``effects[a]`` lists the variables where
    ``a``'s transitions may differ from the default's.  Actions are referred
    to by index everywhere in process; names only matter at the file format
    boundary.
    """

    domains: tuple[tuple[str, ...], ...]
    actions: tuple[str, ...]
    default: int
    transitions: tuple[tuple[ScopedFn, ...], ...]
    rewards: tuple[tuple[ScopedFn, ...], ...]
    effects: tuple[tuple[int, ...], ...]
    discount: Fraction
    basis: tuple[ScopedFn, ...]
    _cache: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @property
    def n(self) -> int:
        return len(self.domains)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(len(d) for d in self.domains)

    # -- validation ----------------------------------------------------

    def validate(self) -> list[str]:
        """All model invariant violations, each prefixed with its name.

        Returns an empty list when the model is well formed.  Never raises;
        callers that want a hard failure wrap the result themselves.
        """
        out: list[str] = []
        n = self.n
        dims = self.dims
        if n <= 0:
            out.append("dims_pos: model has no state variables")
        for i, dom in enumerate(self.domains):
            if not dom:
                out.append(f"doms_ne: variable {i} has an empty domain")
        if not self.actions:
            out.append("actions_ne: no actions")
        if not (0 <= self.default < len(self.actions)):
            out.append(f"default_act: default index {self.default} out of range")

        families = {
            "transitions": self.transitions,
            "rewards": self.rewards,
            "effects": self.effects,
        }
        for name, family in families.items():
            if len(family) != len(self.actions):
                out.append(
                    f"{name}_count: {len(family)} {name} entries for "
                    f"{len(self.actions)} actions"
                )

        def scope_ok(f: ScopedFn) -> bool:
            return all(0 <= v < n for v in f.scope) and all(
                c == dims[v] for v, c in zip(f.scope, f.card)
            )

        for a, per_var in enumerate(self.transitions):
            if len(per_var) != n:
                out.append(
                    f"transitions_scope_dims: action {a} has {len(per_var)} "
                    f"transition functions, expected {n}"
                )
                continue
            for i, f in enumerate(per_var):
                if not scope_ok(f):
                    out.append(
                        f"transitions_scope_dims: action {a}, variable {i}: "
                        f"scope {f.scope} does not fit the model dimensions"
                    )
                    continue
                where = f"transitions_closed: action {a}, variable {i}:"
                for row in f.table:
                    if not isinstance(row, tuple) or any(
                        not isinstance(p, (Fraction, int)) for p in row
                    ):
                        out.append(f"{where} entry {row!r} is not a tuple of rationals")
                    elif len(row) != dims[i]:
                        out.append(
                            f"{where} distribution over {len(row)} values, domain has {dims[i]}"
                        )
                    elif any(p < 0 for p in row) or sum(row) != 1:
                        rendered = tuple(format_rational(p) for p in row)
                        out.append(f"{where} row {rendered} is not a distribution")
        for a, rs in enumerate(self.rewards):
            for j, f in enumerate(rs):
                if not scope_ok(f):
                    out.append(f"reward_scope_dims: action {a}, reward {j}: bad scope")
        for i, f in enumerate(self.basis):
            if not scope_ok(f):
                out.append(f"h_scope_dims: basis {i}: bad scope")
        if not self.discount < 1:
            out.append(f"disc_lt_one: discount {format_rational(self.discount)} not < 1")
        if self.discount < 0:
            out.append(f"disc_nonneg: discount {format_rational(self.discount)} negative")

        d = self.default
        counts_ok = all(len(family) == len(self.actions) for family in families.values())
        if 0 <= d < len(self.actions) and counts_ok and all(len(p) == n for p in self.transitions):
            for a in range(len(self.actions)):
                eff = set(self.effects[a])
                if not eff <= set(range(n)):
                    out.append(f"effects: action {a} lists variables outside the model")
                for i in range(n):
                    if i not in eff and self.transitions[a][i] != self.transitions[d][i]:
                        out.append(
                            f"effects: action {a} deviates from the default on "
                            f"variable {i} without declaring it"
                        )
            if self.effects[d] != ():
                out.append("effects_default: the default action declares effects")
            r_d = len(self.rewards[d])
            for a in range(len(self.actions)):
                if len(self.rewards[a]) < r_d:
                    out.append(
                        f"rewards_default_dim: action {a} has fewer reward "
                        f"functions than the default"
                    )
                    continue
                for j in range(r_d):
                    if self.rewards[a][j].scope != self.rewards[d][j].scope:
                        out.append(
                            f"reward_scope_eq: action {a}, reward {j}: scope "
                            f"differs from the default's"
                        )
                    elif self.rewards[a][j] != self.rewards[d][j]:
                        out.append(
                            f"rewards_eq: action {a}, reward {j}: differs from "
                            f"the default's"
                        )
        return out

    # -- core quantities ------------------------------------------------

    def _check_action(self, a: int) -> None:
        if not (0 <= a < len(self.actions)):
            raise InvalidInputError(f"unknown action index {a}")

    def _check_full(self, x: PartialState) -> None:
        if x.domain != tuple(range(self.n)):
            raise InvalidInputError(f"state {x} does not assign every variable")
        if any(not (0 <= val < self.dims[v]) for v, val in x.items):
            raise InvalidInputError(f"state {x} assigns an out-of-domain value")

    def transition_prob(self, a: int, x: PartialState, nxt: PartialState) -> Fraction:
        """Probability of jumping from full state ``x`` to ``nxt`` under ``a``."""
        self._check_action(a)
        self._check_full(x)
        self._check_full(nxt)
        p = Fraction(1)
        for i in range(self.n):
            p *= self.transitions[a][i](x)[nxt.value(i)]
            if p == 0:
                return p
        return p

    def reward(self, a: int, x: PartialState) -> Fraction:
        """Sum of the reward summands of ``a`` at ``x``.

        ``x`` must cover every reward scope; a full state always does.
        """
        self._check_action(a)
        try:
            return sum((f(x) for f in self.rewards[a]), Fraction(0))
        except KeyError as exc:
            raise InvalidInputError(
                f"state {x} does not cover the reward scopes of action "
                f"{self.actions[a]}"
            ) from exc

    def gamma_scope(self, i: int, a: int) -> tuple[int, ...]:
        """Scope of the one-step lookahead of basis ``i`` under action ``a``:
        the union of the transition scopes of the variables basis ``i`` reads."""
        joint: set[int] = set()
        for j in self.basis[i].scope:
            joint.update(self.transitions[a][j].scope)
        return tuple(sorted(joint))

    def g(self, i: int, a: int) -> ScopedFn:
        """Expected next-step value of basis ``i`` under action ``a``.

        The sum runs over assignments to the basis scope only, never over
        full successor states; the result is a ScopedFn over gamma_scope.
        """
        key = ("g", i, a)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        h = self.basis[i]
        successors = assignments(h.scope, self.dims)

        def expect(x: PartialState) -> Fraction:
            total = Fraction(0)
            for nxt in successors:
                p = Fraction(1)
                for j in h.scope:
                    p *= self.transitions[a][j](x)[nxt.value(j)]
                    if p == 0:
                        break
                if p != 0:
                    total += p * h(nxt)
            return total

        result = ScopedFn.tabulate(self.gamma_scope(i, a), self.dims, expect)
        self._cache[key] = result
        return result

    def nu_w(self, w: Sequence[Fraction], x: PartialState) -> Fraction:
        """Value of the weighted basis combination at a full state."""
        return sum((wi * h(x) for wi, h in zip(w, self.basis)), Fraction(0))

    def q_value(self, w: Sequence[Fraction], a: int, x: PartialState) -> Fraction:
        """Action value under the weighted basis combination:
        immediate reward plus discounted expected next-step basis value."""
        self._check_action(a)
        future = sum(
            (wi * self.g(i, a)(x) for i, wi in enumerate(w)), Fraction(0)
        )
        return self.reward(a, x) + self.discount * future


def elimination_order(mdp: FactoredMdp, kind: str = "identity") -> tuple[int, ...]:
    """A variable elimination order for all of the model's maximizations.

    "identity" eliminates variables in index order.  "min-degree" applies the
    greedy minimum-degree heuristic to the scopes that actually show up in
    the solver's eliminations (basis lookaheads and rewards, per action).
    """
    if kind == "identity":
        return identity_order(mdp.n)
    if kind == "min-degree":
        scopes: list[tuple[int, ...]] = []
        for a in range(len(mdp.actions)):
            for i in range(len(mdp.basis)):
                scopes.append(tuple(set(mdp.basis[i].scope) | set(mdp.gamma_scope(i, a))))
            for f in mdp.rewards[a]:
                scopes.append(f.scope)
        return min_degree_order(scopes, mdp.n)
    raise InvalidInputError(f"unknown elimination order {kind!r}")


# -- ring benchmark -----------------------------------------------------


def make_ring(n: int) -> FactoredMdp:
    """Ring of ``n`` machines, each either working (value 0) or broken.

    A machine's next state depends on itself and its predecessor in the
    ring: staying working is likely (9/10) when both are fine, less likely
    when the predecessor is broken (7/10); a broken machine recovers with
    probability 2/10, or 1/10 behind a broken predecessor.  One restart
    action per machine forces that machine to work with certainty and acts
    like the default everywhere else.  Rewards pay 1 per working machine;
    the basis holds a constant plus one working-indicator per machine.
    """
    if n < 1:
        raise InvalidInputError("a ring needs at least one machine")
    domains = (("W", "B"),) * n
    dims = [2] * n
    stay_working = {
        (0, 0): Fraction(9, 10),
        (1, 0): Fraction(2, 10),
        (0, 1): Fraction(7, 10),
        (1, 1): Fraction(1, 10),
    }

    def default_transition(i: int) -> ScopedFn:
        pred = (i - 1) % n

        def dist(x: PartialState) -> tuple[Fraction, Fraction]:
            p = stay_working[(x.value(i), x.value(pred))]
            return (p, 1 - p)

        return ScopedFn.tabulate({i, pred}, dims, dist)

    default_row = tuple(default_transition(i) for i in range(n))
    transitions = [default_row]
    for k in range(n):
        forced = ScopedFn.tabulate({k}, dims, lambda _: (Fraction(1), Fraction(0)))
        transitions.append(default_row[:k] + (forced,) + default_row[k + 1 :])

    working_bonus = tuple(
        ScopedFn((i,), (2,), (Fraction(1), Fraction(0))) for i in range(n)
    )
    action_count = n + 1
    rewards = tuple(working_bonus for _ in range(action_count))
    effects = ((),) + tuple((k,) for k in range(n))
    basis = (ScopedFn.constant(Fraction(1)),) + tuple(
        ScopedFn((i,), (2,), (Fraction(1), Fraction(0))) for i in range(n)
    )
    return FactoredMdp(
        domains=domains,
        actions=("noop",) + tuple(f"restart_{k}" for k in range(n)),
        default=0,
        transitions=tuple(transitions),
        rewards=rewards,
        effects=effects,
        discount=Fraction(9, 10),
        basis=basis,
    )


# -- file format ---------------------------------------------------------


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
    obj: object, dims: Sequence[int], where: str, dist_over: int | None
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
    if dist_over is not None:
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
        where = f"action {name!r}"
        names.append(name)
        trans_raw = entry.get("transitions")
        if not isinstance(trans_raw, list) or len(trans_raw) != len(domains):
            raise InvalidInputError(
                f"model file: {where} needs one transition entry per variable"
            )
        transitions.append(
            tuple(
                _scoped_fn_from_json(
                    t, dims, f"{where}, transition {i}", dist_over=i
                )
                for i, t in enumerate(trans_raw)
            )
        )
        rewards_raw = entry.get("rewards", [])
        if not isinstance(rewards_raw, list):
            raise InvalidInputError(f"model file: {where} rewards must be a list")
        rewards.append(
            tuple(
                _scoped_fn_from_json(r, dims, f"{where}, reward {j}", dist_over=None)
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
        _scoped_fn_from_json(h, dims, f"basis {i}", dist_over=None)
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
    with open(path, "w") as handle:
        json.dump(mdp_to_json_dict(mdp), handle, indent=1)
        handle.write("\n")
