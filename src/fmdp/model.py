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
Each lookahead is tabulated once per model as an integer table over one
denominator (``FactoredMdp.g_int``); ``fmdp.lpbuild``'s basis differences
and ``fmdp.policy``'s bonus tables are derived from that form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm, prod
from operator import mul
from typing import Sequence

from .elim import _gather, identity_order, min_degree_order
from .errors import InvalidInputError
from .factored import PartialState, ScopedFn
from .values import format_rational, over_one_den

__all__ = [
    "FactoredMdp",
    "Weights",
    "make_ring",
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
        callers that want a hard failure wrap the result themselves.  A
        mistyped top-level field is reported with the other mistyped ones
        only, since every later check reads them.
        """
        seq = (tuple, list)
        doms_ok = isinstance(self.domains, seq) and all(isinstance(d, seq) for d in self.domains)
        fields = (
            ("doms_ne", "domains", doms_ok, "a tuple of value-name tuples"),
            ("actions_ne", "actions", isinstance(self.actions, seq), "a tuple of names"),
            ("transitions_count", "transitions", isinstance(self.transitions, seq), "a tuple"),
            ("rewards_count", "rewards", isinstance(self.rewards, seq), "a tuple"),
            ("effects_count", "effects", isinstance(self.effects, seq), "a tuple"),
            ("h_scope_dims", "basis", isinstance(self.basis, seq), "a tuple"),
            ("default_act", "default", isinstance(self.default, int), "an action index"),
            ("disc_lt_one", "discount", isinstance(self.discount, (Fraction, int)), "a rational"),
        )
        out = [
            f"{name}: {attr} {getattr(self, attr)!r} is not {what}"
            for name, attr, ok, what in fields
            if not ok
        ]
        if out:
            return out
        n = self.n
        dims = self.dims
        if n <= 0:
            out.append("dims_pos: model has no state variables")
        for i, dom in enumerate(self.domains):
            if not dom:
                out.append(f"doms_ne: variable {i} has an empty domain")
            for value in dom:
                if not isinstance(value, str):
                    out.append(f"doms_ne: variable {i}: value {value!r} is not a name")
        if not self.actions:
            out.append("actions_ne: no actions")
        for a, name in enumerate(self.actions):
            if not isinstance(name, str):
                out.append(f"actions_ne: action {a}: {name!r} is not a name")
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

        def untyped(where: str, f: ScopedFn) -> list[str]:
            return [
                f"{where} entry {v!r} is not a rational"
                for v in f.table
                if not isinstance(v, (Fraction, int))
            ]

        # Cleared when an entry lacks the type the closure checks below read.
        typed = True
        for a, per_var in enumerate(self.transitions):
            if not isinstance(per_var, (tuple, list)):
                out.append(
                    f"transitions_scope_dims: action {a}: {per_var!r} is not a "
                    f"tuple of transition functions"
                )
                typed = False
                continue
            if len(per_var) != n:
                out.append(
                    f"transitions_scope_dims: action {a} has {len(per_var)} "
                    f"transition functions, expected {n}"
                )
                continue
            for i, f in enumerate(per_var):
                if not isinstance(f, ScopedFn):
                    out.append(
                        f"transitions_scope_dims: action {a}, variable {i}: "
                        f"{f!r} is not a scoped function"
                    )
                    typed = False
                    continue
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
            if not isinstance(rs, (tuple, list)):
                out.append(f"reward_scope_dims: action {a}: {rs!r} is not a tuple of rewards")
                typed = False
                continue
            for j, f in enumerate(rs):
                if not isinstance(f, ScopedFn):
                    out.append(
                        f"reward_scope_dims: action {a}, reward {j}: "
                        f"{f!r} is not a scoped function"
                    )
                    typed = False
                elif not scope_ok(f):
                    out.append(f"reward_scope_dims: action {a}, reward {j}: bad scope")
                else:
                    out += untyped(f"reward_scope_dims: action {a}, reward {j}:", f)
        for a, eff in enumerate(self.effects):
            if not isinstance(eff, (tuple, list)) or not all(isinstance(v, int) for v in eff):
                out.append(f"effects: action {a}: {eff!r} is not a tuple of variable indices")
                typed = False
        for i, f in enumerate(self.basis):
            if not isinstance(f, ScopedFn):
                out.append(f"h_scope_dims: basis {i}: {f!r} is not a scoped function")
            elif not scope_ok(f):
                out.append(f"h_scope_dims: basis {i}: bad scope")
            else:
                out += untyped(f"h_scope_dims: basis {i}:", f)
        if not self.discount < 1:
            out.append(f"disc_lt_one: discount {format_rational(self.discount)} not < 1")
        if self.discount < 0:
            out.append(f"disc_nonneg: discount {format_rational(self.discount)} negative")

        d = self.default
        counts_ok = all(len(family) == len(self.actions) for family in families.values())
        if (
            typed
            and counts_ok
            and 0 <= d < len(self.actions)
            and all(len(p) == n for p in self.transitions)
        ):
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

    def g_int(self, i: int, a: int) -> tuple[ScopedFn, int]:
        """Expected next-step value of basis ``i`` under action ``a`` as an
        integer table over gamma_scope and one denominator, kept in the
        model's cache under ("g", i, a).  Each point sums, over assignments
        to the basis scope only, the basis numerator times the integer
        probabilities, each transition function over its own lcm."""
        key = ("g", i, a)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        h, dims = self.basis[i], self.dims
        scope = self.gamma_scope(i, a)
        card = tuple(map(dims.__getitem__, scope))
        (acc,), den = over_one_den([h.table])
        reads = []
        for j in reversed(h.scope):
            f = self.transitions[a][j]
            rows, row_den = over_one_den(f.table)
            reads.append((_gather(f.scope, scope, dims), rows, dims[j]))
            den *= row_den
        table = []
        for x in range(prod(card)):
            # Sum out the basis scope's variables, the last one first.
            sums = acc
            for gather, rows, k in reads:
                p = rows[gather[x]]
                sums = [sum(map(mul, p, sums[s : s + k])) for s in range(0, len(sums), k)]
            table.append(sums[0])
        hit = self._cache[key] = (ScopedFn(scope, card, tuple(table)), den)
        return hit

    def g(self, i: int, a: int) -> ScopedFn:
        """Expected next-step value of basis ``i`` under action ``a``, a
        ScopedFn over gamma_scope rendered from ``g_int``'s table, the
        one form the model keeps."""
        table, den = self.g_int(i, a)
        values = table.table
        return ScopedFn(table.scope, table.card, tuple(map(Fraction, values, [den] * len(values))))

    def nu_w(self, w: Sequence[Fraction], x: PartialState) -> Fraction:
        """Value of the weighted basis combination at a full state."""
        return sum((wi * h(x) for wi, h in zip(w, self.basis)), Fraction(0))

    def q_values(
        self, ws: Sequence[Sequence[Fraction]], a: int, x: PartialState
    ) -> list[Fraction]:
        """Action value of ``a`` at ``x`` under each weighted basis
        combination in ``ws``, in order: immediate reward plus discounted
        expected next-step basis value.

        The reward and each g(i, a)(x) are read once for all of ``ws``,
        off ``g_int``'s integer tables put over one denominator, so each
        weight vector costs one integer dot product.
        """
        self._check_action(a)
        r = self.reward(a, x)
        tables = [self.g_int(i, a) for i in range(len(self.basis))]
        den = lcm(*(d for _, d in tables))
        gs = [table(x) * (den // d) for table, d in tables]
        rows, scale = over_one_den(ws)
        return [r + self.discount * Fraction(sum(map(mul, row, gs)), den * scale) for row in rows]

    def q_value(self, w: Sequence[Fraction], a: int, x: PartialState) -> Fraction:
        """Action value under one weighted basis combination;
        ``q_values`` with ``ws = (w,)``."""
        return self.q_values((w,), a, x)[0]


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
