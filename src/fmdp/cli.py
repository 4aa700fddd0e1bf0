"""Command line front end.

Four subcommands: ``solve`` runs the iteration driver on a model file and
prints a run report, ``oracle-check`` replays the factored computations
against the brute-force oracle, ``certify`` validates an LP certificate
pair from disk under both checker backends, and ``bench`` times the
built-in ring family.

Exit codes are part of the interface: 0 for any normal termination
(timeouts included), 1 for bad input of any kind, 2 for an internal LP
contract violation, 3 for an oracle-check mismatch, 4 for a certificate
that fails its check.  Reports use exact rationals everywhere; pass
``--no-timing`` to make them byte-identical across runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import random
import sys
import time
from fractions import Fraction
from operator import mul
from pathlib import Path
from typing import Sequence

from .api import ApiConfig, api, posterior_bound
from .certify import IntVector, check_infeasible, check_optimality, check_unbounded
from .error import factored_bellman_err
from .errors import FmdpError, InvalidInputError, LpInternalError, OracleLimitError
from .lp import Infeasible, Optimal, StdLp, Unbounded
from .lp import to_standard_form  # perfbench's tracer patches it; goes in ROADMAP item 2's revision
from .lpio import read_certificate, read_lp, write_certificate, write_lp
from .mdpio import load_mdp
from .model import FactoredMdp, Weights, elimination_order, make_ring
from .oracle import (
    DEFAULT_STATE_LIMIT,
    enumerate_states,
    explicit_bellman_err,
    explicit_q,
    explicit_weight_lp,
)
from .policy import decision_list_to_text, greedy_decision_list
from .simplex import solve_lp
from .values import format_rational, over_one_den, parse_rational
from .weights import update_weights

__all__ = ["main"]

_CHECK_SEED = 0xFD


class _Parser(argparse.ArgumentParser):
    """argparse with this package's exit convention: usage errors are 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="fmdp",
        description="Exact linear-value solver for factored MDPs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, model: bool) -> None:
        if model:
            p.add_argument("--model", required=True, help="model file (JSON)")
            p.add_argument(
                "--discount", metavar="P/Q", help="override the model's discount"
            )
        p.add_argument(
            "--order",
            choices=("identity", "min-degree"),
            default="identity",
            help="variable elimination order",
        )
        p.add_argument("--report", metavar="PATH", help="also write the report here")

    def solver_knobs(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--epsilon", metavar="P/Q", default="0", help="Bellman error target"
        )
        p.add_argument("--t-max", type=int, default=100, help="iteration cap")
        p.add_argument(
            "--no-timing",
            action="store_true",
            help="print '-' instead of seconds, for reproducible reports",
        )

    p = sub.add_parser("solve", help="run the solver on a model file")
    common(p, model=True)
    solver_knobs(p)
    p.add_argument(
        "--oracle-limit",
        type=int,
        default=DEFAULT_STATE_LIMIT,
        metavar="N",
        help="state cap for the posterior bound",
    )
    p.add_argument("--dump-lp", metavar="PATH", help="write the final weight LP")
    p.add_argument(
        "--dump-cert", metavar="PATH", help="write the final LP's certificate"
    )
    p.add_argument("--policy-out", metavar="PATH", help="write the decision list")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser(
        "oracle-check", help="replay the solver against brute-force enumeration"
    )
    common(p, model=True)
    p.add_argument(
        "--oracle-limit",
        type=int,
        default=DEFAULT_STATE_LIMIT,
        metavar="N",
        help="refuse models with more states than this",
    )
    p.set_defaults(func=_cmd_oracle_check)

    p = sub.add_parser("certify", help="check an LP file against a certificate file")
    p.add_argument("lp", help="LP in the package's text format")
    p.add_argument("cert", help="certificate for that LP")
    p.add_argument("--report", metavar="PATH", help="also write the report here")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("bench", help="time the built-in ring family")
    common(p, model=False)
    solver_knobs(p)
    p.add_argument(
        "--sizes",
        type=int,
        nargs="+",
        default=[1, 2, 3],
        metavar="N",
        help="ring sizes to run",
    )
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except LpInternalError as exc:
        print(f"fmdp: internal error: {exc}", file=sys.stderr)
        return 2
    except FmdpError as exc:
        print(f"fmdp: {exc}", file=sys.stderr)
        return 1


# -- shared plumbing -------------------------------------------------------


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise InvalidInputError(f"cannot write {path}: {exc}") from exc


def _emit(lines: list[str], report_path: str | None) -> None:
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if report_path:
        _write(report_path, text)


def _load_model(args) -> FactoredMdp:
    mdp = load_mdp(args.model)
    if args.discount is not None:
        mdp = dataclasses.replace(mdp, discount=parse_rational(args.discount))
        problems = mdp.validate()
        if problems:
            raise InvalidInputError("; ".join(problems))
    return mdp


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


def _seconds(value: float, hide: bool) -> str:
    return "-" if hide else f"{value:.3f}s"


def _model_line(mdp: FactoredMdp) -> str:
    return (
        f"model: vars={mdp.n} actions={len(mdp.actions)} "
        f"basis={len(mdp.basis)} discount={format_rational(mdp.discount)}"
    )


# -- solve -----------------------------------------------------------------


def _cmd_solve(args) -> int:
    mdp = _load_model(args)
    config = ApiConfig(
        epsilon=parse_rational(args.epsilon),
        t_max=args.t_max,
        order=elimination_order(mdp, args.order),
    )
    steps: list[dict] = []
    res = api(mdp, config, trace=steps)

    lines = [_model_line(mdp)]
    for step in steps:
        lines.append(
            f"iteration {step['t']}: phi={format_rational(step['phi'])} "
            f"err={format_rational(step['err'])} cuts={step['cuts']} "
            f"rows={step['lp_rows']} cols={step['lp_cols']} "
            f"seconds={_seconds(step['seconds'], args.no_timing)}"
        )
    lines.append(
        f"stop: t={res.t} w_eq={_yn(res.w_eq)} err_le={_yn(res.err_le)} "
        f"timeout={_yn(res.timeout)}"
    )
    lines.append(f"err: {format_rational(res.err)}")
    lines.append(
        "w: " + " ".join(f"w{i}={format_rational(v)}" for i, v in enumerate(res.w))
    )
    lines.append("policy:")
    for branch_line in decision_list_to_text(mdp, res.pol).splitlines():
        lines.append("  " + branch_line)
    try:
        lhs, rhs, holds = posterior_bound(mdp, res, limit=args.oracle_limit)
        lines.append(
            f"bound: lhs={format_rational(lhs)} rhs={format_rational(rhs)} "
            f"holds={_yn(holds)}"
        )
    except OracleLimitError:
        lines.append("bound: skipped (state space above the oracle limit)")
    except InvalidInputError:  # the run has not converged
        lines.append("bound: skipped (weights did not converge)")
    _emit(lines, args.report)

    last = steps[-1]
    if args.dump_lp:
        write_lp(args.dump_lp, last["std"])
    if args.dump_cert:
        write_certificate(args.dump_cert, last["std"], last["certificate"])
    if args.policy_out:
        _write(args.policy_out, decision_list_to_text(mdp, res.pol))
    return 0


# -- oracle-check ------------------------------------------------------------


def _cmd_oracle_check(args) -> int:
    mdp = _load_model(args)
    states = enumerate_states(mdp, args.oracle_limit)
    order = elimination_order(mdp, args.order)
    rng = random.Random(_CHECK_SEED)
    weight_vectors = [
        tuple(
            Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in mdp.basis
        )
        for _ in range(4)
    ]
    weight_vectors.append(tuple(Fraction(0) for _ in mdp.basis))

    lines = [_model_line(mdp) + f" states={len(states)}"]
    failures: list[str] = []

    def check(name: str, ok: bool, detail: str) -> None:
        lines.append(f"{'ok  ' if ok else 'FAIL'} {name} ({detail})")
        if not ok:
            failures.append(name)

    # One expansion of each (action, state) backs up every weight vector.
    n_actions = len(mdp.actions)
    ok = all(
        mdp.q_values(weight_vectors, a, x) == explicit_q(mdp, weight_vectors, a, x)
        for a in range(n_actions)
        for x in states
    )
    check(
        "q-values",
        ok,
        f"{len(weight_vectors)} weight vectors, {n_actions} actions, "
        f"{len(states)} states",
    )

    # One greedy list per weight vector serves its error and, for the first
    # three, its weight fit, which runs right after the error so that it
    # reuses the blocks the error just built.
    err_ok = lp_ok = True
    for k, w in enumerate(weight_vectors):
        pol = greedy_decision_list(mdp, w)
        err_ok &= factored_bellman_err(mdp, w, pol, order) == explicit_bellman_err(
            mdp, w, pol, args.oracle_limit
        )
        if k < 3:
            fit, phi = update_weights(mdp, pol, order)
            std = explicit_weight_lp(mdp, pol, args.oracle_limit)
            lp_ok &= _is_optimum(std, phi, fit)
    check("bellman-errors", err_ok, f"{len(weight_vectors)} greedy lists")
    check("weight-lp-optimum", lp_ok, "3 greedy lists")

    res = api(mdp, ApiConfig(Fraction(0), 30, order))
    try:
        bound = posterior_bound(mdp, res, limit=args.oracle_limit)
    except InvalidInputError:  # the run has not converged
        check("posterior-bound", False, "weights did not converge in 30 iterations")
    else:
        detail = (
            f"t={res.t} lhs={format_rational(bound.lhs)} "
            f"rhs={format_rational(bound.rhs)}"
        )
        check("posterior-bound", bound.holds, detail)

    total = 4
    lines.append(f"oracle-check: {total - len(failures)} of {total} checks passed")
    _emit(lines, args.report)
    if failures:
        print(f"fmdp: oracle-check failed at {failures[0]}", file=sys.stderr)
        return 3
    return 0


def _is_optimum(std: StdLp, phi: Fraction, w: Weights) -> bool:
    """Whether ``(phi, w)`` is an optimum of the explicit weight LP ``std``.

    By complementary slackness it is one exactly when it satisfies every
    row and some dual lives on the rows it makes tight.  So only those rows
    are solved, and their dual, padded with zeros, must pass
    ``check_optimality`` on the whole program.
    """
    (nums,), den = over_one_den([[phi] + [w[int(c[1:])] for c in std.columns[1:]]])
    tight, rows = [], []
    for i, row in enumerate(zip(std.cols, std.nums, std.rhs, std.dens)):
        cols, coefs, b, _ = row
        lhs = sum(map(mul, coefs, map(nums.__getitem__, cols)))
        if lhs > b * den:
            return False
        if lhs == b * den:
            tight.append(i)
            rows.append(row)
    if not rows:  # every row has slack, so a smaller phi is feasible
        return False
    cert = solve_lp(StdLp(std.columns, *map(tuple, zip(*rows))))
    if not isinstance(cert, Optimal):
        return False
    dual = [Fraction(0)] * std.num_rows
    for i, y in zip(tight, cert.dual):
        dual[i] = y
    return check_optimality(std, IntVector(nums, den), dual)


# -- certify -----------------------------------------------------------------


def _cmd_certify(args) -> int:
    std = read_lp(args.lp)
    cert = read_certificate(args.cert, std)
    if isinstance(cert, Optimal):
        kind, check, vectors = "optimal", check_optimality, (cert.primal, cert.dual)
    elif isinstance(cert, Infeasible):
        kind, check, vectors = "infeasible", check_infeasible, (cert.farkas,)
    else:
        assert isinstance(cert, Unbounded)
        kind, check, vectors = "unbounded", check_unbounded, (cert.point, cert.ray)
    # Valid only when both arithmetic backends accept it.
    ok = all(check(std, *vectors, normalized=normalized) for normalized in (True, False))
    verdict = "valid" if ok else "INVALID"
    _emit(
        [
            f"certificate: kind={kind} rows={std.num_rows} "
            f"cols={std.num_cols} {verdict}"
        ],
        args.report,
    )
    return 0 if ok else 4


# -- bench -------------------------------------------------------------------


def _cmd_bench(args) -> int:
    epsilon = parse_rational(args.epsilon)
    lines = [
        f"bench: epsilon={format_rational(epsilon)} t-max={args.t_max} "
        f"order={args.order}"
    ]
    for n in args.sizes:
        mdp = make_ring(n)
        config = ApiConfig(
            epsilon=epsilon, t_max=args.t_max, order=elimination_order(mdp, args.order)
        )
        steps: list[dict] = []
        started = time.perf_counter()
        res = api(mdp, config, trace=steps)
        total = time.perf_counter() - started
        in_lp = sum(step["lp_seconds"] for step in steps)
        last = steps[-1]
        lines.append(
            f"n={n} t={res.t} w_eq={_yn(res.w_eq)} "
            f"err={format_rational(res.err)} "
            f"constraints={len(last['std'].constraint_rows)} "
            f"variables={last['lp_cols']} "
            f"total={_seconds(total, args.no_timing)} "
            f"lp={_seconds(in_lp, args.no_timing)} "
            f"pivots={sum(step['pivots'] for step in steps)}"
        )
    _emit(lines, args.report)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
