"""The benchmark's four workloads, their inputs and their correctness gates.

Every workload is a closed loop: one operation at a time, from one
process, the next starting only when the previous one returned.

* ``ring``: ``api()`` on ring-4, ring-5 and ring-6.  Cold master-LP
  solves dominate; elimination tables stay tiny.
* ``sysadmin3``: ``api()`` on the three-machine bidirectional SysAdmin
  network.  Block building, Bellman error, the full-certificate check,
  standard form and weight self time outweigh the simplex.
* ``verify``: a third party re-reads the final weight LP and certificate
  of every ``ring`` and ``sysadmin3`` instance from disk and checks it
  under both arithmetic backends.  No simplex, no elimination.
* ``oracle``: ``fmdp oracle-check`` on ring-5 through ``fmdp.cli.main``:
  one cold simplex solve of a tall explicit LP per checked policy.  Ring-5
  rather than ring-4, because ring-4 takes two or three iterations
  depending on the seed, which split the oracle's seeds into two cost
  groups 10% apart; ring-5 takes two for every seed.

The seed draws each instance's transition probabilities; seed 0 gives the
package's reference models (``make_ring(n)`` for the rings).
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from fmdp import ApiConfig, FactoredMdp, api, elimination_order, save_mdp
from fmdp.certify import check_optimality
from fmdp.cli import main as cli_main
from fmdp.lp import Optimal, to_standard_form
from fmdp.lpio import read_certificate, read_lp, write_certificate, write_lp
from fmdp.oracle import explicit_bellman_err

from models import ring_mdp, ring_params, sysadmin_mdp, sysadmin_params

__all__ = ["INSTANCES", "Op", "Workload"]

RING_SIZES = (4, 5, 6)
ORDER = "min-degree"

# The instances of each workload, in the order a pass runs them.  The ring
# runs largest first: a run ends when the next operation would not fit, so
# this gives the costliest solve the most samples.
INSTANCES = {
    "ring": ["ring-6", "ring-5", "ring-4"],
    "sysadmin3": ["sysadmin-3"],
    "verify": ["ring-4", "ring-5", "ring-6", "sysadmin-3"],
    "oracle": ["ring-5"],
}

# err and w of every instance at seed 0, where the rings are make_ring(n).
PINNED = {
    name: (Fraction(err), tuple(Fraction(q) for q in w.split()))
    for name, err, w in (
        ("ring-3", "15/52", "615/26 25/13 25/13 25/13"),
        ("ring-4", "9/23", "675/23 50/23 50/23 50/23 50/23"),
        ("ring-5", "99/212", "3645/106 125/53 125/53 125/53 125/53 125/53"),
        ("ring-6", "21/40", "39 5/2 5/2 5/2 5/2 5/2 5/2"),
        ("sysadmin-3", "147/316", "3885/158 175/79 175/79 175/79 50/79 50/79 50/79"),
    )
}


def instance_builders(seed: int) -> dict[str, Callable[[], FactoredMdp]]:
    """Name to model builder for every instance a workload can use.

    Each call of a builder returns a fresh model object, so no per-model
    cache carries over from one timed solve to the next.
    """
    rng = random.Random(seed)
    out: dict[str, Callable[[], FactoredMdp]] = {}
    for n in RING_SIZES:
        params = ring_params(None if seed == 0 else rng)
        out[f"ring-{n}"] = lambda n=n, params=params: ring_mdp(n, params)
    params = sysadmin_params(None if seed == 0 else rng)
    out["sysadmin-3"] = lambda params=params: sysadmin_mdp(3, params)
    return out


@dataclass
class Op:
    """One timed operation of a workload.

    ``prepare()`` runs untimed and returns the arguments of ``run``;
    ``run(call, *args)`` is the timed part, where ``call(name, fn, ...)``
    calls ``fn`` directly or inside a tracer span.  ``key(outcome)`` is
    what must repeat bit for bit across samples and between traced and
    untraced runs; ``check(outcome)`` returns a problem description or
    ``None``;
    ``audit(outcome)`` does the same with costlier checks, once per
    operation after the timed loop; ``stop(outcome)`` names how the
    operation ended.  In a traced run, ``note(tracer, outcome)`` hands the
    tracer what it counts from results.
    """

    name: str
    prepare: Callable[[], tuple]
    run: Callable
    key: Callable
    check: Callable
    audit: Callable
    stop: Callable = lambda outcome: "ok"
    note: Callable = lambda tracer, outcome: None


# -- api workloads -----------------------------------------------------------


def _stop_reason(res) -> str:
    flags = [name for name in ("w_eq", "err_le", "timeout") if getattr(res, name)]
    return "+".join(flags)


def _api_op(name: str, build: Callable[[], FactoredMdp], seed: int) -> Op:
    order = elimination_order(build(), ORDER)
    config = ApiConfig(epsilon=Fraction(0), t_max=100, order=order)
    pinned = PINNED.get(name) if seed == 0 else None

    def run(call, mdp):
        return call("api.solve", api, mdp, config)

    def key(res):
        return (res.t, res.w, res.err, res.phi_history, res.w_eq, res.err_le, res.timeout)

    def check(res) -> str | None:
        if res.timeout:
            return f"{name}: stopped on the iteration cap"
        if pinned is not None and (res.err, res.w) != pinned:
            return f"{name}: err {res.err} w {res.w} differ from the seed-0 answer"
        return None

    def audit(res) -> str | None:
        # The brute-force Bellman error of the returned (w, pol) must equal
        # the factored one; every instance is within the oracle's limit.
        brute = explicit_bellman_err(build(), res.w, res.pol)
        if brute != res.err:
            return f"{name}: err {res.err} but brute force gives {brute}"
        return None

    return Op(
        name,
        lambda: (build(),),
        run,
        key,
        check,
        audit,
        _stop_reason,
        lambda tracer, res: tracer.note_result(res),
    )


# -- verify ------------------------------------------------------------------


def _verify_run(call, lp_path: Path, cert_path: Path):
    lp = call("lpio.read_lp", read_lp, lp_path)
    std = call("lp.stdform", to_standard_form, lp)
    cert = call("lpio.read_cert", read_certificate, cert_path, std)
    if not isinstance(cert, Optimal):
        return ("not-optimal", False, False, cert)
    ok = call("certify.file", check_optimality, std, cert.primal, cert.dual)
    raw = call(
        "certify.file_raw", check_optimality, std, cert.primal, cert.dual, normalized=False
    )
    return ("optimal", ok, raw, cert)


def _verify_op(name: str, lp_path: Path, cert_path: Path) -> Op:
    def check(outcome) -> str | None:
        if outcome[:3] != ("optimal", True, True):
            return f"{name}: certificate not accepted under both backends: {outcome[:3]}"
        return None

    def audit(outcome) -> str | None:
        std = to_standard_form(read_lp(lp_path))
        cert = outcome[3]
        k = next(i for i, y in enumerate(cert.dual) if y != 0)
        dual = cert.dual[:k] + (cert.dual[k] + 1,) + cert.dual[k + 1 :]
        for normalized in (True, False):
            if check_optimality(std, cert.primal, dual, normalized=normalized):
                return f"{name}: altered dual entry {k} accepted (normalized={normalized})"
        return None

    def note(tracer, outcome) -> None:
        cert = outcome[3]
        tracer.note_bits(cert.primal)
        tracer.note_bits(cert.dual)
        tracer.counters["lpio.bytes"] += lp_path.stat().st_size + cert_path.stat().st_size

    return Op(
        name,
        lambda: (lp_path, cert_path),
        _verify_run,
        lambda outcome: outcome[:3],
        check,
        audit,
        note=note,
    )


# -- oracle ------------------------------------------------------------------


def _oracle_run(call, model_path: Path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = call("cli.main", cli_main, ["oracle-check", "--model", str(model_path), "--order", ORDER])
    return code, out.getvalue()


def _oracle_op(name: str, model_path: Path) -> Op:
    def check(outcome) -> str | None:
        code, text = outcome
        if code != 0 or "oracle-check: 4 of 4 checks passed" not in text:
            return f"{name}: oracle-check exited {code}: {text.strip().splitlines()[-1:]}"
        return None

    return Op(
        name, lambda: (model_path,), _oracle_run, lambda outcome: outcome, check, lambda outcome: None
    )


# -- workloads ---------------------------------------------------------------


class Workload:
    """Inputs and operations of one workload at one seed.

    ``prepare()`` does one-off work whose time is no metric (the solves
    that produce the verify artifacts).  ``setup()`` builds the inputs the
    timed operations read: the models, and any files written for them.
    It is timed, and repeated to report a median.  ``ops()`` lists the
    operations of one pass.
    """

    def __init__(self, name: str, seed: int, workdir: Path) -> None:
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.builders = instance_builders(seed)
        self.artifacts: dict[str, tuple] = {}

    def prepare(self) -> None:
        if self.name != "verify":
            return
        for name in INSTANCES[self.name]:
            mdp = self.builders[name]()
            config = ApiConfig(order=elimination_order(mdp, ORDER))
            steps: list[dict] = []
            api(mdp, config, trace=steps)
            last = steps[-1]
            self.artifacts[name] = (last["lp"], last["std"], last["certificate"])

    def setup(self) -> None:
        models = {name: self.builders[name]() for name in INSTANCES[self.name]}
        for name, mdp in models.items():
            elimination_order(mdp, ORDER)
            if self.name == "verify":
                lp, std, cert = self.artifacts[name]
                write_lp(self.workdir / f"{name}.lp", lp)
                write_certificate(self.workdir / f"{name}.cert", std, cert)
            elif self.name == "oracle":
                save_mdp(mdp, str(self.workdir / f"{name}.json"))

    def ops(self) -> list[Op]:
        names = INSTANCES[self.name]
        if self.name in ("ring", "sysadmin3"):
            return [_api_op(name, self.builders[name], self.seed) for name in names]
        if self.name == "verify":
            return [
                _verify_op(name, self.workdir / f"{name}.lp", self.workdir / f"{name}.cert")
                for name in names
            ]
        return [_oracle_op(name, self.workdir / f"{name}.json") for name in names]


