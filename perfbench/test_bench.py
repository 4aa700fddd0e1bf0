"""Machine-independent checks of the benchmark and of the solver's counters.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_bench.py

The ring-3 counters are pinned so that a pivot or cut regression fails
here, not only as a slower timing.
"""

from __future__ import annotations

import dataclasses
import importlib
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from fmdp import ApiConfig, api, elimination_order, make_ring  # noqa: E402
from fmdp.lpio import write_certificate, write_lp  # noqa: E402

from models import ring_mdp, ring_params, sysadmin_mdp, sysadmin_params  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import PINNED, RING_SIZES, _api_op, _verify_op, _verify_run, instance_builders  # noqa: E402


def _traced_solve(mdp):
    with Tracer() as tracer:
        res = tracer.call("api.solve", api, mdp, ApiConfig(order=elimination_order(mdp, "min-degree")))
    tracer.note_result(res)
    return res, tracer


def test_ring3_counters_are_pinned():
    res, tracer = _traced_solve(make_ring(3))
    assert (res.err, res.w) == PINNED["ring-3"]
    assert [u["cuts"] for u in tracer.per_update] == [10, 14, 14]
    assert [u["rounds"] for u in tracer.per_update] == [5, 1, 1]
    assert tracer.counters["simplex.master_pivots"] == 152
    assert (tracer.maxima["lpbuild.rows"], tracer.maxima["lpbuild.cols"]) == (1210, 693)
    assert tracer.counters["api.iterations"] == 3


def test_seed_zero_rings_are_make_ring():
    for n in (3,) + RING_SIZES:
        assert ring_mdp(n, ring_params(None)) == make_ring(n)
    builders = instance_builders(0)
    for n in RING_SIZES:
        assert builders[f"ring-{n}"]() == make_ring(n)


def test_seeds_draw_valid_distinct_models():
    drawn = set()
    for seed in range(1, 20):
        rng = random.Random(seed)
        ring = ring_mdp(4, ring_params(rng))
        sysadmin = sysadmin_mdp(3, sysadmin_params(rng))
        assert ring.validate() == [] and sysadmin.validate() == []
        drawn.add((ring.transitions, sysadmin.transitions))
    assert len(drawn) > 1
    assert instance_builders(5)["ring-5"]() == instance_builders(5)["ring-5"]()


def test_tracer_restores_modules_and_keeps_results():
    modules = ["fmdp.api", "fmdp.weights", "fmdp.error", "fmdp.cli"]
    before = {m: dict(vars(importlib.import_module(m))) for m in modules}
    mdp = make_ring(3)
    plain = api(mdp, ApiConfig(order=elimination_order(mdp, "min-degree")))
    traced, tracer = _traced_solve(make_ring(3))
    assert (plain.w, plain.phi_history, plain.err) == (traced.w, traced.phi_history, traced.err)
    assert {m: dict(vars(importlib.import_module(m))) for m in modules} == before
    names = {span[0] for span in tracer.spans}
    assert {"api.solve", "weights.update", "simplex.master", "certify.full", "elim.pricing"} <= names
    own = tracer.self_seconds()
    total = tracer.total_seconds()
    assert abs(sum(own.values()) - total["api.solve"]) < 1e-6


def _direct(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def test_gates_accept_good_results_and_reject_bad_ones(tmp_path):
    mdp = make_ring(3)
    steps: list[dict] = []
    res = api(mdp, ApiConfig(order=elimination_order(mdp, "min-degree")), trace=steps)
    lp_path, cert_path = tmp_path / "ring-3.lp", tmp_path / "ring-3.cert"
    write_lp(lp_path, steps[-1]["lp"])
    write_certificate(cert_path, steps[-1]["std"], steps[-1]["certificate"])

    op = _verify_op("ring-3", lp_path, cert_path)
    outcome = _verify_run(_direct, lp_path, cert_path)
    assert op.check(outcome) is None and op.audit(outcome) is None
    text = cert_path.read_text().splitlines()
    dual = text.index("dual") + 1
    row, value = text[dual].split()
    text[dual] = f"{row} {value}1"
    cert_path.write_text("\n".join(text) + "\n")
    assert op.check(_verify_run(_direct, lp_path, cert_path)) is not None

    api_op = _api_op("ring-3", lambda: make_ring(3), seed=0)
    assert api_op.check(res) is None and api_op.audit(res) is None
    wrong = dataclasses.replace(res, err=res.err + 1)
    assert api_op.check(wrong) is not None and api_op.audit(wrong) is not None
