"""The command line surface, driven through main() with real files."""

import hashlib
import json
import sys
from fractions import Fraction

import pytest
from helpers import Lp, flatten, make_constraint, sysadmin

from fmdp import cli
from fmdp.certify import check_optimality
from fmdp.cli import main
from fmdp.errors import LpInternalError
from fmdp.factored import PartialState
from fmdp.lp import Infeasible, Unbounded
from fmdp.lpio import write_certificate, write_lp
from fmdp.mdpio import load_mdp, save_mdp
from fmdp.model import make_ring
from fmdp.policy import decision_list_from_text, select_action
from fmdp.simplex import solve_lp


def _ring_file(tmp_path, n=2):
    path = tmp_path / f"ring{n}.json"
    save_mdp(make_ring(n), str(path))
    return str(path)


def test_solve_reports_convergence(tmp_path, capsys):
    model = _ring_file(tmp_path)
    report = tmp_path / "run.txt"
    code = main(["solve", "--model", model, "--t-max", "30", "--report", str(report)])
    out = capsys.readouterr().out
    assert code == 0
    assert "stop: t=2 w_eq=yes" in out
    assert "bound:" in out and "holds=yes" in out
    assert report.read_text(encoding="utf-8") == out


def test_solve_timeout_is_normal_termination(tmp_path, capsys):
    model = _ring_file(tmp_path)
    code = main(["solve", "--model", model, "--t-max", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "timeout=yes" in out
    assert "bound: skipped (weights did not converge)" in out


def test_no_timing_reports_are_byte_identical(tmp_path):
    model = _ring_file(tmp_path)
    paths = [tmp_path / "a.txt", tmp_path / "b.txt"]
    for p in paths:
        assert (
            main(["solve", "--model", model, "--no-timing", "--report", str(p)]) == 0
        )
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert b"seconds=-" in paths[0].read_bytes()


@pytest.mark.parametrize("flag", ["--report", "--dump-lp", "--dump-cert", "--policy-out"])
def test_unwritable_output_paths_are_input_errors(tmp_path, capsys, flag):
    target = tmp_path / "missing" / "out"
    code = main(["solve", "--model", _ring_file(tmp_path), flag, str(target)])
    err = capsys.readouterr().err
    assert code == 1
    assert "Traceback" not in err
    assert err.startswith(f"fmdp: cannot write {target}: ") and err.count("\n") == 1


GOLDEN_SHA256 = {
    3: {
        "report": "1a5c73c568d84f13f52401d234e6754c0af9c5b140d08a28d44b54de06c99630",
        "lp": "5e854711db0883ac9731e05949031e12d414f8a6a9ff0daf3bcfeede0b38221e",
        "cert": "475939e58a6e1b3228d5918711864cd8bd865fe2edef17ba3781ada229480782",
        "policy": "d6268ba78bf30eb1281b6f751dc8fe3ab98007aed6ba6a802ac3e467cd54c394",
    },
    4: {
        "report": "c516590edfc000ccd406c4d80af29a37078ebf48155cfd5b3ba508c2cd912cbc",
        "lp": "ff3ae18a28d5bc32c0abbcd0217aa872350c4192f9d8ec22df0368357b84bb9c",
        "cert": "3bbbab084f4af86be5ce2af1a7e7ca0e58ce7484c9a3dda583899b3643f31d14",
        "policy": "cd8b98263ebf40ec70d7c8a62096437ebdd6f5e59c52cc0e469f064e772a3d1b",
    },
}


@pytest.mark.parametrize("n", sorted(GOLDEN_SHA256))
def test_no_timing_outputs_match_golden_bytes(tmp_path, capsys, n):
    """Reports, LPs, certificates and policies are pinned across versions:
    a change in row order, tie-breaking or witnesses shows up here."""
    model = _ring_file(tmp_path, n)
    out = {kind: tmp_path / kind for kind in GOLDEN_SHA256[n]}
    args = ["solve", "--model", model, "--order", "min-degree", "--no-timing"]
    args += ["--report", str(out["report"]), "--dump-lp", str(out["lp"])]
    args += ["--dump-cert", str(out["cert"]), "--policy-out", str(out["policy"])]
    assert main(args) == 0
    capsys.readouterr()
    digests = {kind: hashlib.sha256(p.read_bytes()).hexdigest() for kind, p in out.items()}
    assert digests == GOLDEN_SHA256[n]


def test_solve_dumps_feed_certify(tmp_path, capsys):
    model = _ring_file(tmp_path)
    lp = tmp_path / "final.lp"
    cert = tmp_path / "final.cert"
    assert (
        main(
            [
                "solve",
                "--model",
                model,
                "--dump-lp",
                str(lp),
                "--dump-cert",
                str(cert),
            ]
        )
        == 0
    )
    code = main(["certify", str(lp), str(cert)])
    out = capsys.readouterr().out
    assert code == 0
    assert "kind=optimal" in out and out.rstrip().endswith("valid")


def test_sysadmin3_dumps_feed_certify(tmp_path, capsys):
    # Its final list has shadowed branches, which the dumped program leaves
    # out: both backends must accept that program and its certificate.
    model, lp, cert = (tmp_path / name for name in ("sysadmin3.json", "final.lp", "final.cert"))
    save_mdp(sysadmin(3), str(model))
    args = ["solve", "--model", str(model), "--order", "min-degree"]
    assert main(args + ["--dump-lp", str(lp), "--dump-cert", str(cert)]) == 0
    capsys.readouterr()
    assert main(["certify", str(lp), str(cert)]) == 0
    out = capsys.readouterr().out
    assert out == "certificate: kind=optimal rows=6276 cols=3240 valid\n"


def test_certify_rejects_a_tampered_certificate(tmp_path, capsys):
    model = _ring_file(tmp_path)
    lp = tmp_path / "final.lp"
    cert = tmp_path / "final.cert"
    main(["solve", "--model", model, "--dump-lp", str(lp), "--dump-cert", str(cert)])
    lines = cert.read_text(encoding="utf-8").rstrip("\n").split("\n")
    key, value = lines[-1].rsplit(" ", 1)
    lines[-1] = f"{key} {Fraction(value) + 1}"
    cert.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = main(["certify", str(lp), str(cert)])
    assert code == 4
    assert "INVALID" in capsys.readouterr().out


def test_certify_needs_both_backends(tmp_path, capsys, monkeypatch):
    model = _ring_file(tmp_path)
    lp = tmp_path / "final.lp"
    cert = tmp_path / "final.cert"
    main(["solve", "--model", model, "--dump-lp", str(lp), "--dump-cert", str(cert)])
    capsys.readouterr()
    assert main(["certify", str(lp), str(cert)]) == 0
    valid = capsys.readouterr().out
    assert valid.startswith("certificate: kind=optimal rows=") and valid.endswith(" valid\n")
    seen = []

    def raw_pairs_reject(std, primal, dual, *, normalized=True):
        seen.append(normalized)
        return normalized and check_optimality(std, primal, dual)

    monkeypatch.setattr(cli, "check_optimality", raw_pairs_reject)
    assert main(["certify", str(lp), str(cert)]) == 4
    assert seen == [True, False]
    assert capsys.readouterr().out == valid.replace(" valid\n", " INVALID\n")


# min x with x <= 1 and x >= 2; min z with z <= 0.
_INFEASIBLE = Lp(
    (make_constraint("le", {"x": Fraction(1)}, 1), make_constraint("le", {"x": Fraction(-1)}, -2)), "x"
)
_UNBOUNDED = Lp((make_constraint("le", {"z": Fraction(1)}, 0),), "z")


def _bumped(vec):
    return (vec[0] + 1, *vec[1:])


@pytest.mark.parametrize(
    "lp, kind, altered",
    [
        (_INFEASIBLE, "infeasible", lambda cert: Infeasible(_bumped(cert.farkas))),
        (_UNBOUNDED, "unbounded", lambda cert: Unbounded(cert.point, _bumped(cert.ray))),
    ],
    ids=["infeasible", "unbounded"],
)
def test_certify_checks_infeasible_and_unbounded_certificates(tmp_path, capsys, lp, kind, altered):
    std = flatten(lp)
    cert = solve_lp(std)
    lp_path, cert_path = tmp_path / "tiny.lp", tmp_path / "tiny.cert"
    write_lp(lp_path, std)
    write_certificate(cert_path, std, cert)
    line = f"certificate: kind={kind} rows={std.num_rows} cols={std.num_cols}"
    assert main(["certify", str(lp_path), str(cert_path)]) == 0
    assert capsys.readouterr().out == f"{line} valid\n"
    # One Farkas entry, or one ray entry, off by one.
    write_certificate(cert_path, std, altered(cert))
    assert main(["certify", str(lp_path), str(cert_path)]) == 4
    assert capsys.readouterr().out == f"{line} INVALID\n"


def test_certify_refuses_an_exponent_in_a_certificate(tmp_path, capsys):
    # Fraction would read "1e999999999" as a power of ten with a billion
    # digits; the reader refuses it as it refuses any other bad number.
    std = flatten(_UNBOUNDED)
    lp_path, cert_path = tmp_path / "tiny.lp", tmp_path / "tiny.cert"
    write_lp(lp_path, std)
    cert_path.write_text("unbounded\npoint\nz 1e999999999\nray\nz -1\n")
    assert main(["certify", str(lp_path), str(cert_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"fmdp: {cert_path}:3: not a rational: '1e999999999'\n"


def test_certify_bad_files_are_input_errors(tmp_path, capsys):
    missing = tmp_path / "nope.lp"
    assert main(["certify", str(missing), str(missing)]) == 1
    bad = tmp_path / "bad.lp"
    bad.write_text("not an lp\n", encoding="utf-8")
    assert main(["certify", str(bad), str(bad)]) == 1
    capsys.readouterr()


def test_policy_round_trips_through_file(tmp_path):
    model = _ring_file(tmp_path)
    out = tmp_path / "pol.txt"
    assert main(["solve", "--model", model, "--policy-out", str(out)]) == 0
    mdp = load_mdp(model)
    pol = decision_list_from_text(mdp, out.read_text(encoding="utf-8"))
    assert select_action(pol, PartialState.of({0: 1, 1: 1})) in (1, 2)
    assert select_action(pol, PartialState.of({0: 0, 1: 0})) in (1, 2)


def test_oracle_check_passes_on_ring(tmp_path, capsys):
    model = _ring_file(tmp_path)
    code = main(["oracle-check", "--model", model])
    out = capsys.readouterr().out
    assert code == 0
    assert "4 of 4 checks passed" in out
    assert out.count("ok  ") == 4


def test_oracle_check_respects_state_limit(tmp_path, capsys):
    model = _ring_file(tmp_path)
    code = main(["oracle-check", "--model", model, "--oracle-limit", "3"])
    assert code == 1
    assert "limit" in capsys.readouterr().err


def test_oracle_check_failure_names_the_check(tmp_path, capsys, monkeypatch):
    model = _ring_file(tmp_path)
    monkeypatch.setattr(
        "fmdp.cli.explicit_q", lambda *args, **kwargs: Fraction(999)
    )
    code = main(["oracle-check", "--model", model])
    captured = capsys.readouterr()
    assert code == 3
    assert "FAIL q-values" in captured.out
    assert "q-values" in captured.err


def test_internal_lp_failure_exits_two(tmp_path, capsys, monkeypatch):
    model = _ring_file(tmp_path)

    def boom(*args, **kwargs):
        raise LpInternalError("forced for the test")

    # The package re-exports the api() function under the submodule's name,
    # so patch through the module object rather than the dotted string.
    monkeypatch.setattr(sys.modules["fmdp.api"], "update_weights", boom)
    assert main(["solve", "--model", model]) == 2
    assert "internal error" in capsys.readouterr().err


def test_corrupt_model_exits_one(tmp_path, capsys):
    model = _ring_file(tmp_path)
    data = json.loads(open(model, encoding="utf-8").read())
    data["discount"] = "3/2"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data), encoding="utf-8")
    assert main(["solve", "--model", str(bad)]) == 1
    capsys.readouterr()


def test_discount_override(tmp_path, capsys):
    model = _ring_file(tmp_path)
    assert main(["solve", "--model", model, "--discount", "0"]) == 0
    assert "discount=0" in capsys.readouterr().out
    assert main(["solve", "--model", model, "--discount", "3/2"]) == 1
    capsys.readouterr()


def test_bad_epsilon_is_an_input_error(tmp_path, capsys):
    model = _ring_file(tmp_path)
    assert main(["solve", "--model", model, "--epsilon", "fast"]) == 1
    assert "not a rational" in capsys.readouterr().err


def test_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 1
    with pytest.raises(SystemExit) as info:
        main(["solve"])
    assert info.value.code == 1
    capsys.readouterr()


def test_bench_rows_and_bad_size(tmp_path, capsys):
    report = tmp_path / "bench.txt"
    code = main(["bench", "--sizes", "1", "2", "--no-timing", "--report", str(report)])
    out = capsys.readouterr().out
    assert code == 0
    assert "n=1 " in out and "n=2 " in out
    assert "constraints=" in out and "variables=" in out
    assert all(line.split()[-1].startswith("pivots=") for line in out.splitlines()[1:])
    assert report.read_text(encoding="utf-8") == out
    assert main(["bench", "--sizes", "0"]) == 1
    capsys.readouterr()


def test_min_degree_order_accepted(tmp_path, capsys):
    model = _ring_file(tmp_path)
    code = main(["solve", "--model", model, "--order", "min-degree"])
    assert code == 0
    assert "w_eq=yes" in capsys.readouterr().out
