"""Read three tiny linear programs and audit the solver's certificates.

Every answer the exact simplex returns carries a proof: an optimal pair
of primal and dual solutions, a Farkas vector for infeasibility, or a
feasible point plus an improving ray for unboundedness.  The checker
only does rational arithmetic against the standard-form data, so a
reader can trust a verdict without trusting the solver.

Run:  python demos/certificate_roundtrip.py
"""

import tempfile
from pathlib import Path

from fmdp.certify import check_infeasible, check_optimality, check_unbounded
from fmdp.lp import Infeasible, Optimal, Unbounded
from fmdp.lpio import read_certificate, read_lp, write_certificate, write_lp
from fmdp.simplex import solve_lp
from fmdp.values import format_rational

# minimize 3a + 2b subject to a + b >= 10, a <= 8, b <= 8.
# The objective is itself a variable pinned by an equality row.
DIET = """\
min cost
eq cost:1 a:-3 b:-2 0
le a:-1 b:-1 -10
le a:1 8
le b:1 8
"""

# Force a >= 2 against a <= 1 and the region is empty.
IMPOSSIBLE = DIET + "le a:1 1\n"

# Nothing stops the objective from falling forever.
BOTTOMLESS = "min z\nle z:1 0\n"


def show(label: str, vec) -> None:
    print(f"  {label}: ({', '.join(format_rational(q) for q in vec)})")


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)

        def program(name: str, text: str):
            path = tmp / name
            path.write_text(text)
            return read_lp(path)

        std = program("diet.lp", DIET)
        cert = solve_and_describe("bounded problem", std)
        assert isinstance(cert, Optimal)
        show("primal (cost, then variables in order of appearance)", cert.primal)
        show("dual", cert.dual)
        print(f"  checker accepts: {check_optimality(std, cert.primal, cert.dual)}")

        lp_path, cert_path = tmp / "diet.out.lp", tmp / "diet.cert"
        write_lp(lp_path, std)
        write_certificate(cert_path, std, cert)
        std_again = read_lp(lp_path)
        cert_again = read_certificate(cert_path, std_again)
        ok = check_optimality(std_again, cert_again.primal, cert_again.dual)
        print(f"  survives a file round trip: {ok}")
        tampered = (cert.primal[0] + 1,) + cert.primal[1:]
        print(f"  checker accepts a tampered objective value: "
              f"{check_optimality(std, tampered, cert.dual)}")
        print()

        std = program("impossible.lp", IMPOSSIBLE)
        cert = solve_and_describe("contradictory bounds", std)
        assert isinstance(cert, Infeasible)
        show("farkas multipliers", cert.farkas)
        combined = sum(y * b for y, b in zip(cert.farkas, std.rhs))
        print(f"  nonnegative row combination gives 0 <= {format_rational(combined)}")
        print(f"  checker accepts: {check_infeasible(std, cert.farkas)}")
        print()

        std = program("bottomless.lp", BOTTOMLESS)
        cert = solve_and_describe("no lower bound", std)
        assert isinstance(cert, Unbounded)
        show("feasible point", cert.point)
        show("improving ray", cert.ray)
        print(f"  checker accepts: {check_unbounded(std, cert.point, cert.ray)}")


def solve_and_describe(label: str, std):
    cert = solve_lp(std)
    print(f"{label}: {std.num_rows} rows, {std.num_cols} columns,"
          f" verdict {type(cert).__name__}")
    return cert


if __name__ == "__main__":
    main()
