"""Round trips through the program, certificate and model file formats."""

import dataclasses
import hashlib
import importlib
import random
import re
import sys
from fractions import Fraction
from math import prod

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import (
    BIG_DENOMINATOR_LARGE,
    PHI,
    SMALL,
    FnId,
    FnVar,
    Lp,
    Weight,
    column_order,
    flatten,
    make_constraint,
    models,
    perfbench_instances,
    random_token_lp,
    variable_tokens,
)

from fmdp.api import ApiConfig, api
from fmdp.certify import check_infeasible, check_optimality, check_unbounded
from fmdp.errors import InvalidInputError, LpInternalError
from fmdp.factored import PartialState
from fmdp.lp import Infeasible, Optimal, StdLp, StdRows, Unbounded
from fmdp.lpbuild import Tag, assemble_lp, weight_lp_blocks
from fmdp.lpio import read_certificate, read_lp, write_certificate, write_lp
from fmdp.mdpio import load_mdp, mdp_from_json_dict, mdp_to_json_dict, save_mdp
from fmdp.model import elimination_order, make_ring
from fmdp.policy import greedy_decision_list
from fmdp.simplex import solve_lp

lpio_module = importlib.import_module("fmdp.lpio")
lpbuild_module = importlib.import_module("fmdp.lpbuild")


def _tokenized_rows(std):
    named = []
    for i in range(std.num_rows):
        terms, rhs = std.fraction_row(i)
        named.append(({std.columns[j]: q for j, q in terms}, rhs))
    return named


def _internal_lp():
    tag = Tag(PartialState.of({0: 1}), 2, True)
    fv = FnVar(tag, FnId("c", 0), PartialState.of({0: 1, 2: 0}))
    fe = FnVar(tag, FnId("e", 1), PartialState.of({}))
    cons = (
        make_constraint("eq", {fv: Fraction(-1), Weight(0): Fraction(1, 2)}, 0),
        make_constraint("le", {fv: Fraction(1), fe: Fraction(-1)}, 0),
        make_constraint("le", {fe: Fraction(1), PHI: Fraction(-1)}, Fraction(-2, 3)),
    )
    return Lp(cons, PHI)


_GRAMMAR = re.compile(r"phi|w\d+|f(?P<tag>[0-9a-f]{8})_[cbe]\d+_(?P<z>\d+\.\d+(-\d+\.\d+)*)?")


def _ring3_blocks():
    mdp = make_ring(3)
    pol = greedy_decision_list(mdp, (Fraction(-1), Fraction(2, 3), Fraction(2, 3), Fraction(-1, 2)))
    return weight_lp_blocks(mdp, pol, elimination_order(mdp, "min-degree"))


def test_fn_var_token_shape():
    # Every column of an assembled program is `phi`, `w<i>` or
    # `f<tag>_<slot>_<z>` with its z variables ascending; each block's
    # columns share one tag, and no two blocks do.
    blocks = _ring3_blocks()
    std = assemble_lp(blocks)
    assert std.columns[0] == "phi" and len(std.col_of) == std.num_cols
    assert {t for t in std.columns if t[0] == "w"} == {f"w{i}" for i in range(len(blocks[0].c))}
    tags = []
    for block, at in zip(blocks, std.placed):
        width = sum(prod(block.plan.dims[v] for v in scope) for scope in block.plan.scopes)
        matched = [_GRAMMAR.fullmatch(t) for t in std.columns[at.cols[0] : at.cols[0] + width]]
        assert all(m and m["tag"] for m in matched)
        assert len({m["tag"] for m in matched}) == 1
        tags.append(matched[0]["tag"])
        for m in matched:
            z = [int(pair.split(".")[0]) for pair in (m["z"] or "").split("-") if pair]
            assert z == sorted(set(z))
        zeros = "-".join(f"{v}.0" for v in sorted(block.plan.scopes[0]))
        assert std.columns[at.cols[0]] == f"f{tags[-1]}_c0_{zeros}"
    assert len(set(tags)) == len(blocks)


@pytest.mark.parametrize("same, width", [(8, 16), (16, 64)])
def test_tag_digests_widen_past_a_collision(monkeypatch, same, width):
    # With the first ``same`` hex digits of every tag's digest made equal,
    # the tags collide at that width, so the tokens take the next width.
    blocks = _ring3_blocks()
    std = assemble_lp(blocks)
    narrow = list(std.columns)
    original = lpbuild_module._digest
    # Each block's tag part at 8 digits, and its full digest.
    full = {narrow[at.cols[0]][1:9]: original(b.tag) for b, at in zip(blocks, std.placed)}
    assert len(full) == len(blocks)
    monkeypatch.setattr(lpbuild_module, "_digest", lambda tag: "0" * same + original(tag)[same:])
    wide = list(assemble_lp(blocks).columns)
    digest = {key: ("0" * same + d[same:])[:width] for key, d in full.items()}
    assert wide == [t if t[0] != "f" else f"f{digest[t[1:9]]}{t[9:]}" for t in narrow]


def test_tag_digests_that_collide_at_every_width_are_an_internal_error(tmp_path, monkeypatch):
    blocks = _ring3_blocks()
    monkeypatch.setattr(lpbuild_module, "_digest", lambda tag: "0" * 64)
    std = assemble_lp(blocks)
    with pytest.raises(LpInternalError, match="tag digests collide at full width"):
        std.columns[0]
    with pytest.raises(LpInternalError, match="tag digests collide at full width"):
        write_lp(tmp_path / "out.lp", std)
    assert list(tmp_path.iterdir()) == []


def test_lp_round_trip_preserves_structure(tmp_path):
    lp = _internal_lp()
    path = tmp_path / "block.lp"
    std_in = flatten(lp)
    write_lp(path, std_in)
    std_back = read_lp(path)
    assert _tokenized_rows(std_in) == _tokenized_rows(std_back)
    assert std_in.columns[0] == std_back.columns[0] == "phi"
    assert std_back.constraint_rows == ((0, 1), (2,), (3,))


def test_two_le_rows_that_negate_each_other_are_written_as_one_eq_line(tmp_path):
    # -phi + w0/2 <= 3/2 and its negation, built by hand as two rows.
    std = StdLp(("phi", "w0"), ((0, 1), (0, 1)), ((-2, 1), (2, -1)), (3, -3), (2, 2))
    assert std.constraint_rows == ((0, 1),)
    path = tmp_path / "halves.lp"
    write_lp(path, std)
    lines = path.read_text(encoding="ascii").splitlines()
    assert [line for line in lines if not line.startswith("#")] == [
        "min phi",
        "eq phi:-1 w0:1/2 3/2",
    ]
    assert read_lp(path) == std


def test_lp_file_is_commented_and_stable(tmp_path):
    path = tmp_path / "a.lp"
    write_lp(path, flatten(_internal_lp()))
    text = path.read_text()
    assert "dual convention" in text
    assert "min phi" in text.splitlines()[3]
    write_lp(tmp_path / "b.lp", flatten(_internal_lp()))
    assert text == (tmp_path / "b.lp").read_text()


def test_certificate_round_trips_each_kind(tmp_path):
    rng = random.Random(5150)
    seen = set()
    while len(seen) < 3:
        lp = random_token_lp(rng)
        std = flatten(lp)
        cert = solve_lp(std)
        kind = type(cert).__name__
        if kind in seen:
            continue
        seen.add(kind)
        lp_path = tmp_path / f"{kind}.lp"
        cert_path = tmp_path / f"{kind}.cert"
        write_lp(lp_path, std)
        write_certificate(cert_path, std, cert)
        std_back = read_lp(lp_path)
        back = read_certificate(cert_path, std_back)
        if isinstance(cert, Optimal):
            assert check_optimality(std_back, back.primal, back.dual)
        elif isinstance(cert, Infeasible):
            assert check_infeasible(std_back, back.farkas)
        else:
            assert isinstance(back, Unbounded)
            assert check_unbounded(std_back, back.point, back.ray)


def test_certificate_exact_vector_round_trip(tmp_path):
    lp = Lp(
        (
            make_constraint("le", {"x": Fraction(-1), "y": Fraction(1)}, -3),
            make_constraint("le", {"y": Fraction(-1)}, 0),
        ),
        "x",
    )
    std = flatten(lp)
    cert = solve_lp(std)
    assert isinstance(cert, Optimal)
    path = tmp_path / "opt.cert"
    write_certificate(path, std, cert)
    back = read_certificate(path, std)
    assert back == cert


def test_lp_reader_rejects_malformed_input(tmp_path):
    def load(text):
        p = tmp_path / "bad.lp"
        p.write_text(text)
        return read_lp(p)

    with pytest.raises(InvalidInputError, match="min"):
        load("le x:1 3\n")
    with pytest.raises(InvalidInputError, match="malformed row"):
        load("min x\nge x:1 3\n")
    with pytest.raises(InvalidInputError, match="malformed term"):
        load("min x\nle x=1 3\n")
    with pytest.raises(InvalidInputError):
        load("min x\nle x:1 threeish\n")
    with pytest.raises(InvalidInputError, match=r"bad\.lp:2: repeated variable 'x'"):
        load("min x\nle x:1 x:2 3\n")
    # A zero term still counts: the check runs before zero terms are dropped.
    with pytest.raises(InvalidInputError, match=r"bad\.lp:2: repeated variable 'x'"):
        load("min x\nle x:0 x:1 3\n")
    # The first repeated token in string order is the one named.
    with pytest.raises(InvalidInputError, match=r"bad\.lp:3: repeated variable 'a'"):
        load("min x\nle x:1 3\neq b:1 a:1 b:2 a:0 3\n")
    # A variable token holds no colon, in a term or in the objective.
    with pytest.raises(InvalidInputError, match=r"bad\.lp:2: malformed term 'a:b:1'"):
        load("min phi\nle phi:1 a:b:1 3\n")
    with pytest.raises(InvalidInputError, match=r"bad\.lp:1: malformed objective 'a:b'"):
        load("min a:b\nle phi:1 3\n")
    with pytest.raises(InvalidInputError, match="cannot read"):
        read_lp(tmp_path / "absent.lp")
    (tmp_path / "bad.lp").write_text("# caf\u00e9\nmin x\nle x:1 3\n", encoding="utf-8")
    with pytest.raises(InvalidInputError, match=r"bad\.lp is not ascii text"):
        read_lp(tmp_path / "bad.lp")


def test_writers_refuse_a_column_that_is_no_token_and_leave_no_file(tmp_path):
    # A column must be a str the reader would neither split nor misread.
    std = flatten(Lp((make_constraint("le", {"x": Fraction(1)}, 1),), "x"))
    for column in (PHI, 7, "a:b", "a b", ""):
        bad = dataclasses.replace(std, columns=(column,))
        with pytest.raises(InvalidInputError, match=f"variable token {re.escape(repr(column))} is not writable"):
            write_lp(tmp_path / "out.lp", bad)
        with pytest.raises(InvalidInputError, match=f"variable token {re.escape(repr(column))} is not writable"):
            write_certificate(tmp_path / "out.cert", bad, Optimal((Fraction(1),), (Fraction(0),)))
    # Two columns may not share a token, even in separate rows: the reader
    # would read one column where the program has two.
    rows = StdRows()
    rows.add("le", ((0, Fraction(-1)), (1, Fraction(1))), Fraction(1))
    rows.add("le", ((0, Fraction(-1)), (2, Fraction(1))), Fraction(2))
    repeated = rows.std(("phi", "x", "x"))
    with pytest.raises(InvalidInputError, match="variable token 'x' names two columns"):
        write_lp(tmp_path / "out.lp", repeated)
    with pytest.raises(InvalidInputError, match="variable token 'x' names two columns"):
        write_certificate(tmp_path / "out.cert", repeated, Optimal((Fraction(0),) * 3, (Fraction(0),) * 2))
    assert list(tmp_path.iterdir()) == []


def test_writers_refuse_non_ascii_tokens_and_leave_no_file(tmp_path):
    lp = Lp((make_constraint("le", {"\u00e9": Fraction(1)}, 1),), "\u00e9")
    std = flatten(lp)
    with pytest.raises(InvalidInputError, match=r"out\.lp: not ascii text"):
        write_lp(tmp_path / "out.lp", std)
    with pytest.raises(InvalidInputError, match=r"out\.cert: not ascii text"):
        write_certificate(tmp_path / "out.cert", std, Optimal((Fraction(1),), (Fraction(0),)))
    assert list(tmp_path.iterdir()) == []


def test_writers_refuse_a_number_past_the_digit_limit_and_leave_no_file(tmp_path):
    huge = Fraction(10**5000, 3)
    limit = f"limit of {sys.get_int_max_str_digits()} decimal digits"
    with pytest.raises(InvalidInputError, match=limit):
        write_lp(tmp_path / "out.lp", flatten(Lp((make_constraint("le", {"x": huge}, 1),), "x")))
    std = flatten(Lp((make_constraint("le", {"x": Fraction(1)}, 1),), "x"))
    with pytest.raises(InvalidInputError, match=limit):
        write_certificate(tmp_path / "out.cert", std, Optimal((huge,), (Fraction(0),)))
    assert list(tmp_path.iterdir()) == []


def test_save_mdp_names_an_unwritable_path_as_input_error(tmp_path):
    with pytest.raises(InvalidInputError, match="cannot write model file"):
        save_mdp(make_ring(2), str(tmp_path / "missing" / "m.json"))
    assert list(tmp_path.iterdir()) == []


def test_certificate_reader_rejects_malformed_input(tmp_path):
    lp = Lp((make_constraint("le", {"x": Fraction(1)}, 1),), "x")
    std = flatten(lp)

    def load(text):
        p = tmp_path / "bad.cert"
        p.write_text(text)
        return read_certificate(p, std)

    with pytest.raises(InvalidInputError, match="empty"):
        load("# nothing\n")
    with pytest.raises(InvalidInputError, match="unknown certificate kind"):
        load("stellar\n")
    with pytest.raises(InvalidInputError, match="unknown variable"):
        load("optimal\nprimal\nq 3\ndual\n")
    with pytest.raises(InvalidInputError, match="outside"):
        load("optimal\nprimal\nx 3\ndual\n7 1\n")
    with pytest.raises(InvalidInputError, match="repeated section"):
        load("optimal\nprimal\nprimal\ndual\n")
    with pytest.raises(InvalidInputError, match="repeated entry 'x' in primal"):
        load("optimal\nprimal\nx 7\nx 2\ndual\n")
    with pytest.raises(InvalidInputError, match="repeated entry '00' in dual"):
        load("optimal\nprimal\nx 1\ndual\n0 1\n00 2\n")
    with pytest.raises(InvalidInputError, match="needs primal and dual"):
        load("optimal\nprimal\nx 1\n")
    with pytest.raises(InvalidInputError, match="needs point and ray"):
        load("unbounded\npoint\n")
    with pytest.raises(InvalidInputError, match="infeasible needs a farkas section"):
        load("infeasible\ndual\n0 1\n")
    with pytest.raises(InvalidInputError, match=r"bad\.cert:1: expected a bare certificate kind"):
        load("optimal kind\nprimal\ndual\n")
    with pytest.raises(InvalidInputError, match=r"bad\.cert:3: malformed line 'x 1 2'"):
        load("optimal\nprimal\nx 1 2\ndual\n")
    with pytest.raises(InvalidInputError, match=r"bad\.cert:4: bad row index 'first'"):
        load("optimal\nprimal\ndual\nfirst 1\n")
    # A row index is ASCII digits only: no sign, no ``_`` separator.
    for key in ("+1", "1_0", "-1"):
        with pytest.raises(InvalidInputError, match=rf"bad\.cert:4: bad row index '{re.escape(key)}'"):
            load(f"optimal\nprimal\ndual\n{key} 1\n")
    # A bad number names its file and line, in either kind of section.
    path = tmp_path / "bad.cert"
    with pytest.raises(InvalidInputError, match=f"^{re.escape(str(path))}:3: not a rational: '1/0'$"):
        load("optimal\nprimal\nx 1/0\ndual\n")
    with pytest.raises(InvalidInputError, match=f"^{re.escape(str(path))}:5: not a rational: 'one'$"):
        load("optimal\nprimal\nx 1\ndual\n0 one\n")


@pytest.fixture
def parsed(monkeypatch):
    """Every text the readers hand to ``parse_rational``, in order."""
    texts = []
    original = lpio_module.parse_rational

    def counting(text):
        texts.append(text)
        return original(text)

    monkeypatch.setattr(lpio_module, "parse_rational", counting)
    return texts


def test_lp_reader_parses_each_number_once_and_names_a_bad_one(tmp_path, parsed):
    path = tmp_path / "nums.lp"
    path.write_text("min x\nle x:1/2 y:3 1/2\neq y:3 x:-1 0\nle x:1/2 3\n")
    std = read_lp(path)
    assert sorted(parsed) == sorted({"1/2", "3", "-1", "0"})
    assert [std.fraction_row(rows[0])[1] for rows in std.constraint_rows] == [Fraction(1, 2), 0, 3]
    path.write_text("min x\nle x:1 2\n\nle x:1/2 y:three 1\n")
    with pytest.raises(InvalidInputError, match=r"nums\.lp:4: not a rational: 'three'"):
        read_lp(path)
    path.write_text("min x\nle x:1 2/0\n")
    with pytest.raises(InvalidInputError, match=r"nums\.lp:2: not a rational: '2/0'"):
        read_lp(path)


def test_certificate_reader_parses_each_number_once_and_names_a_bad_one(tmp_path, parsed):
    lp = Lp(
        (
            make_constraint("le", {"x": Fraction(1), "y": Fraction(1)}, 1),
            make_constraint("eq", {"y": Fraction(1)}, 0),
        ),
        "x",
    )
    std = flatten(lp)
    path = tmp_path / "nums.cert"
    path.write_text("optimal\nprimal\nx 1/2\ny 3\ndual\n0 3\n1 1/2\n2 -1\n")
    cert = read_certificate(path, std)
    assert sorted(parsed) == sorted({"1/2", "3", "-1"})
    half, three = Fraction(1, 2), Fraction(3)
    assert cert == Optimal((half, three), (three, half, Fraction(-1)))
    # Every entry that repeats a token shares its one Fraction.
    assert cert.primal[0] is cert.dual[1] and cert.primal[1] is cert.dual[0]
    path.write_text("optimal\nprimal\nx 1/2\ndual\n0 1/2\n\n2 three\n")
    with pytest.raises(InvalidInputError, match=r"nums\.cert:7: not a rational: 'three'$"):
        read_certificate(path, std)


_TAGS = [
    Tag(PartialState.of({}), 0, True),
    Tag(PartialState.of({0: 1}), 2, True),
    Tag(PartialState.of({0: 1}), 2, False),
]
_VARIABLES = st.sampled_from(
    [PHI, Weight(0), Weight(1), Weight(12), "s0", "x"]
    + [
        FnVar(tag, FnId(kind, idx), PartialState.of(z))
        for tag in _TAGS
        for kind, idx, z in (("c", 0, {}), ("b", 1, {1: 0}), ("e", 2, {0: 2, 3: 1}))
    ]
)
_NUMBERS = st.one_of(SMALL, BIG_DENOMINATOR_LARGE)


@st.composite
def _programs(draw):
    """A program over every kind of variable, with rows of either kind and
    rows with no terms; ``make_constraint`` drops the zero terms drawn."""
    objective = draw(_VARIABLES)
    rows = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["le", "eq"]),
                st.dictionaries(_VARIABLES, _NUMBERS, max_size=5),
                _NUMBERS,
            ),
            max_size=6,
        )
    )
    return Lp(tuple(make_constraint(kind, coefs, rhs) for kind, coefs, rhs in rows), objective)


def _renamed(lp, tokens):
    rows = (
        make_constraint(con.kind, [(tokens[v], q) for v, q in con.coefs], con.rhs)
        for con in lp.constraints
    )
    return Lp(tuple(rows), tokens[lp.objective])


@settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(_programs())
def test_lp_text_round_trips_to_the_standard_form_of_the_named_program(tmp_path, lp):
    path = tmp_path / "drawn.lp"
    write_lp(path, flatten(lp))
    tokens = variable_tokens(column_order(lp))
    assert read_lp(path) == flatten(_renamed(lp, tokens))


# Listed out of string order ("x10" < "x2", "a" < "b"), so the order a row
# names its new tokens in is often not the order they take columns in.
# "unused" is named by no row: as the objective it only takes column 0.
_TOKENS = ["x2", "x10", "b", "a", "phi", "w0", "f1a_c0_"]
# Zero, and equal values under distinct tokens.
_COEF_TOKENS = ["1", "-1", "0", "1/2", "2/4", "0.5", "-3", "7/3"]


@st.composite
def _token_program_texts(draw):
    """A program file's text over opaque tokens, and the program it says,
    built term by term with ``make_constraint``."""
    objective = draw(st.sampled_from(_TOKENS + ["unused"]))
    lines, cons = [f"min {objective}"], []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["le", "eq"]))
        names = draw(st.lists(st.sampled_from(_TOKENS), unique=True, max_size=5))
        terms = [(name, draw(st.sampled_from(_COEF_TOKENS))) for name in names]
        rhs = draw(st.sampled_from(_COEF_TOKENS))
        lines.append(" ".join([kind, *(f"{n}:{c}" for n, c in terms), rhs]))
        cons.append(make_constraint(kind, [(n, Fraction(c)) for n, c in terms], Fraction(rhs)))
    return "\n".join(lines) + "\n", Lp(tuple(cons), objective)


@settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=150,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(_token_program_texts())
def test_lp_reader_emits_the_standard_form_of_the_program_it_names(tmp_path, drawn):
    text, said = drawn
    path = tmp_path / "drawn.lp"
    path.write_text(text)
    std = read_lp(path)
    assert std == flatten(said)
    # The negated half of every equality shares its positive half's column
    # tuple, and equal numerator tuples are one object.
    for produced in std.constraint_rows:
        if len(produced) == 2:
            k, n = produced
            assert std.cols[n] is std.cols[k] and std.dens[n] == std.dens[k]
            assert std.nums[n] == tuple(-a for a in std.nums[k]) and std.rhs[n] == -std.rhs[k]
    shapes: dict[tuple, tuple] = {}
    assert all(shapes.setdefault(nums, nums) is nums for nums in std.nums)


@st.composite
def _certificates(draw):
    std = flatten(draw(_programs()))

    def vector(n):
        return tuple(draw(st.lists(_NUMBERS, min_size=n, max_size=n)))

    kind = draw(st.sampled_from([Optimal, Infeasible, Unbounded]))
    if kind is Optimal:
        return std, Optimal(vector(std.num_cols), vector(std.num_rows))
    if kind is Infeasible:
        return std, Infeasible(vector(std.num_rows))
    return std, Unbounded(vector(std.num_cols), vector(std.num_cols))


@settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(_certificates())
def test_certificate_text_round_trips_each_kind(tmp_path, drawn):
    std, cert = drawn
    path = tmp_path / "drawn.cert"
    write_certificate(path, std, cert)
    assert read_certificate(path, std) == cert


@settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=200,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(models())
def test_model_json_round_trips_and_saves_the_same_bytes(tmp_path, mdp):
    assert mdp.validate() == []
    assert mdp_from_json_dict(mdp_to_json_dict(mdp)) == mdp
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save_mdp(mdp, str(first))
    loaded = load_mdp(str(first))
    assert loaded == mdp
    save_mdp(loaded, str(second))
    assert second.read_bytes() == first.read_bytes()


# SHA-256 over the rows of read_lp(lp), in the repr a program had when its
# rows were (column, Fraction) terms (``_fraction_repr``), and the repr of
# read_certificate(cert, std), for each final program and certificate below.
GOLDEN_READER = "54dee85080a5b0e08543b71d780cf33ca0f04eea20bc4ae065680d25d2c755ef"


def _fraction_repr(std):
    """``std`` printed with each row as ``(column, Fraction)`` terms and a
    ``Fraction`` right-hand side, so the digest pins the rationals read."""
    rows = [std.fraction_row(i) for i in range(std.num_rows)]
    terms, rhs = tuple(t for t, _ in rows), tuple(b for _, b in rows)
    return (
        f"StdLp(columns={std.columns!r}, rows={terms!r}, rhs={rhs!r}, "
        f"constraint_rows={std.constraint_rows!r})"
    )


def test_reader_output_on_the_benchmark_dumps_matches_its_golden_digest(tmp_path):
    """Also the writer's round trip: a program read back and written again
    reads back equal, and writing that once more gives the same bytes."""
    instances = perfbench_instances(0)
    digest = hashlib.sha256()
    for name in ("ring-3", "ring-4", "sysadmin-3"):
        mdp = instances[name]
        steps = []
        api(mdp, ApiConfig(order=elimination_order(mdp, "min-degree")), trace=steps)
        lp_path, cert_path = tmp_path / f"{name}.lp", tmp_path / f"{name}.cert"
        write_lp(lp_path, steps[-1]["std"])
        write_certificate(cert_path, steps[-1]["std"], steps[-1]["certificate"])
        std = read_lp(lp_path)
        digest.update(_fraction_repr(std).encode())
        digest.update(repr(read_certificate(cert_path, std)).encode())
        again, last = tmp_path / f"{name}.again.lp", tmp_path / f"{name}.last.lp"
        write_lp(again, std)
        back = read_lp(again)
        assert back == std
        write_lp(last, back)
        assert last.read_bytes() == again.read_bytes()
    assert digest.hexdigest() == GOLDEN_READER
