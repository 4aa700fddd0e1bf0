"""Round trips through the program, certificate and model file formats."""

import hashlib
import importlib
import random
import re
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import (
    BIG_DENOMINATOR_LARGE,
    SMALL,
    Lp,
    column_order,
    flatten,
    make_constraint,
    models,
    perfbench_instances,
    random_token_lp,
)

from fmdp.api import ApiConfig, api
from fmdp.certify import check_infeasible, check_optimality, check_unbounded
from fmdp.errors import InvalidInputError
from fmdp.factored import PartialState
from fmdp.lp import PHI, FnId, FnVar, Infeasible, Optimal, Tag, Unbounded, Weight
from fmdp.lpio import read_certificate, read_lp, variable_tokens, write_certificate, write_lp
from fmdp.mdpio import load_mdp, mdp_from_json_dict, mdp_to_json_dict, save_mdp
from fmdp.model import elimination_order, make_ring
from fmdp.simplex import solve_lp

lpio_module = importlib.import_module("fmdp.lpio")


def _tokenized_rows(std, tokens):
    named = []
    for sparse, rhs in zip(std.rows, std.rhs):
        named.append(({tokens[std.columns[j]]: q for j, q in sparse}, rhs))
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


def test_fn_var_token_shape():
    lp = _internal_lp()
    tokens = variable_tokens(
        [v for con in lp.constraints for v, _ in con.coefs]
    )
    fn_tokens = sorted(t for t in tokens.values() if t.startswith("f"))
    assert re.fullmatch(r"f[0-9a-f]{8}_c0_0\.1-2\.0", fn_tokens[0])
    assert re.fullmatch(r"f[0-9a-f]{8}_e1_", fn_tokens[1])


def test_lp_round_trip_preserves_structure(tmp_path):
    lp = _internal_lp()
    path = tmp_path / "block.lp"
    std_in = flatten(lp)
    write_lp(path, std_in)
    std_back = read_lp(path)
    tokens_in = variable_tokens(std_in.columns)
    tokens_back = {v: v for v in std_back.columns}
    assert _tokenized_rows(std_in, tokens_in) == _tokenized_rows(std_back, tokens_back)
    assert tokens_in[std_in.columns[0]] == std_back.columns[0] == "phi"
    assert std_back.constraint_rows == ((0, 1), (2,), (3,))


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
    # The writer refuses a name the reader would split or misread.
    for name in ("a:b", "a b"):
        with pytest.raises(InvalidInputError, match=f"variable token {name!r} is not writable"):
            write_lp(tmp_path / "out.lp", flatten(Lp((make_constraint("le", {name: Fraction(1)}, 1),), name)))


def test_writers_refuse_non_ascii_tokens_and_leave_no_file(tmp_path):
    lp = Lp((make_constraint("le", {"\u00e9": Fraction(1)}, 1),), "\u00e9")
    std = flatten(lp)
    with pytest.raises(InvalidInputError, match=r"out\.lp: not ascii text"):
        write_lp(tmp_path / "out.lp", std)
    with pytest.raises(InvalidInputError, match=r"out\.cert: not ascii text"):
        write_certificate(tmp_path / "out.cert", std, Optimal((Fraction(1),), (Fraction(0),)))
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
    assert [std.rhs[rows[0]] for rows in std.constraint_rows] == [Fraction(1, 2), 0, 3]
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
    # The negated half of every equality shares one object per distinct
    # coefficient object.
    negated: dict[int, Fraction] = {}
    for produced in std.constraint_rows:
        if len(produced) == 2:
            k, n = produced
            pairs = [(std.rhs[k], std.rhs[n])]
            pairs += [(q, m) for (_, q), (_, m) in zip(std.rows[k], std.rows[n])]
            for q, m in pairs:
                assert m == -q and negated.setdefault(id(q), m) is m


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


# SHA-256 over the repr of read_lp(lp) and of read_certificate(cert, std)
# for each final program and certificate below.
GOLDEN_READER = "54dee85080a5b0e08543b71d780cf33ca0f04eea20bc4ae065680d25d2c755ef"


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
        digest.update(repr(std).encode())
        digest.update(repr(read_certificate(cert_path, std)).encode())
        again, last = tmp_path / f"{name}.again.lp", tmp_path / f"{name}.last.lp"
        write_lp(again, std)
        back = read_lp(again)
        assert back == std
        write_lp(last, back)
        assert last.read_bytes() == again.read_bytes()
    assert digest.hexdigest() == GOLDEN_READER
