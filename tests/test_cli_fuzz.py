"""CLI fuzz: every input, valid or not, gives exit 0, 2 or 3 and a clean
report or one-line error, never a traceback.

``cli.main`` runs in-process on random texts (``qh``, ``decompose``) and
random JSON (``pw``, ``nilprod``, ``qh --top``).  The inputs are mostly
well formed, with flaws drawn in: a field missing or of the wrong type,
non-list ``factors``, non-dict specs, ragged tables, floats, bools, null,
raw bytes, stray brackets and unknown letters.  Specs are written with a
random indent and separators, so that a table is read both straight into
an array and, when flawed, as lists.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupwidths import cli
from groupwidths.decompose import s3_wreath_context
from groupwidths.specs import group_from_spec
from groupwidths.wreath import parse_wreath_element

# a JSON value of any type
weird = st.one_of(
    st.integers(),
    st.floats(),
    st.booleans(),
    st.none(),
    st.text(max_size=3),
    st.lists(st.integers(-1, 3), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


def one_in(draw, n: int) -> bool:
    # true on the largest draw, so that hypothesis's simplest case is false
    return draw(st.integers(1, n)) == n


def flawed(draw, value):
    """``value``, or one time in five a JSON value of any type."""
    return draw(weird) if one_in(draw, 5) else value


@st.composite
def table_specs(draw):
    n = draw(st.integers(1, 4))
    rows = [[(i + j) % n for j in range(n)] for i in range(n)]
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    flaw = draw(st.sampled_from(["entry", "ragged", "row"])) if one_in(draw, 3) else None
    if flaw == "entry":
        rows[i][j] = draw(weird)
    elif flaw == "ragged":
        rows[i].pop()
    elif flaw == "row":
        rows[i] = draw(weird)
    gens = [
        flawed(draw, [flawed(draw, draw(st.sampled_from(["a", "b", "a^-1", "z"]))), flawed(draw, k)])
        for k in draw(st.lists(st.integers(0, n - 1), max_size=3))
    ]
    return {"kind": "table", "table": rows, "gens": flawed(draw, gens)}


def json_texts(value):
    """``value`` as JSON text in a random layout."""
    return st.builds(
        json.dumps,
        st.just(value),
        indent=st.sampled_from([None, None, 0, 2, "\t"]),
        separators=st.sampled_from([None, (",", ":"), (" ,\r", " :\n"), (",\t", ":")]),
    )


@st.composite
def group_specs(draw, depth: int = 0):
    kinds = ["cyclic", "dihedral", "sym3_fink", "table"] + ["direct_product"] * (depth < 2)
    kind = draw(st.sampled_from(kinds))
    if kind in ("cyclic", "dihedral"):
        spec = {"kind": kind, "n": flawed(draw, draw(st.integers(1, 12)))}
    elif kind == "table":
        spec = draw(table_specs())
    elif kind == "direct_product":
        factors = [draw(group_specs(depth + 1)) for _ in range(draw(st.integers(1, 3)))]
        spec = {"kind": kind, "factors": flawed(draw, factors)}
    else:
        spec = {"kind": kind}
    if one_in(draw, 10):
        del spec[draw(st.sampled_from(sorted(spec)))]
    return flawed(draw, spec) if depth == 0 else spec


@st.composite
def nilprod_specs(draw):
    factors = []
    for _ in range(draw(st.integers(1, 3))):
        moduli = [flawed(draw, m) for m in draw(st.lists(st.integers(1, 6), min_size=1, max_size=2))]
        factors.append(flawed(draw, {"moduli": flawed(draw, moduli)}))
    form = draw(st.sampled_from(["list", "list", "object", "one factor"]))
    if form == "object":
        return {"factors": flawed(draw, factors)}
    return factors[0] if form == "one factor" and factors else factors


# wreath element texts "[w1; ...; wl] k".  Exponents reach 10^9 in
# absolute value: decompose emits a number of letters proportional to
# them, and a text that asks for more than its letter cap exits 3.
text_pieces = st.sampled_from(
    ["[", "]", ";", " ", ",", "x", "^", "-", "^-1", "^3", "0", "s1", "c", "*", "[x,y]", "x^2", "é"]
)
powers = st.builds(
    "x{}^{}".format,
    st.sampled_from([1, 2] * 10 + [3, 2**62]),
    st.one_of(st.integers(-999, 999), st.integers(-(10**9), 10**9)),
)
syllables = st.one_of(
    powers,
    powers,
    st.sampled_from(["x", "y", "x^-1", "y^-1", "x1", "x2", "1"]),
    st.builds("[{},{}]".format, powers, powers),
)


@st.composite
def free_texts(draw):
    atoms = [draw(text_pieces) if one_in(draw, 10) else draw(syllables) for _ in range(draw(st.integers(0, 4)))]
    return " ".join(atoms)


@st.composite
def wreath_texts(draw, size: int):
    if one_in(draw, 5):
        return "".join(draw(st.lists(text_pieces, max_size=30)))
    count = draw(st.integers(0, 7)) if one_in(draw, 5) else size
    words = [draw(free_texts()) for _ in range(count)]
    top = draw(st.text(max_size=4) if one_in(draw, 5) else st.sampled_from(["1", "c", "s1*s2", "c^-1*s1", "s2"]))
    return f"[{'; '.join(words)}] {top}"


caps = st.sampled_from([[], ["--cap", "1"], ["--cap", "64"]])


def assert_clean_exit(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 2, 3), (argv, code, err.getvalue())
    if code == 0:
        assert isinstance(json.loads(out.getvalue()), dict)
    else:
        assert out.getvalue() == "" and err.getvalue().startswith("error: "), (argv, err.getvalue())
    return code


@pytest.fixture(scope="module")
def spec_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "spec.json"


@settings(max_examples=150, deadline=None)
@given(
    spec=st.one_of(group_specs().flatmap(json_texts).map(str.encode), st.binary(max_size=20)),
    notion=st.sampled_from(["word", "group"]),
    cap=caps,
)
def test_pw(spec_path, spec, notion, cap):
    spec_path.write_bytes(spec)
    assert_clean_exit(["pw", str(spec_path), "--notion", notion, *cap])


@settings(max_examples=100, deadline=None)
@given(spec=nilprod_specs(), no_exact=st.sampled_from([[], ["--no-exact"]]), cap=caps)
def test_nilprod(spec_path, spec, no_exact, cap):
    spec_path.write_text(json.dumps(spec))
    assert_clean_exit(["nilprod", str(spec_path), *no_exact, *cap])


@settings(max_examples=150, deadline=None)
@given(text=wreath_texts(6), rank=st.sampled_from([[], [], ["--rank", "0"], ["--rank", "3"]]))
def test_qh(text, rank):
    assert_clean_exit(["qh", *rank, "--", text])


@settings(max_examples=100, deadline=None)
@given(top=group_specs(), data=st.data(), cap=caps)
def test_qh_top(spec_path, top, data, cap):
    # as many coordinates as the top has elements, when the top builds
    try:
        size = group_from_spec(top).order
    except Exception:
        size = data.draw(st.integers(1, 7))
    text = data.draw(wreath_texts(size))
    spec_path.write_text(data.draw(json_texts(top)))
    assert_clean_exit(["qh", "--top", str(spec_path), *cap, "--", text])


@settings(max_examples=150, deadline=None)
@given(text=wreath_texts(6))
def test_decompose(text):
    code = assert_clean_exit(["decompose", "--", text])
    # an element whose coordinates parse is decomposed or capped
    try:
        parse_wreath_element(s3_wreath_context().group, text)
    except ValueError:
        return
    assert code in (0, 3), (text, code)
