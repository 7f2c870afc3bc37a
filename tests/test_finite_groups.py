"""Constructors, table verification, evaluation, and commutator machinery."""

import json
import random
import re
import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupwidths.finite_groups import (
    CapExceeded,
    FiniteGroup,
    abelian_group,
    are_isomorphic,
    commutator_set,
    commutator_subgroup,
    commutator_width,
    cyclic,
    dihedral,
    direct_product,
    evaluate,
    find_isomorphism,
    sym3_fink,
)
from groupwidths.free_words import MonoidWord, parse_monoid_word
from groupwidths.pal_width import NOTIONS, palindromic_width
from groupwidths.specs import group_from_spec, group_to_spec, spec_from_json

from conftest import direct_products, moved_identity


class TestConstructors:
    def test_cyclic2_gens(self):
        G = cyclic(2)
        assert G.order == 2
        assert G.gens == [("a", 1)]  # self-inverse generator, single label

    def test_cyclic_gens_paired(self):
        G = cyclic(5)
        assert dict(G.gens) == {"a": 1, "a^-1": 4}

    def test_sym3_fink(self):
        G = sym3_fink()
        assert G.order == 6
        labels = dict(G.gens)
        assert G.table[labels["s1"]][labels["s2"]] == labels["c"]
        assert G.element_order(labels["c"]) == 3
        assert G.inverse[labels["c"]] == labels["c^-1"]

    def test_direct_product_labels(self):
        G = direct_product(cyclic(4), cyclic(4))
        assert G.order == 16
        assert sorted(G.labels) == ["a", "a^-1", "b", "b^-1"]

    def test_direct_product_labels_run_out(self):
        def c2(labels):
            gens = [[label, 1] for label in labels]
            return group_from_spec({"kind": "table", "table": [[0, 1], [1, 0]], "gens": gens})

        # the last fresh letter is still found; with none left it is a ValueError
        assert direct_product(c2(string.ascii_lowercase[:25]), c2("a")).labels["z"] == 1
        with pytest.raises(ValueError, match="no fresh lowercase letter"):
            direct_product(c2(string.ascii_lowercase), c2(string.ascii_lowercase))

    def test_dihedral(self):
        G = dihedral(4)
        assert G.order == 8
        assert not G.is_abelian()
        s, r = G.labels["s"], G.labels["r"]
        # s r s = r^-1
        assert G.table[G.table[s][r]][s] == G.inverse[r]

    def test_abelian_group(self):
        G = abelian_group([2, 3])
        assert G.order == 6 and G.is_abelian()
        assert sorted(G.labels) == ["a", "b", "b^-1"]

    def test_cap(self):
        with pytest.raises(CapExceeded):
            cyclic(10, cap=4)
        with pytest.raises(CapExceeded):
            direct_product(cyclic(30), cyclic(30), cap=512)


class TestTableVerification:
    def test_rejects_non_associative(self):
        # flip one entry of the C3 table
        table = [[(i + j) % 3 for j in range(3)] for i in range(3)]
        table[1][1] = 1
        with pytest.raises(ValueError, match=re.escape("not associative (witness a=1)")):
            FiniteGroup(table, [("a", 1), ("a^-1", 2)])

    def test_rejects_non_symmetric_gens(self):
        table = [[(i + j) % 3 for j in range(3)] for i in range(3)]
        with pytest.raises(ValueError):
            FiniteGroup(table, [("a", 1)])

    def test_rejects_non_generating(self):
        G = abelian_group([2, 2])
        with pytest.raises(ValueError):
            FiniteGroup(G.table, [("a", G.labels["a"])])

    def test_rejects_non_associative_at_order_1024(self):
        # identity and inverses survive the flip, so only associativity
        # can catch it; orders above 512 were once only spot-checked
        spec = group_to_spec(cyclic(1024, cap=2048))
        spec["table"][5][7] = 13
        with pytest.raises(ValueError, match=re.escape("not associative (witness a=1)")):
            group_from_spec(spec, cap=2048)
        # the same table read from text, straight into an array
        with pytest.raises(ValueError, match=re.escape("not associative (witness a=1)")):
            group_from_spec(spec_from_json(json.dumps(spec)), cap=2048)

    def test_table_is_read_only_int32(self):
        G = direct_product(dihedral(5), cyclic(3))
        assert G.table.dtype == np.int32 and G.table.flags.c_contiguous
        with pytest.raises(ValueError):
            G.table[0, 0] = 1
        scalars = [G.identity, G.order, G.mul(1, 2), G.inv(1), *G.labels.values()]
        scalars += [g for _, g in G.gens]
        scalars += [evaluate(G, parse_monoid_word("r s a")), G.element_from_label_word("r*a")]
        assert all(type(x) is int for x in scalars)


# real groups of orders 2-6 as tables with identity 0
BASE_TABLES = [
    group_to_spec(G)["table"] for G in [*map(cyclic, range(2, 7)), dihedral(2), sym3_fink()]
]


@st.composite
def labeled_magmas(draw):
    """A relabeled group table, with one entry overwritten half the time,
    and generator labels on an inverse-closed subset of the group."""
    base = draw(st.sampled_from(BASE_TABLES))
    n = len(base)
    perm = draw(st.permutations(range(n)))
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            table[perm[a]][perm[b]] = perm[base[a][b]]
    inverse = {perm[a]: perm[base[a].index(0)] for a in range(n)}
    if draw(st.booleans()):
        a, b, c = (draw(st.integers(0, n - 1)) for _ in range(3))
        table[a][b] = c
    chosen = draw(st.sets(st.integers(0, n - 1)))
    ids = sorted(chosen | {inverse[g] for g in chosen})
    return table, [(f"g{g}", g) for g in ids]


def brute_force_is_group(table, gen_ids) -> bool:
    """Unique identity, unique two-sided inverses, all n^3 triples
    associative, a symmetric generating set, and generation."""
    n = len(table)
    ones = [e for e in range(n) if all(table[e][g] == g == table[g][e] for g in range(n))]
    if len(ones) != 1:
        return False
    e = ones[0]
    inverse = {}
    for g in range(n):
        hs = [h for h in range(n) if table[g][h] == e == table[h][g]]
        if len(hs) != 1:
            return False
        inverse[g] = hs[0]
    r = range(n)
    if any(table[table[a][b]][c] != table[a][table[b][c]] for a in r for b in r for c in r):
        return False
    if any(inverse[g] not in gen_ids for g in gen_ids):
        return False
    reached = {e}
    while True:
        grown = reached | {table[g][a] for g in reached for a in gen_ids}
        if grown == reached:
            return len(reached) == n
        reached = grown


class TestGeneratorReduction:
    @settings(max_examples=300, deadline=None)
    @given(labeled_magmas())
    def test_accepts_exactly_the_groups(self, magma):
        table, gens = magma
        try:
            FiniteGroup(table, gens)
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == brute_force_is_group(table, {g for _, g in gens})


class TestEvaluate:
    def test_involution(self):
        G = sym3_fink()
        assert evaluate(G, parse_monoid_word("s1 s1")) == G.identity

    def test_relator_vs_its_reversal(self):
        G = sym3_fink()
        r = parse_monoid_word("c s1 s2 s1 s2")
        assert evaluate(G, r) == G.identity
        rbar = evaluate(G, r.reverse())
        assert rbar != G.identity
        assert G.element_order(rbar) == 3

    def test_homomorphism_random(self):
        G = dihedral(5)
        rng = random.Random(3)
        letters = list(G.labels)
        for _ in range(200):
            u = MonoidWord(tuple(rng.choice(letters) for _ in range(rng.randrange(8))))
            v = MonoidWord(tuple(rng.choice(letters) for _ in range(rng.randrange(8))))
            assert evaluate(G, u * v) == G.table[evaluate(G, u)][evaluate(G, v)]
        assert evaluate(G, MonoidWord()) == G.identity

    def test_unknown_label(self):
        with pytest.raises(ValueError):
            evaluate(cyclic(3), MonoidWord(("zz",)))


class TestCommutators:
    def test_cyclic_width_zero(self):
        assert commutator_width(cyclic(6)) == 0

    def test_sym3_derived_subgroup(self):
        G = sym3_fink()
        # brute force over all 36 commutators
        brute = {
            G.table[G.table[G.table[G.inverse[g]][G.inverse[h]]][g]][h]
            for g in G.elements()
            for h in G.elements()
        }
        expected = {G.identity, G.labels["c"], G.labels["c^-1"]}
        assert brute == expected
        assert commutator_subgroup(G) == expected
        assert commutator_set(G) == expected  # every derived element is one commutator
        assert commutator_width(G) == 1

    def test_dihedral4_width(self):
        G = dihedral(4)
        assert commutator_width(G) == 1
        assert len(commutator_subgroup(G)) == 2

    def test_derived_subgroup_is_computed_once_on_first_use(self):
        for G in (cyclic(6), dihedral(4), sym3_fink(), direct_product(sym3_fink(), dihedral(3))):
            assert "derived_subgroup" not in vars(G)
            derived = G.derived_subgroup
            assert type(derived) is frozenset and derived == commutator_subgroup(G)
            assert G.derived_subgroup is derived


class TestDirectProductCanonical:
    def test_commutative_up_to_swap(self):
        A, B = cyclic(3), dihedral(3)
        AB, BA = direct_product(A, B), direct_product(B, A)
        perm = [0] * AB.order
        for a in range(A.order):
            for b in range(B.order):
                perm[a * B.order + b] = b * A.order + a
        for x in range(AB.order):
            for y in range(AB.order):
                assert perm[AB.table[x][y]] == BA.table[perm[x]][perm[y]]

    def test_associative_encoding(self):
        A, B, C = cyclic(2), cyclic(3), cyclic(4)
        left = direct_product(direct_product(A, B), C)
        right = direct_product(A, direct_product(B, C))
        assert np.array_equal(left.table, right.table)  # mixed-radix encodings coincide


def eager_product_table(G, H):
    """The product table as ``direct_product`` once built it at construction."""
    n = G.order * H.order
    return (G.table[:, None, :, None] * H.order + H.table[None, :, None, :]).reshape(n, n)


class TestLazyProductTable:
    # (product, its left and right arguments) for S3 x D4, both bracketings
    # of C2 x C2 x C3, and factors whose identity is not id 0
    @staticmethod
    def products():
        S, D = sym3_fink(), dihedral(4)
        C2, C3 = cyclic(2), cyclic(3)
        left, right = direct_product(C2, C2), direct_product(C2, C3)
        moved_s, moved_c = moved_identity(S, 7), moved_identity(cyclic(4), 8)
        return [
            (direct_product(S, D), S, D),
            (direct_product(left, C3), left, C3),
            (direct_product(C2, right), C2, right),
            (direct_product(moved_s, moved_c), moved_s, moved_c),
        ]

    def test_first_read_builds_the_eager_table_and_verifies_it_once(self, monkeypatch):
        calls = []
        verify_gens = FiniteGroup._verify_gens

        def spy(self):
            calls.append(self.name)
            verify_gens(self)

        for P, G, H in self.products():
            # a nested product's arguments build no table of their own either
            assert not any("table" in vars(X) for X in (P, G, H) if X.factors)
            expected = eager_product_table(G, H)
            monkeypatch.setattr(FiniteGroup, "_verify_gens", spy)
            table = P.table
            assert calls == [P.name]
            assert P.table is table and calls == [P.name]
            monkeypatch.undo()
            calls.clear()
            assert np.array_equal(table, expected)
            assert table.dtype == np.int32 and not table.flags.writeable

    def test_stored_structure_equals_the_one_recomputed_from_the_table(self):
        for P, G, H in self.products():
            ref = FiniteGroup(np.array(P.table), P.gens, name=P.name)
            assert (P.order, P.identity) == (ref.order, ref.identity)
            assert np.array_equal(P.inverse, ref.inverse)
            assert np.array_equal(P.gen_ids, ref.gen_ids) and P.labels == ref.labels
        assert self.products()[-1][0].identity != 0

    def test_identity_or_inverse_mismatch_raises_and_caches_nothing(self):
        for corrupt in ("identity", "inverse"):
            P = direct_product(cyclic(3), cyclic(2))
            if corrupt == "identity":
                P.identity = 1
            else:
                P.inverse = P.inverse[::-1].copy()
            with pytest.raises(AssertionError, match="differ from the factors'"):
                P.table
            assert "table" not in vars(P)

    def test_repr_builds_no_table(self):
        P = direct_product(sym3_fink(), cyclic(2))
        assert "order=12" in repr(P) and "S3xC2" in repr(P)
        assert "table" not in vars(P)
        assert "table" in vars(cyclic(2))


class TestIsomorphism:
    def test_self(self):
        G = dihedral(4)
        assert find_isomorphism(G, G) is not None

    def test_rejects(self):
        assert not are_isomorphic(cyclic(4), abelian_group([2, 2]))
        assert not are_isomorphic(dihedral(3), cyclic(6))

    def test_accepts(self):
        assert are_isomorphic(dihedral(3), sym3_fink())
        assert are_isomorphic(abelian_group([2, 3]), cyclic(6))


class TestSpecs:
    def test_round_trip(self):
        for G in (cyclic(5), dihedral(4), sym3_fink()):
            H = group_from_spec(group_to_spec(G))
            assert np.array_equal(H.table, G.table) and H.gens == G.gens

    @settings(max_examples=25, deadline=None)
    @given(direct_products(max_order=300))
    def test_nested_products_round_trip_to_table_groups(self, G):
        H = group_from_spec(group_to_spec(G))
        assert np.array_equal(H.table, G.table)
        assert (H.gens, H.name) == (G.gens, G.name)
        assert H.factors == () and len(G.factors) >= 2
        for notion in NOTIONS:
            assert palindromic_width(H, notion) == palindromic_width(G, notion)

    def test_kinds(self):
        spec = {"kind": "direct_product", "factors": [{"kind": "cyclic", "n": 4}, {"kind": "cyclic", "n": 4}]}
        assert group_from_spec(spec).order == 16
        with pytest.raises(ValueError):
            group_from_spec({"kind": "frobnicate"})
        with pytest.raises(ValueError):
            group_from_spec({"no": "kind"})

    def test_direct_product_factors_must_be_a_list(self):
        for bad in (5, 2.5, True, None, "ab", {"kind": "cyclic", "n": 2}):
            with pytest.raises(ValueError, match="factors must be a list"):
                group_from_spec({"kind": "direct_product", "factors": bad})

    def test_rejects_ragged_rows(self):
        spec = {"kind": "table", "table": [[0, 1], [1]], "gens": [["a", 1]]}
        with pytest.raises(ValueError, match="row 1 has length 1"):
            group_from_spec(spec)

    @pytest.mark.parametrize(
        "label", [None, [1, 2], "a*b", "", "1", 5, "a b", "a\tb", "a;b", "a,b", "[a", "a]"]
    )
    def test_rejects_labels_the_text_formats_cannot_read_back(self, label):
        spec = {"kind": "table", "table": [[0, 1], [1, 0]], "gens": [[label, 1]]}
        with pytest.raises(ValueError, match=re.escape(f"generator label {label!r}")):
            group_from_spec(spec)

    @pytest.mark.parametrize("label", ["a", "a^-1", "s1", "x_2", "é"])
    def test_accepted_labels_round_trip_through_label_words(self, label):
        G = group_from_spec({"kind": "table", "table": [[0, 1], [1, 0]], "gens": [[label, 1]]})
        assert G.shortest_label_word(1) == label
        assert G.element_from_label_word(G.shortest_label_word(1)) == 1

    @pytest.mark.parametrize("entry", [10**30, -(10**30), 2**63, -(2**63) - 1])
    def test_an_entry_past_int64_is_named_out_of_range(self, entry):
        # as a list, and as text, which the reader leaves to json (19+ digits)
        spec = {"kind": "table", "table": [[0, 1], [1, entry]], "gens": [["a", 1]]}
        for read in (spec, spec_from_json(json.dumps(spec))):
            with pytest.raises(ValueError, match=re.escape(f"table entry {entry} out of range")):
                group_from_spec(read)


# JSON whitespace, and entries of a table that are not JSON integers, or
# not JSON at all
json_ws = st.text(alphabet=" \t\n\r", max_size=2)
flawed_entries = st.sampled_from([
    "-0", "00", "01", "-01", "0.5", "1.0", "1e3", "2E-1", "-", "--1", "1-2", "1 2", "- 1",
    "true", "null", "[1]", "[]", "1,", "", '"1"', "é", str(10**18), str(-(10**18) + 1),
])


@st.composite
def table_texts(draw):
    """The text of a table: equal-length rows of integers with random
    whitespace around every token, or one flaw: an entry from
    ``flawed_entries``, a row of another length (empty included), or a
    trailing comma."""
    n_rows, n_cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    numbers = st.sampled_from([st.integers(-3, 30), st.integers(-3, 30), st.integers(-(10**19), 10**19)])
    entry = draw(numbers).map(str)
    rows = [[draw(entry) for _ in range(n_cols)] for _ in range(n_rows)]
    flaw = draw(st.sampled_from([None, None, None, "entry", "row", "comma"]))
    if flaw == "entry":
        rows[draw(st.integers(0, n_rows - 1))][draw(st.integers(0, n_cols - 1))] = draw(flawed_entries)
    elif flaw == "row":
        rows[draw(st.integers(0, n_rows - 1))] = draw(st.lists(entry, max_size=5))
    comma = lambda: draw(json_ws) + "," + draw(json_ws)
    trailing = comma() if flaw == "comma" else ""
    body = comma().join("[" + draw(json_ws) + comma().join(row) + draw(json_ws) + "]" for row in rows)
    return "[" + draw(json_ws) + body + trailing + draw(json_ws) + "]"


@st.composite
def spec_texts(draw, depth: int = 0):
    """The text of a spec-like object: a "table" key, at times a list of
    such objects as direct_product factors, and keys that hold a table or
    the string "table" but are not "table" (non-ASCII ones included)."""
    fields = [("kind", '"table"'), ("table", draw(table_texts()))]
    for key in draw(st.lists(st.sampled_from(["mytable", "Table", "tables", "name", "gens", "é", "表"]), max_size=2)):
        fields.append((key, draw(st.one_of(table_texts(), st.sampled_from(['"table"', '"é"', '[["a", 1]]', "null"])))))
    if depth < 2 and draw(st.booleans()):
        factors = draw(st.lists(spec_texts(depth + 1), min_size=1, max_size=2))
        fields.append(("factors", "[" + draw(json_ws) + ", ".join(factors) + "]"))
    fields = draw(st.permutations(fields))
    texts = [json.dumps(k, ensure_ascii=draw(st.booleans())) + draw(json_ws) + ":" + draw(json_ws) + v for k, v in fields]
    return "{" + draw(json_ws) + ("," + draw(json_ws)).join(texts) + draw(json_ws) + "}"


def as_lists(value, key=None):
    """``value`` with its arrays as lists; only a "table" key holds one."""
    if isinstance(value, np.ndarray):
        assert key == "table" and value.ndim == 2 and value.dtype == np.int64
        return value.tolist()
    if isinstance(value, dict):
        return {k: as_lists(v, k) for k, v in value.items()}
    if isinstance(value, list):
        return [as_lists(v) for v in value]
    return value


class TestSpecFromJson:
    @settings(max_examples=400, deadline=None)
    @given(st.one_of(spec_texts(), table_texts()))
    def test_reads_what_json_loads_reads(self, text):
        try:
            expected = json.loads(text)
        except ValueError as exc:
            with pytest.raises(type(exc)) as raised:
                spec_from_json(text)
            assert str(raised.value) == str(exc)
            return
        assert as_lists(spec_from_json(text)) == expected

    @pytest.mark.parametrize("indent", [None, 0, 2, "\t"])
    @pytest.mark.parametrize("separators", [None, (",", ":"), (" , ", " :\r\n")])
    def test_integer_rows_come_back_as_one_array(self, indent, separators):
        G = dihedral(5)
        spec = {"kind": "direct_product", "factors": [group_to_spec(G), {"kind": "cyclic", "n": 2}]}
        read = spec_from_json(json.dumps(spec, indent=indent, separators=separators))
        table = read["factors"][0]["table"]
        assert isinstance(table, np.ndarray) and np.array_equal(table, G.table)
        assert np.array_equal(group_from_spec(read).table, direct_product(G, cyclic(2)).table)

    def test_minus_zero_and_a_non_ascii_name_still_read_as_an_array(self):
        spec = dict(group_to_spec(dihedral(3)), name="Dé₃")
        text = json.dumps(spec, ensure_ascii=False).replace("[0, ", "[-0, ")
        assert '"table": [[-0, 1, ' in text
        read = spec_from_json(text)
        assert isinstance(read["table"], np.ndarray) and read["name"] == "Dé₃"
        H = group_from_spec(read)
        assert np.array_equal(H.table, dihedral(3).table) and H.gens == dihedral(3).gens

    def test_square_and_cap_checks_keep_their_messages(self):
        text = '{"kind": "table", "table": [[0, 1, 2], [1, 0, 2]], "gens": [["a", 1]]}'
        with pytest.raises(ValueError, match=re.escape("row 0 has length 3, expected 2")):
            group_from_spec(spec_from_json(text))
        with pytest.raises(CapExceeded, match="order 2 exceeds cap 1"):
            group_from_spec(spec_from_json(text), cap=1)

    def test_deep_nesting_is_a_value_error(self):
        with pytest.raises(ValueError, match="nested too deeply"):
            spec_from_json("[" * 100_000 + "]" * 100_000)
        # with a "table" key the text goes through the Python scanner, which
        # reaches fewer levels; either way the error is the same
        with pytest.raises(ValueError, match="nested too deeply"):
            spec_from_json('{"table": 1, "x": ' + "[" * 5_000 + "]" * 5_000 + "}")

    def test_a_200_deep_product_reads_again(self):
        # 400 levels of nesting: more than the Python scanner reaches, and a
        # text with no "table" key goes to json.loads as it is
        spec = {"kind": "cyclic", "n": 2}
        for _ in range(200):
            spec = {"kind": "direct_product", "factors": [spec, {"kind": "cyclic", "n": 1}]}
        text = json.dumps(spec)
        assert spec_from_json(text) == json.loads(text) == spec
        G = group_from_spec(spec_from_json(text))
        assert (G.order, len(G.factors)) == (2, 201)

    def test_an_escaped_table_key_builds_the_same_group(self):
        plain = json.dumps(group_to_spec(dihedral(4)))
        assert plain.count('"table"') == 2  # the kind and the key
        H = group_from_spec(spec_from_json(plain))
        # the key escaped, then the kind too: the rows come back as lists,
        # through the Python scanner and then through json.loads itself
        key_escaped = plain.replace('"table":', '"\\u0074able":')
        both_escaped = key_escaped.replace('"table"', '"\\u0074able"')
        assert '"table"' not in both_escaped
        for text in (key_escaped, both_escaped):
            read = spec_from_json(text)
            assert read == json.loads(text) and isinstance(read["table"], list)
            G = group_from_spec(read)
            assert np.array_equal(G.table, H.table) and G.gens == H.gens and G.name == H.name
