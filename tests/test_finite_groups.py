"""Constructors, table verification, evaluation, and commutator machinery."""

import random
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
    group_from_spec,
    group_to_spec,
    sym3_fink,
)
from groupwidths.free_words import MonoidWord, parse_monoid_word


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
        with pytest.raises(ValueError):
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
        with pytest.raises(ValueError, match="not associative"):
            group_from_spec(spec, cap=2048)

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
