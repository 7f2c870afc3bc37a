"""Pair reachability, palindrome element sets, and exact widths."""

import contextlib
import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupwidths import finite_groups
from groupwidths.finite_groups import (
    FiniteGroup,
    abelian_group,
    cyclic,
    dihedral,
    direct_product,
    sym3_fink,
)
from groupwidths.nilprod import NilProdGroup, bound_report, nilprod2_multi
from groupwidths.pal_width import (
    NOTIONS,
    WidthReport,
    palindrome_elements,
    palindromic_width,
    reachable_pairs,
)
from groupwidths.specs import group_from_spec, group_to_spec

from conftest import bracketed, direct_products, traced_peak_mib
from oracle import brute_width_data


def pair_set(reach):
    return set(map(tuple, reach.pairs.tolist()))


class TestReachablePairs:
    def test_cyclic2(self):
        # in an abelian group a word and its reverse evaluate equally,
        # so only the diagonal is reachable
        assert pair_set(reachable_pairs(cyclic(2))) == {(0, 0), (1, 1)}

    def test_closure_exhaustive(self):
        G = sym3_fink()
        pairs = pair_set(reachable_pairs(G))
        assert (G.identity, G.identity) in pairs
        for g, h in pairs:
            for _, a in G.gens:
                assert (G.table[g][a], G.table[a][h]) in pairs

    def test_relator_pair(self):
        G = sym3_fink()
        c2 = G.table[G.labels["c"]][G.labels["c"]]
        assert (G.identity, c2) in pair_set(reachable_pairs(G))


class TestPalindromeElements:
    def test_abelian_group_notion_is_everything(self):
        for G in (cyclic(5), direct_product(cyclic(4), cyclic(4)), cyclic(7)):
            assert set(palindrome_elements(G, "group").tolist()) == set(G.elements())

    def test_z3_squared_word_notion_is_everything(self):
        G = direct_product(cyclic(3), cyclic(3))
        assert set(palindrome_elements(G, "word").tolist()) == set(G.elements())

    def test_z4_squared_word_notion_parity(self):
        G = direct_product(cyclic(4), cyclic(4))
        pal = palindrome_elements(G, "word")
        both_odd = G.labels["a"] * 4 + G.labels["b"]  # element (1, 1)
        assert both_odd not in pal
        # a word palindrome reads 2v or 2v + one unit: exactly the
        # vectors with at most one odd coordinate
        expected = {
            a * 4 + b for a in range(4) for b in range(4) if a % 2 == 0 or b % 2 == 0
        }
        assert set(pal.tolist()) == expected

    def test_word_subset_of_group(self):
        for G in (sym3_fink(), dihedral(4), direct_product(cyclic(2), dihedral(3))):
            assert np.isin(palindrome_elements(G, "word"), palindrome_elements(G, "group")).all()

    def test_unknown_notion(self):
        with pytest.raises(ValueError):
            palindrome_elements(cyclic(2), "letter")


class TestWidths:
    def test_cyclic2_word(self):
        assert palindromic_width(cyclic(2), "word").width == 1

    def test_z4_squared(self):
        G = direct_product(cyclic(4), cyclic(4))
        assert palindromic_width(G, "word").width == 2
        assert palindromic_width(G, "group").width == 1

    def test_pair_space_over_four_million_states(self):
        # 2048^2 = 4,194,304 pair states: the order cap bounds the search
        G = cyclic(2048, cap=2048)
        assert palindromic_width(G, "word").width == 1
        assert palindromic_width(G, "group").width == 1

    def test_abelian_group_notion_width_one(self):
        for G in (cyclic(3), cyclic(8), direct_product(cyclic(2), cyclic(6))):
            assert palindromic_width(G, "group").width == 1

    def test_report_invariants(self):
        G = dihedral(4)
        rep = palindromic_width(G, "word")
        assert rep.length[G.identity] == 0
        assert all(k <= rep.width for k in rep.length.tolist())
        assert set(np.flatnonzero(rep.length <= 1).tolist()) == set(rep.palindromes.tolist()) | {G.identity}
        assert rep.layers[0] == 1 and rep.layers[-1] == G.order
        assert len(rep.layers) - 1 == rep.width

    def test_palindromic_length(self):
        G = direct_product(cyclic(4), cyclic(4))
        lengths = palindromic_width(G, "word").length
        assert lengths[G.identity] == 0
        assert lengths[4 + 1] == 2  # element (1, 1)

    def test_group_width_le_word_width(self):
        for G in (sym3_fink(), dihedral(3), dihedral(6), direct_product(cyclic(2), cyclic(4))):
            assert palindromic_width(G, "group").width <= palindromic_width(G, "word").width


class TestPerElementArrays:
    # S3^7, order 279,936: a report holds one length array, and neither
    # entry point builds a Python object per element
    S3_7 = functools.reduce(lambda G, H: direct_product(G, H, cap=6**7), [sym3_fink()] * 7)

    def test_width_report_memory(self):
        rep, peak = traced_peak_mib(lambda: palindromic_width(self.S3_7, "group"))
        assert peak < 16, peak
        assert rep.width == palindromic_width(sym3_fink(), "group").width
        assert rep.layers[-1] == self.S3_7.order
        for array in (rep.length, rep.palindromes):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1

    def test_palindrome_elements_memory(self):
        pal, peak = traced_peak_mib(lambda: palindrome_elements(self.S3_7, "group"))
        assert peak < 8, peak
        assert not pal.flags.writeable
        assert np.array_equal(pal, palindromic_width(self.S3_7, "group").palindromes)

    def test_a_report_derives_everything_from_its_lengths(self):
        rep = WidthReport("word", [0, 1, 2, 1, 2, 2])
        assert (rep.width, rep.layers) == (2, [1, 3, 6])
        assert rep.palindromes.tolist() == [0, 1, 3] and rep.length.dtype == np.intp
        assert rep.lengths == {0: 0, 1: 1, 2: 2, 3: 1, 4: 2, 5: 2}
        assert rep == WidthReport("word", np.array([0, 1, 2, 1, 2, 2]))
        assert rep != WidthReport("group", rep.length) and rep != WidthReport("word", [0, 1, 1, 1, 2, 2])


class TestDirectProductBounds:
    def test_sandwich_on_small_family(self):
        family = [cyclic(m) for m in range(2, 7)] + [dihedral(m) for m in range(3, 6)]
        widths = {G.name: palindromic_width(G, "word").width for G in family}
        for A, B in itertools.combinations_with_replacement(family, 2):
            AB = direct_product(A, B)
            w = palindromic_width(AB, "word").width
            assert max(widths[A.name], widths[B.name]) <= w <= widths[A.name] + widths[B.name], AB.name


class TestAgainstBruteForce:
    def test_agreement_small_orders(self):
        groups = [cyclic(m) for m in range(2, 9)]
        groups += [dihedral(m) for m in range(3, 7)]
        groups += [sym3_fink(), direct_product(cyclic(3), cyclic(3)), direct_product(cyclic(4), cyclic(4))]
        groups += [
            direct_product(sym3_fink(), cyclic(2)),
            direct_product(sym3_fink(), cyclic(3)),
            direct_product(direct_product(cyclic(2), cyclic(2)), cyclic(3)),
            direct_product(sym3_fink(), cyclic(4)),
        ]
        for G in groups:
            assert G.order <= 24
            for notion in ("word", "group"):
                rep = palindromic_width(G, notion)
                pal, lengths, width = brute_width_data(G, notion)
                assert pal == set(rep.palindromes.tolist()), (G.name, notion)
                assert lengths == dict(enumerate(rep.length.tolist())), (G.name, notion)
                assert width == rep.width, (G.name, notion)


def table_twin(G):
    """G rebuilt from its table spec: the same group with no factors, so
    its width runs the pair BFS on its own table."""
    twin = group_from_spec(group_to_spec(G), cap=G.order)
    assert twin.factors == ()
    return twin


class TestProductsFromFactors:
    @settings(max_examples=50, deadline=None)
    @given(direct_products(max_order=1300))
    def test_agrees_with_the_table_path(self, G):
        assert len(G.factors) >= 2
        twin = table_twin(G)
        for notion in NOTIONS:
            rep, ref = palindromic_width(G, notion), palindromic_width(twin, notion)
            assert rep.width == ref.width, (G.name, notion)
            assert rep.layers == ref.layers, (G.name, notion)
            assert np.array_equal(rep.length, ref.length), (G.name, notion)
            assert np.array_equal(rep.palindromes, ref.palindromes), (G.name, notion)

    def test_factors_are_atomic_in_id_order(self):
        S, C, D = sym3_fink(), cyclic(4), dihedral(3)
        G = direct_product(S, direct_product(C, D))
        assert G.factors == (S, C, D)
        assert direct_product(direct_product(S, C), D).factors == (S, C, D)
        assert S.factors == ()

    def test_s3_x_d4_report_equals_its_table_twin(self):
        # the product's pairs (48^2 states) are searched as 6^2 and 8^2 per factor
        G = direct_product(sym3_fink(), dihedral(4))
        twin = table_twin(G)
        for notion in NOTIONS:
            assert palindromic_width(G, notion) == palindromic_width(twin, notion)

    def test_width_path_builds_no_product_table(self, monkeypatch):
        inner = direct_product(dihedral(4), cyclic(3))
        G = direct_product(sym3_fink(), inner)
        for notion in NOTIONS:
            palindromic_width(G, notion)
        assert "table" not in vars(G) and "table" not in vars(inner)
        # bound_report's factor widths: C2 x C2 is a product, C2 is not
        built = []

        def recording(moduli, cap):
            built.append(abelian_group(moduli, cap=cap))
            return built[-1]

        monkeypatch.setattr(finite_groups, "abelian_group", recording)
        report = bound_report(NilProdGroup([[2, 2], [2]]))
        assert report.component_widths == [2, 1] and report.exact is not None
        assert [len(F.factors) for F in built] == [2, 0]
        assert "table" not in vars(built[0])


# atomic factors for the products below: C1 to C4, D3, D4, S3 and the
# order-27 Heisenberg group
ATOMS = [cyclic(m) for m in range(1, 5)] + [dihedral(3), dihedral(4), sym3_fink()]
ATOMS.append(nilprod2_multi([[3], [3]]).group)
ORDER_CAP = 500


@st.composite
def factor_lists(draw, max_factors: int = 4) -> list[FiniteGroup]:
    """1..max_factors atoms whose orders multiply to at most ORDER_CAP."""
    factors, order = [], 1
    for _ in range(draw(st.integers(1, max_factors))):
        factors.append(draw(st.sampled_from([F for F in ATOMS if order * F.order <= ORDER_CAP])))
        order *= factors[-1].order
    return factors


@contextlib.contextmanager
def product_table_reads():
    """Records every group whose table is built while the block runs.  An
    atomic group holds its table from construction, so only a product's
    first read reaches the class attribute."""
    built = FiniteGroup.table
    reads = []

    class Spy:
        def __get__(self, G, owner=None):
            if G is None:
                return self
            reads.append(G)
            return built.__get__(G, owner)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(FiniteGroup, "table", Spy())
        yield reads


class TestAtomicFactors:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_order_one_factors_change_no_report(self, data):
        factors = data.draw(factor_lists())
        G = data.draw(bracketed(factors, ORDER_CAP))
        padded = list(factors)
        for _ in range(data.draw(st.integers(1, 3))):
            padded.insert(data.draw(st.integers(0, len(padded))), ATOMS[0])  # C1
        H = data.draw(bracketed(padded, ORDER_CAP))
        for notion in NOTIONS:
            assert palindromic_width(H, notion) == palindromic_width(G, notion), (H.name, notion)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_palindromes_agree_and_no_product_table_is_read(self, data):
        G = data.draw(bracketed(data.draw(factor_lists()), ORDER_CAP))
        with product_table_reads() as reads:
            found = {n: (palindrome_elements(G, n), palindromic_width(G, n).palindromes) for n in NOTIONS}
            assert reads == []
            twin = table_twin(G)
        # the spy sees the twin's read of a product's table
        assert reads == ([G] if G.factors else [])
        for notion, (elements, palindromes) in found.items():
            assert np.array_equal(elements, palindromes), (G.name, notion)
            assert np.array_equal(palindromes, palindrome_elements(twin, notion)), (G.name, notion)
