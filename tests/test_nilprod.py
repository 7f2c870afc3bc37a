"""Structure and width bounds of class-2 nilpotent products."""

import itertools
from collections import deque

import pytest

from groupwidths.finite_groups import (
    CapExceeded,
    abelian_group,
    are_isomorphic,
    cyclic,
    dihedral,
)
from groupwidths.nilprod import NilProdGroup, bound_report, nilprod2_multi, width_bounds
from groupwidths.pal_width import palindromic_width
from conftest import traced_peak_mib
from oracle import tensor_of

PAIR_FACTORS = [[2], [3], [4], [2, 2]]


def embedded(np_group, i):
    return {np_group.embed(i, v) for v in np_group.factor_elements(i)}


def commutator(G, x, y):
    return G.table[G.table[G.table[G.inverse[x]][G.inverse[y]]][x]][y]


def normal_closure(G, S):
    conj = {G.table[G.table[G.inverse[g]][s]][g] for s in S for g in G.elements()}
    sub = {G.identity}
    queue = deque([G.identity])
    while queue:
        x = queue.popleft()
        for c in conj:
            y = G.table[x][c]
            if y not in sub:
                sub.add(y)
                queue.append(y)
    return sub


class TestConstruction:
    def test_z2_z2_is_dihedral8(self):
        np2 = NilProdGroup([[2], [2]])
        assert np2.order == 8
        assert not np2.group.is_abelian()
        assert all(np2.group.element_order(g) == 2 for _, g in np2.group.gens)
        assert are_isomorphic(np2.group, dihedral(4))

    def test_coprime_factors_give_direct_product(self):
        np2 = NilProdGroup([[2], [3]])
        assert np2.order == 6
        assert np2.group.is_abelian()
        assert are_isomorphic(np2.group, cyclic(6))

    def test_z3_z3_heisenberg_type(self):
        np2 = NilProdGroup([[3], [3]])
        assert np2.order == 27
        assert not np2.group.is_abelian()
        assert all(
            np2.group.element_order(g) == 3
            for g in np2.group.elements()
            if g != np2.group.identity
        )

    @pytest.mark.parametrize(
        "factors,gens",
        [
            ([[2, 2], [4]], [("a1", 32), ("a2", 16), ("b", 4), ("b^-1", 12)]),
            ([[2, 3], [2]], [("a1", 12), ("a2", 4), ("a2^-1", 8), ("b", 2)]),
            ([[4], [2], [2]], [("a", 32), ("a^-1", 96), ("b", 16), ("c", 8)]),
        ],
    )
    def test_generators_are_pinned(self, factors, gens):
        # one per nontrivial summand, each followed by its ^-1 partner
        # unless it is an involution
        assert NilProdGroup(factors).group.gens == gens

    def test_cap(self):
        with pytest.raises(CapExceeded):
            NilProdGroup([[16], [16]], cap=512)

    def test_construction_memory(self):
        # order 2,048 over 11 radix coordinates, six of them tensor ones:
        # the table is accumulated in one order^2 array, not one per coordinate
        G, peak = traced_peak_mib(lambda: NilProdGroup([[2, 2, 2], [2, 2]], cap=4096))
        assert peak < 100, peak
        assert (G.order, len(G.radix), len(G.tensor_moduli)) == (2048, 11, 6)
        for a in G.factor_elements(0):
            for b in G.factor_elements(1):
                assert commutator(G.group, G.embed(0, a), G.embed(1, b)) == G.central(tensor_of(G, a, b))

    def test_moduli_are_integers(self):
        # floats and bools are rejected, not truncated by int()
        for bad in ([[2.5], [2]], [[True], [2]], [[2], [2.0]], [["3"], [2]]):
            with pytest.raises(ValueError):
                NilProdGroup(bad)
        assert NilProdGroup([[2], [2]]).factor_moduli == [[2], [2]]

    def test_factor_must_be_a_list(self):
        for bad in ([3, [2]], [[2], 2], [(2,), [2]], [{"moduli": [2]}, [2]]):
            with pytest.raises(ValueError, match="list of moduli"):
                NilProdGroup(bad)

    def test_commutator_is_tensor(self):
        for A, B in itertools.product(PAIR_FACTORS, repeat=2):
            np2 = NilProdGroup([A, B])
            G = np2.group
            for a in np2.factor_elements(0):
                for b in np2.factor_elements(1):
                    lhs = commutator(G, np2.embed(0, a), np2.embed(1, b))
                    assert lhs == np2.central(tensor_of(np2, a, b))

    def test_tensor_bilinearity(self):
        np2 = NilProdGroup([[4, 2], [6]])
        for a in np2.factor_elements(0):
            for a2 in np2.factor_elements(0):
                for b in np2.factor_elements(1):
                    asum = tuple((x + y) % m for x, y, m in zip(a, a2, np2.factor_moduli[0]))
                    lhs = tensor_of(np2, asum, b)
                    rhs = tuple(
                        (s + t) % m
                        for s, t, m in zip(tensor_of(np2, a, b), tensor_of(np2, a2, b), np2.tensor_moduli)
                    )
                    assert lhs == rhs


class TestStructuralProperties:
    @pytest.mark.parametrize("A,B", list(itertools.product(PAIR_FACTORS, repeat=2)))
    def test_factor_embeddings_meet_trivially(self, A, B):
        np2 = NilProdGroup([A, B])
        G = np2.group
        emb_a, emb_b = embedded(np2, 0), embedded(np2, 1)
        assert normal_closure(G, emb_a) & emb_b == {G.identity}
        assert normal_closure(G, emb_b) & emb_a == {G.identity}

    @pytest.mark.parametrize("A,B", list(itertools.product(PAIR_FACTORS, repeat=2)))
    def test_normal_form_unique(self, A, B):
        np2 = NilProdGroup([A, B])
        G = np2.group
        for e in G.elements():
            coords = np2.decode(e)
            a = np2.embed(0, np2.factor_slice(coords, 0))
            b = np2.embed(1, np2.factor_slice(coords, 1))
            t = np2.central(np2.tensor_part(coords))
            assert G.table[G.table[a][b]][t] == e

    @pytest.mark.parametrize("A,B", list(itertools.product(PAIR_FACTORS, repeat=2)))
    def test_triple_commutators_vanish(self, A, B):
        np2 = NilProdGroup([A, B])
        G = np2.group
        emb = embedded(np2, 0) | embedded(np2, 1)
        for x in emb:
            for y in emb:
                xy = commutator(G, x, y)
                for z in emb:
                    assert commutator(G, xy, z) == G.identity

    @pytest.mark.parametrize("A,B", list(itertools.product(PAIR_FACTORS, repeat=2)))
    def test_centralizer_products_meet_tensor_trivially(self, A, B):
        np2 = NilProdGroup([A, B])
        G = np2.group
        CA, CB = np2.centralizer_factor(0), np2.centralizer_factor(1)
        prods = {G.table[np2.embed(0, a)][np2.embed(1, b)] for a in CA for b in CB}
        tensor = {
            np2.central(t)
            for t in itertools.product(*(range(m) for m in np2.tensor_moduli))
        }
        assert prods & tensor == {G.identity}


class TestCentralizers:
    def test_coprime_everything_central(self):
        np2 = NilProdGroup([[2], [3]])
        CA, CB = np2.centralizer_factor(0), np2.centralizer_factor(1)
        assert CA == set(np2.factor_elements(0))
        assert CB == set(np2.factor_elements(1))

    def test_z2_z2_trivial(self):
        CA = NilProdGroup([[2], [2]]).centralizer_factor(0)
        assert CA == {(0,)}

    def test_z4_z2_index_two(self):
        np2 = NilProdGroup([[4], [2]])
        CA, CB = np2.centralizer_factor(0), np2.centralizer_factor(1)
        assert CA == {(0,), (2,)}
        assert CB == {(0,)}

    @pytest.mark.parametrize("A,B", list(itertools.product(PAIR_FACTORS, repeat=2)))
    def test_matches_table_centralizer(self, A, B):
        np2 = NilProdGroup([A, B])
        G = np2.group
        emb_b = embedded(np2, 1)
        brute = {
            v
            for v in np2.factor_elements(0)
            if all(G.table[np2.embed(0, v)][b] == G.table[b][np2.embed(0, v)] for b in emb_b)
        }
        assert np2.centralizer_factor(0) == brute

    @pytest.mark.parametrize("A,B", list(itertools.product(PAIR_FACTORS, repeat=2)))
    def test_centralizers_normal(self, A, B):
        np2 = NilProdGroup([A, B])
        G = np2.group
        for i in (0, 1):
            sub = {np2.embed(i, v) for v in np2.centralizer_factor(i)}
            assert all(
                G.table[G.table[G.inverse[g]][s]][g] in sub for s in sub for g in G.elements()
            )


class TestMulti:
    def test_single_factor(self):
        np1 = nilprod2_multi([[2, 3]])
        assert np1.order == 6
        assert are_isomorphic(np1.group, abelian_group([2, 3]))

    def test_three_z2(self):
        assert nilprod2_multi([[2], [2], [2]]).order == 64

    def test_coprime_pair(self):
        assert are_isomorphic(nilprod2_multi([[2], [3]]).group, cyclic(6))

    def test_commutative_up_to_isomorphism(self):
        a = nilprod2_multi([[2], [2], [3]])
        b = nilprod2_multi([[3], [2], [2]])
        assert a.order == b.order == 24
        assert are_isomorphic(a.group, b.group)

    def test_pairwise_tensors(self):
        np3 = nilprod2_multi([[2], [2], [2]])
        G = np3.group
        # each unordered factor pair contributes one central involution
        for i, j in itertools.combinations(range(3), 2):
            x = np3.embed(i, (1,))
            y = np3.embed(j, (1,))
            c = commutator(G, x, y)
            assert c != G.identity and G.element_order(c) == 2


class TestBounds:
    def test_arithmetic_branch_i(self):
        rep = width_bounds([1, 1], [1, 1])
        assert (rep.lower, rep.upper, rep.branch) == (1, 8, "i")

    def test_arithmetic_three_factors(self):
        rep = width_bounds([1, 1, 1], [1, 1, 1])
        assert rep.upper == 3 + 9 == 12

    def test_arithmetic_branch_ii(self):
        rep = width_bounds([1, 1], [0, 0])
        assert (rep.lower, rep.upper, rep.branch) == (1, 2, "ii")

    def test_z2_z3_report(self):
        rep = bound_report(NilProdGroup([[2], [3]]))
        assert (rep.lower, rep.upper, rep.branch) == (1, 2, "ii")
        assert rep.exact == 1 and rep.holds()

    def test_z2_z2_report(self):
        rep = bound_report(NilProdGroup([[2], [2]]))
        assert (rep.lower, rep.upper, rep.branch) == (1, 8, "i")
        assert rep.exact == 2 and rep.holds()

    @pytest.mark.parametrize("A,B", list(itertools.product(PAIR_FACTORS, repeat=2)))
    def test_sandwich_everywhere(self, A, B):
        np2 = NilProdGroup([A, B])
        rep = bound_report(np2, include_exact=False)
        rep.exact = palindromic_width(np2.group, "word").width
        assert rep.holds()

    def test_lower_is_max_factor_width(self):
        np2 = NilProdGroup([[2, 2], [3]])
        rep = bound_report(np2, include_exact=False)
        assert rep.lower == palindromic_width(abelian_group([2, 2]), "word").width == 2
