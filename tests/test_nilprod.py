"""Structure and width bounds of class-2 nilpotent products."""

import itertools
from collections import deque

import pytest

from groupwidths.finite_groups import (
    CapExceeded,
    abelian_group,
    cyclic,
    dihedral,
)
from groupwidths.nilprod import BoundReport, NilProdGroup, bound_report, nilprod2_multi, width_bounds
from groupwidths.pal_width import palindromic_width
from conftest import centralizer_vectors, label_map, traced_peak_mib
from oracle import (
    central,
    commutator,
    decode,
    element_order,
    embed,
    encode,
    extends_to_isomorphism,
    factor_elements,
    split_coords,
    tensor_of,
)

PAIR_FACTORS = [[2], [3], [4], [2, 2]]


def embedded(np_group, i):
    return {embed(np_group, i, v) for v in factor_elements(np_group, i)}


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
        assert len(np2.group.derived_subgroup) == 2
        assert all(element_order(np2.group, g) == 2 for _, g in np2.group.gens)
        # two involutions whose product has order 4
        D = dihedral(4)
        assert extends_to_isomorphism(np2.group, D, label_map(np2.group, D, {"a": "s", "b": "r*s"}))

    def test_coprime_factors_give_direct_product(self):
        np2 = NilProdGroup([[2], [3]])
        assert np2.order == 6
        assert np2.group.derived_subgroup == {np2.group.identity}
        C = cyclic(6)
        assert extends_to_isomorphism(np2.group, C, label_map(np2.group, C, {"a": "a*a*a", "b": "a*a"}))

    def test_z3_z3_heisenberg_type(self):
        np2 = NilProdGroup([[3], [3]])
        assert np2.order == 27
        assert len(np2.group.derived_subgroup) == 3
        assert all(
            element_order(np2.group, g) == 3
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
        # the 16 MiB table is the one order^2 array, filled in row blocks
        # and kept by FiniteGroup, not copied
        G, peak = traced_peak_mib(lambda: NilProdGroup([[2, 2, 2], [2, 2]], cap=4096))
        assert peak <= 24, peak
        assert (G.order, len(G.radix), len(G.tensor_moduli)) == (2048, 11, 6)
        for a in factor_elements(G, 0):
            for b in factor_elements(G, 1):
                assert commutator(G.group, embed(G, 0, a), embed(G, 1, b)) == central(G, tensor_of(G, a, b))

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
            for a in factor_elements(np2, 0):
                for b in factor_elements(np2, 1):
                    lhs = commutator(G, embed(np2, 0, a), embed(np2, 1, b))
                    assert lhs == central(np2, tensor_of(np2, a, b))

    def test_tensor_bilinearity(self):
        np2 = NilProdGroup([[4, 2], [6]])
        for a in factor_elements(np2, 0):
            for a2 in factor_elements(np2, 0):
                for b in factor_elements(np2, 1):
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
            (u, v), tensor = split_coords(np2, decode(np2, e))
            a, b, t = embed(np2, 0, u), embed(np2, 1, v), central(np2, tensor)
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
        CA, CB = centralizer_vectors(np2, 0), centralizer_vectors(np2, 1)
        prods = {G.table[embed(np2, 0, a)][embed(np2, 1, b)] for a in CA for b in CB}
        tensor = {
            central(np2, t)
            for t in itertools.product(*(range(m) for m in np2.tensor_moduli))
        }
        assert prods & tensor == {G.identity}


class TestCentralizers:
    def test_coprime_everything_central(self):
        np2 = NilProdGroup([[2], [3]])
        CA, CB = centralizer_vectors(np2, 0), centralizer_vectors(np2, 1)
        assert CA == set(factor_elements(np2, 0))
        assert CB == set(factor_elements(np2, 1))

    def test_z2_z2_trivial(self):
        CA = centralizer_vectors(NilProdGroup([[2], [2]]), 0)
        assert CA == {(0,)}

    def test_z4_z2_index_two(self):
        np2 = NilProdGroup([[4], [2]])
        CA, CB = centralizer_vectors(np2, 0), centralizer_vectors(np2, 1)
        assert CA == {(0,), (2,)}
        assert CB == {(0,)}

    @pytest.mark.parametrize("A,B", list(itertools.product(PAIR_FACTORS, repeat=2)))
    def test_matches_table_centralizer(self, A, B):
        np2 = NilProdGroup([A, B])
        G = np2.group
        emb_b = embedded(np2, 1)
        brute = {
            v
            for v in factor_elements(np2, 0)
            if all(G.table[embed(np2, 0, v)][b] == G.table[b][embed(np2, 0, v)] for b in emb_b)
        }
        assert centralizer_vectors(np2, 0) == brute

    @pytest.mark.parametrize("A,B", list(itertools.product(PAIR_FACTORS, repeat=2)))
    def test_centralizers_normal(self, A, B):
        np2 = NilProdGroup([A, B])
        G = np2.group
        for i in (0, 1):
            sub = {embed(np2, i, v) for v in centralizer_vectors(np2, i)}
            assert all(
                G.table[G.table[G.inverse[g]][s]][g] in sub for s in sub for g in G.elements()
            )


class TestMulti:
    def test_single_factor(self):
        np1 = nilprod2_multi([[2, 3]])
        assert np1.order == 6
        A = abelian_group([2, 3])
        assert extends_to_isomorphism(np1.group, A, label_map(np1.group, A, {"a1": "a", "a2": "b"}))

    def test_three_z2(self):
        assert nilprod2_multi([[2], [2], [2]]).order == 64

    def test_coprime_pair(self):
        G, C = nilprod2_multi([[2], [3]]).group, cyclic(6)
        assert extends_to_isomorphism(G, C, label_map(G, C, {"a": "a*a*a", "b": "a*a"}))

    def test_commutative_up_to_isomorphism(self):
        a = nilprod2_multi([[2], [2], [3]])
        b = nilprod2_multi([[3], [2], [2]])
        assert a.order == b.order == 24
        # the factors' generators follow the factors
        images = label_map(a.group, b.group, {"a": "b", "b": "c", "c": "a"})
        assert extends_to_isomorphism(a.group, b.group, images)

    def test_pairwise_tensors(self):
        np3 = nilprod2_multi([[2], [2], [2]])
        G = np3.group
        # each unordered factor pair contributes one central involution
        for i, j in itertools.combinations(range(3), 2):
            x = embed(np3, i, (1,))
            y = embed(np3, j, (1,))
            c = commutator(G, x, y)
            assert c != G.identity and element_order(G, c) == 2


PLUMBING_FACTORS = [[[2, 2], [2]], [[4], [2], [2]], [[1], [3]]]


class TestCoordinatePlumbing:
    @pytest.mark.parametrize("factors", PLUMBING_FACTORS)
    def test_encode_inverts_decode(self, factors):
        np_group = NilProdGroup(factors)
        for e in range(np_group.order):
            assert encode(np_group, decode(np_group, e)) == e

    @pytest.mark.parametrize("factors", PLUMBING_FACTORS)
    def test_table_follows_the_product_formula(self, factors):
        # (v, t) * (v', t') = (v + v', t + t' - sum_{i<j} v'_i (x) v_j), with
        # the (u, v) entry of v'_i (x) v_j the product v'_i[u] * v_j[v]
        np_group = NilProdGroup(factors)
        coords = [decode(np_group, e) for e in range(np_group.order)]
        vectors = [split_coords(np_group, c)[0] for c in coords]
        start = len(np_group.radix) - len(np_group.tensor_moduli)
        for g, h in itertools.product(range(np_group.order), repeat=2):
            expected = [x + y for x, y in zip(coords[g], coords[h])]
            for (i, j, u, v), pos in np_group.tensor_index.items():
                expected[start + pos] -= vectors[h][i][u] * vectors[g][j][v]
            assert np_group.group.table[g, h] == encode(np_group, expected), (g, h)

    @pytest.mark.parametrize("factors", PLUMBING_FACTORS)
    def test_generators_are_unit_vectors_at_their_summands(self, factors):
        np_group = NilProdGroup(factors)
        # summand u of factor i sits at coordinate len(factors[:i]) + u
        summands = [(i, u) for i, mod in enumerate(factors) for u in range(len(mod))]
        expected = {}
        for pos, (i, u) in enumerate(summands):
            m = factors[i][u]
            if m > 1:
                label = "abc"[i] if len(factors[i]) == 1 else f"{'abc'[i]}{u + 1}"
                unit = [0] * len(np_group.radix)
                unit[pos] = 1
                expected[label] = tuple(unit)
                unit[pos] = m - 1
                expected[label + "^-1"] = tuple(unit)
        for label, g in np_group.group.gens:
            assert decode(np_group, g) == expected.pop(label), label
        # the involutions have no ^-1 partner
        assert all(label.endswith("^-1") for label in expected)
        for label, v in expected.items():
            assert v == decode(np_group, np_group.group.labels[label[:-3]]), label


class TestBoundReportJson:
    @pytest.mark.parametrize("m,branch", [([1, 0], "i"), ([0, 0], "ii")])
    @pytest.mark.parametrize("exact", [None, 2])
    def test_to_json_is_the_fields(self, m, branch, exact):
        rep = width_bounds([1, 2], m)
        rep.exact = exact
        upper = 3 + 3 * sum(m)
        out = rep.to_json()
        assert out == {"lower": 2, "upper": upper, "branch": branch,
                       "component_widths": [1, 2], "m": m, "exact": exact}
        assert list(out) == ["lower", "upper", "branch", "component_widths", "m", "exact"]
        # the lists are copies: editing the JSON leaves the report alone
        out["component_widths"].append(7)
        out["m"].append(7)
        assert (rep.component_widths, rep.m) == ([1, 2], m)

    def test_holds(self):
        assert width_bounds([1, 2], [1, 0]).holds()
        for exact, ok in ((1, False), (2, True), (6, True), (7, False)):
            rep = width_bounds([1, 2], [1, 0])
            rep.exact = exact
            assert rep.holds() is ok, exact
        assert not BoundReport(3, 2, "ii", [3], [0]).holds()


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
