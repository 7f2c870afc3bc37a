"""Wreath arithmetic, the delta quasi-homomorphism, and certificates."""

import random

import pytest

from groupwidths.finite_groups import cyclic, sym3_fink
from groupwidths.free_words import FreeWord, parse_free_word
from groupwidths.wreath import (
    WreathElement,
    WreathGroup,
    certify_cw_lower_bound,
    commutator_length_bound,
    delta,
    format_wreath_element,
    in_derived_subgroup,
    parse_wreath_element,
    q_sequence,
    w_commutator,
    w_invert,
    w_multiply,
)

from conftest import random_wreath_element


@pytest.fixture(scope="module")
def W():
    return WreathGroup(2, sym3_fink())


class TestArithmetic:
    def test_identity(self, W):
        rng = random.Random(1)
        g = random_wreath_element(rng, W, 8)
        assert w_multiply(g, W.identity()) == g
        assert w_multiply(W.identity(), g) == g

    def test_conjugation_moves_coordinates(self, W):
        # (x at identity coordinate, top c) * (y at identity coordinate)
        # leaves x at the identity coordinate and puts y at coordinate c
        c = W.top.labels["c"]
        g = WreathElement(W, W.from_base_word(FreeWord.generator(2, 1)).base, c)
        h = W.from_base_word(FreeWord.generator(2, 2))
        gh = w_multiply(g, h)
        assert gh.top == c
        assert gh.base[W.coord_index[W.top.identity]] == FreeWord.generator(2, 1)
        assert gh.base[W.coord_index[c]] == FreeWord.generator(2, 2)
        # and k * (f at identity) * k^-1 holds f at coordinate k
        conj = w_multiply(w_multiply(W.from_top(c), h), W.from_top(W.top.inverse[c]))
        assert conj == W.from_base_word(FreeWord.generator(2, 2), W.coord_index[c])

    def test_commutator_self_trivial(self, W):
        rng = random.Random(2)
        g = random_wreath_element(rng, W, 8)
        assert w_commutator(g, g).is_identity()

    def test_group_axioms_random(self, W):
        rng = random.Random(3)
        for _ in range(250):
            a = random_wreath_element(rng, W, 6)
            b = random_wreath_element(rng, W, 6)
            c = random_wreath_element(rng, W, 6)
            assert w_multiply(w_multiply(a, b), c) == w_multiply(a, w_multiply(b, c))
            assert w_multiply(a, w_invert(a)).is_identity()
            assert w_multiply(w_invert(a), a).is_identity()

    def test_projections_are_homomorphisms(self, W):
        rng = random.Random(4)
        K = W.top
        for _ in range(100):
            a = random_wreath_element(rng, W, 6)
            b = random_wreath_element(rng, W, 6)
            ab = w_multiply(a, b)
            assert ab.top == K.table[a.top][b.top]
            for gen in (1, 2):
                total = sum(w.exponent_sum(gen) for w in ab.base)
                assert total == sum(w.exponent_sum(gen) for w in a.base) + sum(
                    w.exponent_sum(gen) for w in b.base
                )

    def test_group_mismatch(self, W):
        other = WreathGroup(2, cyclic(3))
        with pytest.raises(ValueError):
            w_multiply(W.identity(), other.identity())


class TestDelta:
    def test_identity_zero(self, W):
        assert delta(W.identity()) == 0

    def test_witness_values(self, W):
        assert delta(q_sequence(W, 1)) == 6
        assert delta(q_sequence(W, 5)) == 30

    def test_quasi_homomorphism_bounds(self, W):
        rng = random.Random(5)
        l = W.size
        for _ in range(300):
            g = random_wreath_element(rng, W, 8)
            h = random_wreath_element(rng, W, 8)
            assert abs(delta(w_multiply(g, h)) - delta(g) - delta(h)) <= 3 * l
            assert abs(delta(g) + delta(w_invert(g))) <= 3 * l
            assert abs(delta(w_commutator(g, h))) <= 15 * l

    def test_commutator_product_bound(self, W):
        rng = random.Random(6)
        l = W.size
        for m in (1, 2, 3):
            for _ in range(50):
                prod = W.identity()
                for _ in range(m):
                    g = random_wreath_element(rng, W, 5)
                    h = random_wreath_element(rng, W, 5)
                    prod = w_multiply(prod, w_commutator(g, h))
                assert abs(delta(prod)) <= 3 * l * (6 * m - 1)


class TestWitnessSequence:
    def test_word_shape(self, W):
        q2 = q_sequence(W, 2)
        assert q2.base[0] == parse_free_word("x2^-6 x1^-6 x2 x1 x2 x1 x2 x1 x2 x1 x2 x1 x2 x1", rank=2)
        assert all(w.is_identity() for w in q2.base[1:])
        assert q2.top == W.top.identity

    def test_exponent_sums_vanish(self, W):
        for j in (1, 3, 10):
            qj = q_sequence(W, j)
            assert qj.base[0].exponent_sum(1) == 0
            assert qj.base[0].exponent_sum(2) == 0

    def test_rank_requirement(self):
        with pytest.raises(ValueError):
            q_sequence(WreathGroup(1, cyclic(2)), 1)


class TestCertificates:
    def test_trivial_delta_none(self, W):
        assert certify_cw_lower_bound(W.identity()) is None

    def test_below_threshold_none(self, W):
        # delta(q_j) = 6j carries no information while 6j <= 15*6
        for j in (1, 5, 15):
            assert certify_cw_lower_bound(q_sequence(W, j)) is None

    def test_threshold_arithmetic(self, W):
        # 6j = 18(6m-1) + 6 certifies m+1
        for m in (1, 2, 4):
            j = (18 * (6 * m - 1) + 6) // 6
            cert = certify_cw_lower_bound(q_sequence(W, j))
            assert cert is not None and cert.lower_bound == m + 1

    def test_certificate_invariant(self, W):
        l = W.size
        for j in (20, 60, 178, 400):
            cert = certify_cw_lower_bound(q_sequence(W, j))
            assert cert is not None
            assert abs(cert.delta) > 3 * l * (6 * (cert.lower_bound - 1) - 1)
            assert abs(cert.delta) <= 3 * l * (6 * cert.lower_bound - 1)

    def test_closed_form_matches_the_search(self):
        def least_m(d, l):
            if d <= 15 * l:
                return None
            m = 1
            while d > 3 * l * (6 * m - 1):
                m += 1
            return m

        for l in (1, 2, 6, 8):
            for d in range(2001):
                assert commutator_length_bound(d, l) == least_m(d, l), (d, l)
                assert commutator_length_bound(-d, l) == least_m(d, l), (-d, l)

    def test_no_certificate_outside_derived_subgroup(self, W):
        # (x1 x2)^70 has delta 140 > 15 * 6 but exponent sums 70, so it is
        # no product of commutators and no commutator length is certified
        g = W.from_base_word(parse_free_word(" ".join(["x1 x2"] * 70), rank=2))
        assert delta(g) == 140
        assert not in_derived_subgroup(g)
        assert certify_cw_lower_bound(g) is None
        # a top outside [S3, S3] = {1, c, c^-1}, with a base in the derived subgroup
        s1 = W.top.labels["s1"]
        assert not in_derived_subgroup(W.from_top(s1))
        assert certify_cw_lower_bound(WreathElement(W, q_sequence(W, 60).base, s1)) is None

    def test_derived_subgroup_membership(self, W):
        rng = random.Random(8)
        c = W.top.labels["c"]
        for _ in range(50):
            g = random_wreath_element(rng, W, 6)
            h = random_wreath_element(rng, W, 6)
            assert in_derived_subgroup(w_commutator(g, h))
            assert in_derived_subgroup(w_multiply(w_commutator(g, h), w_commutator(h, g)))
            # exponent sums count over all coordinates: w at one coordinate
            # and w^-1 at another is in the derived subgroup
            w = random_wreath_element(rng, W, 6).base[0]
            split = w_multiply(W.from_base_word(w), W.from_base_word(w.inverse(), W.coord_index[c]))
            assert in_derived_subgroup(split)
            assert in_derived_subgroup(W.from_top(c))
            assert in_derived_subgroup(g) == (
                all(sum(u.exponent_sum(gen) for u in g.base) == 0 for gen in (1, 2))
                and g.top in (W.top.identity, c, W.top.inverse[c])
            )

    def test_unbounded_in_j(self, W):
        bounds = []
        for j in range(1, 200):
            cert = certify_cw_lower_bound(q_sequence(W, j))
            bounds.append(1 if cert is None else cert.lower_bound)
        assert all(b1 <= b2 for b1, b2 in zip(bounds, bounds[1:]))
        assert bounds[-1] > bounds[0]


class TestTextFormat:
    def test_round_trip(self, W):
        rng = random.Random(7)
        for _ in range(50):
            g = random_wreath_element(rng, W, 8)
            text = format_wreath_element(g)
            assert parse_wreath_element(W, text) == g
            assert format_wreath_element(parse_wreath_element(W, text)) == text

    def test_commutator_fixture(self, W):
        g = parse_wreath_element(W, "[ [x,y]; 1; 1; 1; 1; 1 ] 1")
        assert g.base[0] == parse_free_word("x1^-1 x2^-1 x1 x2", rank=2)
        assert g.top == W.top.identity

    def test_top_label_words(self, W):
        for k in W.top.elements():
            g = W.from_top(k)
            assert parse_wreath_element(W, format_wreath_element(g)) == g

    def test_long_witness_parses_linearly(self, W):
        # about 90 KB of text with 30k syllables, and 360 KB spelled out
        q = q_sequence(W, 5000)
        text = format_wreath_element(q)
        assert parse_wreath_element(W, text) == q
        spelled = " ".join(q.base[0].to_letters().letters)
        assert parse_free_word(spelled, rank=2) == q.base[0]

    def test_rejects_malformed(self, W):
        with pytest.raises(ValueError):
            parse_wreath_element(W, "[1; 1] 1")
        with pytest.raises(ValueError):
            parse_wreath_element(W, "no brackets")
