"""Wreath arithmetic, the delta quasi-homomorphism, and certificates."""

import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from groupwidths.finite_groups import (
    FiniteGroup,
    commutator_subgroup,
    cyclic,
    dihedral,
    evaluate,
    sym3_fink,
)
from groupwidths.free_words import FreeWord, MonoidWord, free_commutator, parse_free_word, reduce_word
from groupwidths.wreath import (
    WreathElement,
    WreathGroup,
    certify_cw_lower_bound,
    commutator_length_bound,
    _prefix_products,
    delta,
    evaluate_letters,
    format_wreath_element,
    in_derived_subgroup,
    parse_wreath_element,
    q_sequence,
    w_commutator,
    w_invert,
    w_multiply,
)

from conftest import random_wreath_element, spelled_texts
from oracle import reference_evaluate_letters


@pytest.fixture(scope="module")
def W():
    return WreathGroup(2, sym3_fink())


@pytest.fixture(scope="module")
def W3():
    return WreathGroup(3, sym3_fink())


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

    def test_derived_top_is_computed_once_on_first_use(self):
        # [K, K] belongs to the top group, so wreath groups over one top share it
        K = sym3_fink()
        assert "derived_subgroup" not in vars(K)
        assert not in_derived_subgroup(WreathGroup(2, K).from_top(K.labels["s1"]))
        derived = vars(K)["derived_subgroup"]
        assert derived == frozenset(commutator_subgroup(K)) == {0, 3, 4}
        assert in_derived_subgroup(WreathGroup(3, K).from_top(K.labels["c"]))
        assert K.derived_subgroup is derived

    def test_huge_generator_index_costs_no_memory(self):
        # the exponent sums are kept per generator that occurs, not per rank
        W = WreathGroup(2**62, sym3_fink())
        word = parse_free_word(f"x{2**62} x1^-1", rank=W.rank)
        assert not in_derived_subgroup(W.from_base_word(word))
        assert in_derived_subgroup(W.from_base_word(free_commutator(word, FreeWord.generator(W.rank, 2))))

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

    @given(
        st.lists(spelled_texts(max_atoms=4), min_size=6, max_size=6),
        st.lists(st.sampled_from(["s1", "s2", "c", "c^-1"]), max_size=4),
    )
    def test_spelled_coordinates_and_top_word(self, W3, coords, labels):
        text = f"[{';'.join(t for t, _ in coords)}] {'*'.join(labels) or '1'}"
        g = parse_wreath_element(W3, text)
        assert g.base == tuple(reduce_word(MonoidWord(ls), rank=3) for _, ls in coords)
        assert g.top == evaluate(W3.top, MonoidWord(tuple(labels)))

    @given(st.lists(st.sampled_from(["x1", "y^-2", "[", "]", ",", "1", " ", ";", "*", "s1", "c"]), max_size=40))
    def test_any_text_parses_or_raises_value_error(self, W3, pieces):
        try:
            parse_wreath_element(W3, "".join(pieces))
        except ValueError:
            pass

    def test_rejects_malformed(self, W):
        with pytest.raises(ValueError):
            parse_wreath_element(W, "[1; 1] 1")
        with pytest.raises(ValueError):
            parse_wreath_element(W, "no brackets")


# wreath groups for the evaluator properties: S3 (Fink's generators), C2 and
# D4 (order 8) tops at ranks 2 and 3, built once so their tables are reused
EVAL_GROUPS = {
    (name, rank): WreathGroup(rank, top)
    for name, top in (("sym3_fink", sym3_fink()), ("C2", cyclic(2)), ("D4", dihedral(4)))
    for rank in (2, 3)
}


@st.composite
def letter_words(draw):
    """(W, word, base_letters, top_letters): base letters b<g>/B<g> with
    exponents +-e (e in 1..3), a top letter t<k> per element, one base
    letter shadowed by a top entry, and a word u v^-1 w whose middle
    cancels a random prefix of u's inverse, letter by letter."""
    W = EVAL_GROUPS[draw(st.sampled_from(sorted(EVAL_GROUPS)))]
    K = W.top
    base, inverse = {}, {}
    for g in range(1, W.rank + 1):
        e = draw(st.integers(1, 3))
        base[f"b{g}"], base[f"B{g}"] = (g, e), (g, -e)
        inverse[f"b{g}"], inverse[f"B{g}"] = f"B{g}", f"b{g}"
    top = {f"t{k}": k for k in K.elements()}
    inverse.update({f"t{k}": f"t{int(K.inverse[k])}" for k in K.elements()})
    # in both maps: the base entry wins
    top[draw(st.sampled_from(sorted(base)))] = draw(st.sampled_from(list(K.elements())))
    letters = st.lists(st.sampled_from(sorted(inverse)), max_size=40)
    u, w = draw(letters), draw(letters)
    cancel = tuple(inverse[a] for a in reversed(u))[: draw(st.integers(0, len(u)))]
    return W, MonoidWord(tuple(u) + cancel + tuple(w)), base, top


class TestEvaluateLetters:
    @given(letter_words())
    def test_matches_the_reference_fold(self, case):
        W, word, base, top = case
        expected = reference_evaluate_letters(W, word, base, top)
        assert evaluate_letters(W, word, base, top) == expected

    @pytest.mark.parametrize("key", sorted(EVAL_GROUPS))
    def test_empty_word_is_the_identity(self, key):
        W = EVAL_GROUPS[key]
        assert evaluate_letters(W, MonoidWord(), {"b": (1, 2)}, {"t": 1}) == W.identity()

    def test_deep_cancellation(self, W):
        base = {"x": (1, 1), "x^-1": (1, -1), "y": (2, 1), "y^-1": (2, -1)}
        top = dict(W.top.labels)
        rng = random.Random(5)
        u = tuple(rng.choice(sorted(base) + sorted(top)) for _ in range(300))
        # s1 and s2 are involutions
        inv = {"x": "x^-1", "x^-1": "x", "y": "y^-1", "y^-1": "y", "c": "c^-1", "c^-1": "c"}
        inv.update(s1="s1", s2="s2")
        u_inv = tuple(inv[a] for a in reversed(u))
        for word in (u + u_inv, u_inv + u, u + ("x",) + u_inv):
            got = evaluate_letters(W, MonoidWord(word), base, top)
            assert got == reference_evaluate_letters(W, MonoidWord(word), base, top)
        assert evaluate_letters(W, MonoidWord(u + u_inv), base, top).is_identity()

    def test_alphabets_beyond_one_byte(self, W):
        # 300 and 70,000 top letters: codes of two and of more bytes
        rng = random.Random(3)
        base = {"x": (1, 1), "x^-1": (1, -1), "y": (2, 2), "Y": (2, -2)}
        for size in (300, 70_000):
            top = {f"t{i}": i % W.size for i in range(size)}
            alphabet = sorted(base) + sorted(top)
            letters = [rng.choice(alphabet) for _ in range(400)] + [f"t{size - 1}", "x"]
            word = MonoidWord(tuple(letters))
            got = evaluate_letters(W, word, base, top)
            assert got == reference_evaluate_letters(W, word, base, top)

    def test_unknown_letter_is_a_value_error(self, W):
        with pytest.raises(ValueError, match="letter 'q' is neither a base nor a top generator"):
            evaluate_letters(W, MonoidWord(("x", "s1", "q", "x")), {"x": (1, 1)}, {"s1": 1})

    X = {"x": (1, 1), "x^-1": (1, -1)}

    @pytest.mark.parametrize(
        "base,letters",
        [
            ({**X, "z": (3, 1), "z^-1": (3, -1)}, ("z", "z^-1")),
            ({**X, "z": (0, 1)}, ("x",)),
        ],
    )
    def test_generator_out_of_range_is_rejected_when_it_cancels(self, W, base, letters):
        with pytest.raises(ValueError, match="out of range"):
            evaluate_letters(W, MonoidWord(letters), base, {})

    @pytest.mark.parametrize("letters", [("z",), ("x", "z"), ("z", "x^-1"), ()])
    def test_zero_exponent_is_rejected_whatever_its_neighbour(self, W, letters):
        with pytest.raises(ValueError, match="exponent"):
            evaluate_letters(W, MonoidWord(letters), {**self.X, "z": (1, 0)}, {})

    @pytest.mark.parametrize("exp", [1.5, 2**40, True])
    def test_exponent_is_an_integer_that_fits_the_run_sums(self, W, exp):
        with pytest.raises(ValueError, match="exponent"):
            evaluate_letters(W, MonoidWord(("z",)), {**self.X, "z": (1, exp)}, {})

    @pytest.mark.parametrize("k", [6, -1, True, 1.0])
    def test_top_element_out_of_range_is_a_value_error(self, W, k):
        with pytest.raises(ValueError, match="top element"):
            evaluate_letters(W, MonoidWord(("x", "k")), self.X, {"k": k})


@pytest.mark.parametrize(
    "top",
    [cyclic(1), cyclic(2), cyclic(5), sym3_fink(), dihedral(4), dihedral(10), cyclic(17)],
    ids=lambda K: f"order{K.order}",
)
def test_prefix_products_match_a_sequential_fold(top):
    # on a randomly relabelled copy of the table, at every length 0..70
    rng = random.Random(top.order)
    n = top.order
    perm = list(range(n))
    rng.shuffle(perm)
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            table[perm[a]][perm[b]] = perm[int(top.table[a, b])]
    relabelled = FiniteGroup(table, [(f"g{a}", a) for a in range(n)])
    flat = WreathGroup(1, relabelled)._top_flat
    for length in range(71):
        x = [rng.randrange(n) for _ in range(length)]
        expected, acc = [], None
        for a in x:
            acc = a if acc is None else table[acc][a]
            expected.append(acc)
        got = _prefix_products(flat, n, np.array(x, flat.dtype))
        assert got.dtype == flat.dtype
        assert got.tolist() == expected
