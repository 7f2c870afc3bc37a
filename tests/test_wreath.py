"""Wreath arithmetic, the delta quasi-homomorphism, and certificates."""

import hashlib
import random
from itertools import groupby
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from groupwidths.finite_groups import (
    cyclic,
    dihedral,
    evaluate,
    sym3_fink,
)
from groupwidths.free_words import (
    MonoidWord,
    format_free_word,
    free_commutator,
    _reduce_runs,
    parse_free_word,
    reduce_word,
)
from groupwidths.wreath import (
    WreathElement,
    WreathGroup,
    certify_cw_lower_bound,
    commutator_length_bound,
    _prefix_products,
    delta,
    evaluate_letters,
    evaluate_words,
    format_wreath_element,
    in_derived_subgroup,
    parse_wreath_element,
    q_sequence,
    w_multiply,
)

from conftest import (
    free_generator,
    moved_identity,
    random_reduced_word,
    random_wreath_element,
    relabel,
    spelled_out,
    spelled_texts,
)
from oracle import (
    brute_derived_subgroup,
    reference_evaluate_letters,
    reference_reduce,
    w_commutator,
    w_invert,
)


# tops whose identity is not id 0 (ids 2 and 5): only the text format
# orders their coordinates otherwise than by element id
MOVED_TOPS = {"S3_moved": moved_identity(sym3_fink(), 1), "D4_moved": moved_identity(dihedral(4), 2)}


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
        g = WreathElement(W, W.from_base_word(free_generator(2, 1)).base, c)
        h = W.from_base_word(free_generator(2, 2))
        gh = w_multiply(g, h)
        assert gh.top == c
        assert gh.base[W.top.identity] == free_generator(2, 1)
        assert gh.base[c] == free_generator(2, 2)
        # and k * (f at identity) * k^-1 holds f at coordinate k
        conj = w_multiply(w_multiply(W.from_top(c), h), W.from_top(W.top.inverse[c]))
        assert conj == W.from_base_word(free_generator(2, 2), c)

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

    @pytest.mark.parametrize("k", [6, 99, -1])
    def test_ids_out_of_range_are_named(self, W, k):
        with pytest.raises(ValueError, match=rf"^coordinate {k} is out of range 0\.\.5$"):
            W.from_base_word(free_generator(2, 1), k)
        with pytest.raises(ValueError, match=rf"^top element {k} is out of range 0\.\.5$"):
            W.from_top(k)

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
            split = w_multiply(W.from_base_word(w), W.from_base_word(w.inverse(), c))
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
        assert derived == brute_derived_subgroup(K) == {0, 3, 4}
        assert in_derived_subgroup(WreathGroup(3, K).from_top(K.labels["c"]))
        assert K.derived_subgroup is derived

    def test_huge_generator_index_costs_no_memory(self):
        # the exponent sums are kept per generator that occurs, not per rank
        W = WreathGroup(2**62, sym3_fink())
        word = parse_free_word(f"x{2**62} x1^-1", rank=W.rank)
        assert not in_derived_subgroup(W.from_base_word(word))
        assert in_derived_subgroup(W.from_base_word(free_commutator(word, free_generator(W.rank, 2))))

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
        spelled = " ".join(spelled_out(q.base[0]).letters)
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


@st.composite
def moved_top_elements(draw):
    """A rank-2 wreath element over a top whose identity is not id 0."""
    W = WreathGroup(2, MOVED_TOPS[draw(st.sampled_from(sorted(MOVED_TOPS)))])
    rng = random.Random(draw(st.integers(0, 2**32)))
    return random_wreath_element(rng, W, 8)


@st.composite
def moved_top_texts(draw):
    """(W, text): a canonical element text over a top whose identity is
    not id 0, coordinate by coordinate in text order."""
    K = MOVED_TOPS[draw(st.sampled_from(sorted(MOVED_TOPS)))]
    rng = random.Random(draw(st.integers(0, 2**32)))
    words = "; ".join(format_free_word(random_reduced_word(rng, 2, 8)) for _ in range(K.order))
    return WreathGroup(2, K), f"[{words}] {K.shortest_label_word(draw(st.sampled_from(K.elements())))}"


class TestMovedIdentityTops:
    @given(moved_top_elements())
    def test_parse_inverts_format(self, g):
        assert parse_wreath_element(g.group, format_wreath_element(g)) == g

    @given(moved_top_texts())
    def test_format_inverts_parse(self, case):
        W, text = case
        assert format_wreath_element(parse_wreath_element(W, text)) == text

    @pytest.mark.parametrize("name", sorted(MOVED_TOPS))
    def test_conjugation_moves_the_identity_coordinate_to_k(self, name):
        W = WreathGroup(2, MOVED_TOPS[name])
        f = free_generator(2, 2)
        for k in W.top.elements():
            conj = w_multiply(w_multiply(W.from_top(k), W.from_base_word(f)), W.from_top(W.top.inverse[k]))
            assert conj == W.from_base_word(f, k)

    def test_text_lists_the_identity_coordinate_first(self):
        W = WreathGroup(2, MOVED_TOPS["D4_moved"])
        g = W.from_base_word(free_generator(2, 1))
        assert W.top.identity == 5 and g.base[5] == free_generator(2, 1)
        assert format_wreath_element(g) == "[x1; 1; 1; 1; 1; 1; 1; 1] 1"

    # sha256 of the formatted products and inverses below, recorded before
    # coordinates were named by element id
    GOLDEN = "42863a35ea6a81e270ff422e755af50859d341b77203f5e06739e8cdbe10d4ec"

    def test_products_and_inverses_match_the_recorded_bytes(self):
        lines = []
        rng = random.Random(11)
        for K in MOVED_TOPS.values():
            W = WreathGroup(2, K)

            def text():
                words = "; ".join(format_free_word(random_reduced_word(rng, 2, 6)) for _ in range(W.size))
                return f"[{words}] {K.shortest_label_word(rng.randrange(W.size))}"

            for _ in range(40):
                g, h = parse_wreath_element(W, text()), parse_wreath_element(W, text())
                lines += [format_wreath_element(w_multiply(g, h)), format_wreath_element(w_invert(g))]
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == self.GOLDEN


# wreath groups for the evaluator properties: S3 (Fink's generators), C2,
# D4 (order 8) and D10 (order 20) tops, and S3 and D4 with the identity
# moved off id 0, at ranks 2 and 3, built once so their tables are reused
EVAL_GROUPS = {
    (name, rank): WreathGroup(rank, top)
    for name, top in (
        ("sym3_fink", sym3_fink()),
        ("C2", cyclic(2)),
        ("D4", dihedral(4)),
        ("D10", dihedral(10)),
        *MOVED_TOPS.items(),
    )
    for rank in (2, 3)
}


@st.composite
def letter_maps(draw):
    """(W, base_letters, top_letters, inverse): base letters b<g>/B<g> with
    exponents +-e (e in 1..3), a top letter t<k> per element, one base
    letter shadowed by a top entry, and each letter's inverse letter."""
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
    return W, base, top, inverse


def draw_word(draw, inverse, max_size=40):
    """A word u v^-1 w whose middle cancels a random prefix of u's
    inverse, letter by letter."""
    letters = st.lists(st.sampled_from(sorted(inverse)), max_size=max_size)
    u, w = draw(letters), draw(letters)
    cancel = tuple(inverse[a] for a in reversed(u))[: draw(st.integers(0, len(u)))]
    return MonoidWord(tuple(u) + cancel + tuple(w))


@st.composite
def letter_words(draw):
    """(W, word, base_letters, top_letters), the word as ``draw_word``."""
    W, base, top, inverse = draw(letter_maps())
    return W, draw_word(draw, inverse), base, top


@st.composite
def letter_word_lists(draw):
    """(W, words, base_letters, top_letters): up to six words as
    ``draw_word``, empty ones included, now and then with each letter
    repeated 1-5 times so that letter runs occur, each over its own
    alphabet in order of first occurrence or recoded over a shuffled one
    holding a label that never occurs."""
    W, base, top, inverse = draw(letter_maps())
    words = []
    for _ in range(draw(st.integers(0, 6))):
        word = draw_word(draw, inverse, max_size=draw(st.sampled_from([0, 3, 20])))
        if draw(st.booleans()):
            repeats = st.lists(st.integers(1, 5), min_size=len(word), max_size=len(word))
            word = MonoidWord(a for a, k in zip(word.letters, draw(repeats)) for _ in range(k))
        if draw(st.booleans()):
            alphabet = draw(st.permutations(word.alphabet + ("unused",)))
            recode = np.array([alphabet.index(a) for a in word.alphabet], np.int64)
            word = MonoidWord.from_codes(recode[word.codes], tuple(alphabet))
        words.append(word)
    return W, words, base, top


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

    @given(letter_words(), st.data())
    def test_unknown_label_in_the_alphabet(self, case, data):
        # a label in neither map is an error only where it occurs in the word
        W, word, base, top = case
        codes = word.codes.tolist()
        occurs = data.draw(st.booleans())
        if occurs:
            codes.insert(data.draw(st.integers(0, len(codes))), len(word.alphabet))
        word = MonoidWord.from_codes(np.array(codes, np.int64), word.alphabet + ("q",))
        if occurs:
            for evaluate in (evaluate_letters, reference_evaluate_letters):
                with pytest.raises(ValueError, match="letter 'q' is neither a base nor a top generator"):
                    evaluate(W, word, base, top)
        else:
            assert evaluate_letters(W, word, base, top) == reference_evaluate_letters(W, word, base, top)

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

    def test_a_base_letter_that_is_not_a_string_is_a_value_error(self, W):
        with pytest.raises(ValueError, match="base letter 1 is not a string"):
            evaluate_letters(W, MonoidWord(("x",)), {**self.X, 1: (1, 1)}, {})

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


class TestEvaluateWords:
    @given(letter_word_lists())
    def test_matches_the_reference_fold_per_word(self, case):
        W, words, base, top = case
        expected = [reference_evaluate_letters(W, w, base, top) for w in words]
        values, _ = evaluate_words(W, words, base, top)
        assert values == expected

    @staticmethod
    def fold(W, words, base, top):
        """The reference values of the words, multiplied in order."""
        product = W.identity()
        for w in words:
            product = w_multiply(product, reference_evaluate_letters(W, w, base, top))
        return product

    @given(letter_word_lists())
    def test_the_product_is_the_reference_fold_over_the_list(self, case):
        # the empty list gives the identity, and one word its own value
        W, words, base, top = case
        values, product = evaluate_words(W, words, base, top)
        assert product == self.fold(W, words, base, top)
        if len(words) == 1:
            assert product == values[0]

    @given(letter_maps(), st.data())
    def test_words_that_cancel_across_word_bounds(self, maps, data):
        # u then its formal inverse, cut into words at random points: the
        # product is the identity wherever the cuts fall
        W, base, top, inverse = maps
        u = data.draw(st.lists(st.sampled_from(sorted(inverse)), min_size=1, max_size=20))
        letters = u + [inverse[a] for a in reversed(u)]
        cuts = sorted(data.draw(st.lists(st.integers(0, len(letters)), max_size=4)))
        words = [MonoidWord(letters[i:j]) for i, j in zip([0] + cuts, cuts + [len(letters)])]
        _, product = evaluate_words(W, words, base, top)
        assert product.is_identity() and product == self.fold(W, words, base, top)

    def test_a_run_continued_by_the_next_word_cancels_in_the_product(self, W):
        # x x ends the first word and x^-1 x^-1 starts the second, both at
        # coordinate s1 in the product: each word holds its own power, at the
        # coordinate of its own running top, and the product none
        words = [MonoidWord(("s1", "x", "x")), MonoidWord(("x^-1", "x^-1", "s1"))]
        values, product = evaluate_words(W, words, self.BASE, dict(W.top.labels))
        assert values[0].base[W.top.labels["s1"]].syllables == ((1, 2),)
        assert values[1].base[W.top.identity].syllables == ((1, -2),)
        assert product.is_identity()

    @given(letter_word_lists(), st.data())
    def test_the_first_unknown_letter_in_the_list_is_named(self, case, data):
        # a label in neither map, in one or two of the words: the error names
        # the first of them across the list, as a fold word by word would
        W, words, base, top = case
        words = words or [MonoidWord()]
        for label in data.draw(st.lists(st.sampled_from(["q", "Q"]), min_size=1, max_size=2)):
            i = data.draw(st.integers(0, len(words) - 1))
            letters = list(words[i].letters)
            letters.insert(data.draw(st.integers(0, len(letters))), label)
            words[i] = MonoidWord(tuple(letters))
        with pytest.raises(ValueError, match="neither a base nor a top generator") as reference:
            for w in words:
                reference_evaluate_letters(W, w, base, top)
        with pytest.raises(ValueError) as caught:
            evaluate_words(W, words, base, top)
        assert str(caught.value) == str(reference.value)

    def test_an_empty_list_still_checks_the_maps(self, W):
        assert evaluate_words(W, [], {"x": (1, 1)}, {"s1": 1}) == ([], W.identity())
        with pytest.raises(ValueError, match="top element"):
            evaluate_words(W, [], {"x": (1, 1)}, {"k": 6})
        with pytest.raises(ValueError, match="exponent"):
            evaluate_words(W, [], {"x": (1, 0)}, {})

    @pytest.mark.parametrize(
        "key,count",
        [(("sym3_fink", 2), 200), (("D10", 2), 3_300), (("C2", 2), 40_000)],
        ids=["S3x200", "D10x3300", "C2x40000"],
    )
    def test_many_tiny_words_widen_the_sort_key(self, key, count):
        # words times top order past 255 and past 65,535: the sort key takes
        # two and then four bytes, and every word still gets its own value
        W = EVAL_GROUPS[key]
        base = {"x": (1, 1), "X": (1, -1), "y": (2, 2)}
        top = {f"t{k}": k for k in W.top.elements()}
        labels = sorted(base) + sorted(top)
        rng = random.Random(count)
        words = [MonoidWord(rng.choices(labels, k=rng.randrange(4))) for _ in range(count)]
        assert len(words) * W.size > (255 if count < 1000 else 65_535)
        # the reference is a fold per word; equal words share one fold
        reference = {}
        for w in words:
            if w.letters not in reference:
                reference[w.letters] = reference_evaluate_letters(W, w, base, top)
        got, _ = evaluate_words(W, words, base, top)
        assert len(got) == count
        assert all(g == reference[w.letters] for g, w in zip(got, words))

    # letter runs, maximal stretches of one base letter within one word, at
    # their boundaries; each case against the reference fold
    BASE = {"x": (1, 1), "x^-1": (1, -1), "y": (2, 1), "y^-1": (2, -1)}

    @staticmethod
    def check(W, words, base, top):
        got, _ = evaluate_words(W, words, base, top)
        assert got == [reference_evaluate_letters(W, w, base, top) for w in words]
        return got

    def test_a_run_across_a_word_bound_stays_two_runs(self, W):
        # x x ends the first word and starts the second: each word holds its
        # own x^2, at the coordinate of its own running top
        words = [MonoidWord(("s1", "x", "x")), MonoidWord(("x", "x", "s2")), MonoidWord(("x",))]
        got = self.check(W, words, self.BASE, dict(W.top.labels))
        assert [[w.syllables for w in g.base if not w.is_identity()] for g in got] == [
            [((1, 2),)],
            [((1, 2),)],
            [((1, 1),)],
        ]

    def test_a_run_broken_by_an_identity_top_letter_merges(self, W):
        top = {**W.top.labels, "e": W.top.identity}
        (got,) = self.check(W, [MonoidWord(("x", "x", "e", "x", "e", "e", "x^-1"))], self.BASE, top)
        assert got.base[W.top.identity].syllables == ((1, 2),)

    def test_a_letter_in_both_maps_inside_a_run(self, W):
        # z is a base letter: it splits the run of x but lands at its coordinate
        base = {**self.BASE, "z": (1, 3)}
        top = {**W.top.labels, "z": 1}
        words = [MonoidWord(("c", "x", "x", "z", "z", "x", "y", "z"))]
        (got,) = self.check(W, words, base, top)
        assert got.base[3].syllables == ((1, 9), (2, 1), (1, 3))

    def test_a_word_that_does_not_start_with_the_base_letters_is_recoded(self, W):
        words = [MonoidWord(("s1", "y", "y", "x^-1")), MonoidWord(("c", "x", "x"))]
        assert all(w.alphabet[: len(self.BASE)] != tuple(self.BASE) for w in words)
        self.check(W, words, self.BASE, dict(W.top.labels))

    def test_an_empty_base_map(self, W):
        words = [MonoidWord(("s1", "c", "c")), MonoidWord(), MonoidWord(("s2",))]
        got = self.check(W, words, {}, dict(W.top.labels))
        assert all(all(w.is_identity() for w in g.base) for g in got)

    def test_a_run_of_100_000_letters(self, W):
        # the run's exponent times its length passes int32; the reference
        # folds the same word with the run written as one letter
        m, e = 10**5, 2**31 - 1
        top = dict(W.top.labels)
        long = MonoidWord(("s1",) + ("x",) * m + ("c", "x^-1"))
        short = MonoidWord(("s1", "X", "c", "x^-1"))
        (got,), _ = evaluate_words(W, [long], {"x": (1, e), "x^-1": (1, -1)}, top)
        assert got == reference_evaluate_letters(W, short, {"X": (1, e * m), "x^-1": (1, -1)}, top)
        assert got.base[1].syllables == ((1, e * m),)


def stack_reduce_runs(gens, exps):
    """The reduction stack: every run pushed in turn, merging with the top."""
    return reference_reduce(zip(gens, exps))


def reduce_run_lists(gens, exps):
    """``_reduce_runs`` on int64 arrays of the runs, read back as syllables;
    runs with no zero run come back as the very arrays passed in."""
    gens, exps = np.array(gens, np.int64), np.array(exps, np.int64)
    out_gens, out_exps = _reduce_runs(gens, exps)
    assert out_gens.dtype == out_exps.dtype == np.int64
    if exps.all():
        assert out_gens is gens and out_exps is exps
    return tuple(zip(out_gens.tolist(), out_exps.tolist()))


@st.composite
def run_lists(draw):
    """(gens, exps) of one coordinate's runs at rank 2 or 3: neighbours on
    distinct generators, exponents in -3..3 with zero allowed, and now and
    then a stretch followed by a zero run and its inverse, cut short, so
    that a cascade runs deep."""
    rank = draw(st.integers(2, 3))
    gens, exps = [], []

    def push(gen, exp):
        gens.append(gen)
        exps.append(exp)

    def other(*taken):
        return draw(st.sampled_from([g for g in range(1, rank + 1) if g not in taken]))

    for _ in range(draw(st.integers(0, 6))):
        start = len(gens)
        for _ in range(draw(st.integers(0, 8))):
            push(other(*gens[-1:]), draw(st.integers(-3, 3)))
        if draw(st.booleans()) and len(gens) > start:
            stretch = list(zip(gens[start:], exps[start:]))
            push(other(gens[-1]), 0)
            for gen, exp in reversed(stretch[draw(st.integers(0, len(stretch) - 1)) :]):
                push(gen, -exp)
    return gens, exps


class TestReduceRuns:
    @given(run_lists())
    def test_matches_the_reduction_stack(self, runs):
        gens, exps = runs
        assert all(a != b for a, b in zip(gens, gens[1:]))
        assert reduce_run_lists(gens, exps) == stack_reduce_runs(gens, exps)

    def test_a_deep_cascade_cancels_completely(self, W):
        # x y x y ... x y y^-1 x^-1 ... y^-1 x^-1: the middle y y^-1 is one
        # zero run and 9,998 runs cancel in a single cascade
        m = 2500
        letters = [(1, 1), (2, 1)] * m + [(2, -1), (1, -1)] * m
        runs = [(g, sum(e for _, e in run)) for g, run in groupby(letters, itemgetter(0))]
        gens, exps = map(list, zip(*runs))
        assert len(gens) == 9999 and exps.count(0) == 1
        assert reduce_run_lists(gens, exps) == stack_reduce_runs(gens, exps) == ()
        base = {"x": (1, 1), "x^-1": (1, -1), "y": (2, 1), "y^-1": (2, -1)}
        word = MonoidWord(("x", "y") * m + ("y^-1", "x^-1") * m)
        assert evaluate_letters(W, word, base, {}).is_identity()

    def test_a_long_reduced_coordinate_ending_in_one_zero_run(self):
        rng = random.Random(7)
        gens = [1 + i % 3 for i in range(10_000)]
        exps = [rng.choice([-2, -1, 1, 2]) for _ in gens[:-1]] + [0]
        assert reduce_run_lists(gens, exps) == tuple(zip(gens[:-1], exps[:-1]))
        assert reduce_run_lists(gens, exps) == stack_reduce_runs(gens, exps)


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
    table = relabel(top, perm).table.tolist()
    flat = np.array(table).ravel().astype(np.min_scalar_type(n * n - 1))
    for length in range(71):
        x = [rng.randrange(n) for _ in range(length)]
        expected, acc = [], None
        for a in x:
            acc = a if acc is None else table[acc][a]
            expected.append(acc)
        got = _prefix_products(flat, n, np.array(x, flat.dtype))
        assert got.dtype == flat.dtype
        assert got.tolist() == expected
