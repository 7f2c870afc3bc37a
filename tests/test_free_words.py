"""Free-word arithmetic, palindrome predicate, and the quasi-lengths."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from groupwidths.free_words import (
    FreeWord,
    MonoidWord,
    format_free_word,
    format_monoid_word,
    free_commutator,
    is_word_palindrome,
    parse_free_word,
    parse_monoid_word,
    ql,
    reduce_word,
    tr,
)

from conftest import invert_letters, random_reduced_word, spelled_texts

letters_rank2 = st.sampled_from(["x1", "x1^-1", "x2", "x2^-1"])
monoid_words = st.lists(letters_rank2, max_size=40).map(lambda ls: MonoidWord(tuple(ls)))
free_words_rank2 = monoid_words.map(lambda w: reduce_word(w, rank=2))

# text atoms with their spelled-out letters: syllables x<g>^<e> (e may be
# 0), commutators [x<g>,x<h>] = x<g>^-1 x<h>^-1 x<g> x<h>, and "1"
syllable_atoms = st.tuples(st.integers(1, 3), st.integers(-3, 3)).map(
    lambda ge: (f"x{ge[0]}^{ge[1]}", (f"x{ge[0]}" if ge[1] > 0 else f"x{ge[0]}^-1",) * abs(ge[1]))
)
commutator_atoms = st.tuples(st.integers(1, 3), st.integers(1, 3)).map(
    lambda gh: (f"[x{gh[0]},x{gh[1]}]", (f"x{gh[0]}^-1", f"x{gh[1]}^-1", f"x{gh[0]}", f"x{gh[1]}"))
)
text_atoms = st.one_of(syllable_atoms, syllable_atoms, commutator_atoms, st.just(("1", ())))


def inverse_atom(atom: tuple[str, tuple[str, ...]]) -> tuple[str, tuple[str, ...]]:
    """The inverse of an atom, spelled letter by letter."""
    letters = invert_letters(atom[1])
    return " ".join(letters) or "1", letters


class TestTr:
    def test_examples(self):
        assert tr(0) == 0
        assert tr(4) == 1
        assert tr(-7) == -1

    def test_table(self):
        # residues mod 3 with 2 mapped to -1
        assert [tr(m) for m in range(-4, 5)] == [-1, 0, 1, -1, 0, 1, -1, 0, 1]

    @given(st.integers(), st.integers())
    def test_subadditivity_window(self, m, n):
        assert tr(m) + tr(n) - 3 <= tr(m + n) <= tr(m) + tr(n) + 3

    @given(st.integers())
    def test_odd(self, m):
        assert tr(-m) == -tr(m)
        assert tr(m + 3) == tr(m)


class TestReduce:
    def test_cancellation(self):
        assert reduce_word(MonoidWord(("x1", "x1^-1"))).is_identity()

    def test_already_reduced(self):
        w = parse_monoid_word("x2^-1 x2^-1 x2^-1 x1^-1 x1^-1 x1^-1 x2 x1 x2 x1 x2 x1")
        expected = ((2, -3), (1, -3), (2, 1), (1, 1), (2, 1), (1, 1), (2, 1), (1, 1))
        assert reduce_word(w).syllables == expected

    def test_syllable_merge(self):
        assert reduce_word(MonoidWord(("x1", "x1", "x1", "x1", "x1"))).syllables == ((1, 5),)

    def test_letters_are_range_checked(self):
        # as in parse_free_word, a letter that cancels is checked too
        with pytest.raises(ValueError):
            reduce_word(MonoidWord(("x0", "x0^-1")))
        with pytest.raises(ValueError):
            reduce_word(MonoidWord(("x3", "x3^-1")), rank=2)
        assert reduce_word(MonoidWord(("x3", "x3^-1"))).rank == 3

    @given(monoid_words)
    def test_idempotent(self, w):
        reduced = reduce_word(w, rank=2)
        assert reduce_word(reduced.to_letters(), rank=2) == reduced

    @given(monoid_words, monoid_words)
    def test_retraction(self, u, v):
        lhs = reduce_word(u * v, rank=2)
        assert lhs == reduce_word(u, rank=2) * reduce_word(v, rank=2)


class TestPalindromePredicate:
    def test_examples(self):
        assert is_word_palindrome(MonoidWord(("s1", "x", "s1")))
        assert not is_word_palindrome(MonoidWord(("x", "y")))
        assert is_word_palindrome(parse_monoid_word("s1 s2 x x x s2 s1"))
        assert is_word_palindrome(MonoidWord())

    @given(monoid_words)
    def test_reverse_involution(self, w):
        assert w.reverse().reverse() == w
        if is_word_palindrome(w):
            assert is_word_palindrome(w.reverse())

    @given(monoid_words)
    def test_built_palindromes(self, w):
        assert is_word_palindrome(w * w.reverse())


class TestGroupOps:
    def test_multiply_cancel(self):
        x = FreeWord.generator(2, 1)
        assert (x * x.inverse()).is_identity()

    def test_invert(self):
        w = parse_free_word("x1^2 x2")
        assert w.inverse() == parse_free_word("x2^-1 x1^-2")

    def test_commutator(self):
        x, y = FreeWord.generator(2, 1), FreeWord.generator(2, 2)
        assert free_commutator(x, y) == parse_free_word("x1^-1 x2^-1 x1 x2")
        assert free_commutator(x, x).is_identity()

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            FreeWord.generator(2, 1) * FreeWord.generator(3, 1)

    def test_identity_factor_returns_the_other_operand(self):
        w = parse_free_word("x1^2 x2^-1 x1", rank=2)
        one = FreeWord.identity(2)
        assert w * one is w
        assert one * w is w
        assert one * one is one
        # the rank check comes first, also for the identity
        for a, b in ((w, FreeWord.identity(3)), (FreeWord.identity(3), w)):
            with pytest.raises(ValueError, match="rank mismatch"):
                a * b

    @given(free_words_rank2, free_words_rank2, st.data())
    def test_deep_cancellation_at_the_seam(self, u, w, data):
        # v starts with the inverse of a letter suffix of u, so u * v
        # cancels that suffix across the seam and may merge one syllable
        letters = u.to_letters().letters
        k = data.draw(st.integers(0, len(letters)))
        suffix = reduce_word(MonoidWord(letters[k:]), rank=2)
        v = suffix.inverse() * w
        expected = reduce_word(u.to_letters() * v.to_letters(), rank=2)
        assert u * v == expected
        assert u * v == reduce_word(MonoidWord(letters[:k]) * w.to_letters(), rank=2)

    def test_group_axioms_random(self):
        rng = random.Random(11)
        for _ in range(300):
            rank = rng.randint(2, 4)
            f = random_reduced_word(rng, rank, 20)
            g = random_reduced_word(rng, rank, 20)
            h = random_reduced_word(rng, rank, 20)
            assert (f * g) * h == f * (g * h)
            assert (f * f.inverse()).is_identity()
            assert (f * g).inverse() == g.inverse() * f.inverse()


class TestQl:
    def test_empty(self):
        assert ql(FreeWord.identity(2)) == 0

    def test_witness_word(self):
        assert ql(parse_free_word("x2^-3 x1^-3 x2 x1 x2 x1 x2 x1")) == 6

    def test_hand_example(self):
        # tr(2) + tr(1) + tr(-1) = -1 + 1 - 1
        assert ql(parse_free_word("x1^2 x2 x1^-1")) == -1

    def test_accepts_unreduced(self):
        assert ql(MonoidWord(("x1", "x1^-1", "x2"))) == ql(parse_free_word("x2"))

    def test_quasi_morphism_bounds_random(self):
        rng = random.Random(23)
        for _ in range(500):
            rank = rng.randint(2, 4)
            f = random_reduced_word(rng, rank, 60)
            g = random_reduced_word(rng, rank, 60)
            assert ql(f) + ql(g) - 3 <= ql(f * g) <= ql(f) + ql(g) + 3
            assert ql(g.inverse()) == -ql(g)
            assert -9 <= ql(free_commutator(f, g)) <= 9


class TestTextFormats:
    def test_free_word_round_trip(self):
        rng = random.Random(5)
        for _ in range(100):
            w = random_reduced_word(rng, 3, 30)
            assert parse_free_word(format_free_word(w), rank=3) == w

    def test_identity_text(self):
        assert format_free_word(FreeWord.identity(2)) == "1"
        assert parse_free_word("1", rank=2).is_identity()

    def test_commutator_shorthand(self):
        x, y = FreeWord.generator(2, 1), FreeWord.generator(2, 2)
        assert parse_free_word("[x,y]") == free_commutator(x, y)
        assert parse_free_word("[x,y] x1^2").syllables == (free_commutator(x, y) * FreeWord(2, ((1, 2),))).syllables

    def test_monoid_round_trip(self):
        w = parse_monoid_word("s1 s2 y^-1 s2 s1")
        assert format_monoid_word(w) == "s1 s2 y^-1 s2 s1"
        assert format_monoid_word(MonoidWord()) == "1"

    @given(st.lists(text_atoms, max_size=12), st.data())
    def test_atoms_cancel_across_boundaries(self, atoms, data):
        # append the inverses of a random tail of the atoms (spelled as
        # plain syllables), then more atoms: the parse must reduce across
        # every atom boundary exactly as reduce_word does on the letters
        k = data.draw(st.integers(0, len(atoms)))
        tail = [inverse_atom(a) for a in reversed(atoms[k:])]
        atoms = atoms + tail + data.draw(st.lists(text_atoms, max_size=4))
        text = " ".join(t for t, _ in atoms) or "1"
        letters = tuple(l for _, ls in atoms for l in ls)
        assert parse_free_word(text, rank=3) == reduce_word(MonoidWord(letters), rank=3)

    def test_cancelled_syllables_are_still_range_checked(self):
        with pytest.raises(ValueError):
            parse_free_word("x3 x3^-1", rank=2)
        with pytest.raises(ValueError):
            parse_free_word("x0 x0^-1")
        assert parse_free_word("x3 x3^-1").rank == 3

    @given(spelled_texts())
    def test_spelled_texts_parse_to_their_letters(self, spelled):
        text, letters = spelled
        assert parse_free_word(text, rank=3) == reduce_word(MonoidWord(letters), rank=3)

    @given(st.lists(st.sampled_from(["x1", "y^-2", "[", "]", ",", "1", " ", "x", "^", "-"]), max_size=30))
    def test_any_text_parses_or_raises_value_error(self, pieces):
        try:
            parse_free_word("".join(pieces))
        except ValueError:
            pass

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_free_word("z7")
        with pytest.raises(ValueError):
            parse_free_word("[x,y")
