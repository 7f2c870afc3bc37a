"""Free-word arithmetic, palindrome predicate, and the quasi-lengths."""

import contextlib
import pickle
import random
import re

import numpy as np
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
    ql,
    reduce_word,
)

from conftest import free_generator, invert_letters, random_reduced_word, reversed_word, spelled_out, spelled_texts
from oracle import reference_fault, reference_format, reference_reduce, tr

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


@st.composite
def reduced_words(draw) -> FreeWord:
    """A reduced word of rank 1-12 (two-digit generator indices) with
    exponents up to 10^9 in size."""
    rank = draw(st.integers(1, 12))
    exponents = st.integers(-(10**9), 10**9).filter(bool)
    syllables = draw(st.lists(st.tuples(st.integers(1, rank), exponents), max_size=20))
    kept: list[tuple[int, int]] = []
    for gen, exp in syllables:
        if not kept or kept[-1][0] != gen:
            kept.append((gen, exp))
    return FreeWord(rank, tuple(kept))


# exponents on both sides of the int64 / Python-int boundary at 2**31, and
# past int64
BOUNDARY_EXPONENTS = [2**31 - 1, 2**31, 2**63, 10**20]
exponents = st.one_of(
    st.integers(-3, 3).filter(bool),
    st.sampled_from(BOUNDARY_EXPONENTS + [-e for e in BOUNDARY_EXPONENTS]),
)


@st.composite
def reduced_syllables(draw, rank: int = 3) -> tuple[tuple[int, int], ...]:
    """Syllables of a reduced word at the given rank, small exponents mixed
    with ones at the int64 boundaries."""
    return reference_reduce(draw(st.lists(st.tuples(st.integers(1, rank), exponents), max_size=12)))


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
        w = MonoidWord("x2^-1 x2^-1 x2^-1 x1^-1 x1^-1 x1^-1 x2 x1 x2 x1 x2 x1".split())
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

    @pytest.mark.parametrize("letter", ["x1^1", "x1^2", "x1^-2", "x1^-01", "x^2", "y^1", "x1^0", "x1^-0", "x1^+1"])
    def test_a_letter_takes_no_exponent_but_minus_one(self, letter):
        # a syllable is not a letter: its exponent is absent or exactly -1
        with pytest.raises(ValueError, match="not a free-group letter"):
            reduce_word(MonoidWord((letter,)))

    def test_an_index_may_have_leading_zeros(self):
        assert reduce_word(MonoidWord(("x01", "x1^-1", "x001^-1"))).syllables == ((1, -1),)

    @given(monoid_words)
    def test_idempotent(self, w):
        reduced = reduce_word(w, rank=2)
        assert reduce_word(spelled_out(reduced), rank=2) == reduced

    @given(monoid_words, monoid_words)
    def test_retraction(self, u, v):
        lhs = reduce_word(u * v, rank=2)
        assert lhs == reduce_word(u, rank=2) * reduce_word(v, rank=2)


class TestPalindromePredicate:
    def test_examples(self):
        assert is_word_palindrome(MonoidWord(("s1", "x", "s1")))
        assert not is_word_palindrome(MonoidWord(("x", "y")))
        assert is_word_palindrome(MonoidWord("s1 s2 x x x s2 s1".split()))
        assert is_word_palindrome(MonoidWord())

    @given(monoid_words)
    def test_reverse_involution(self, w):
        assert reversed_word(reversed_word(w)) == w
        if is_word_palindrome(w):
            assert is_word_palindrome(reversed_word(w))

    @given(monoid_words)
    def test_built_palindromes(self, w):
        assert is_word_palindrome(w * reversed_word(w))


class TestGroupOps:
    def test_multiply_cancel(self):
        x = free_generator(2, 1)
        assert (x * x.inverse()).is_identity()

    def test_invert(self):
        w = parse_free_word("x1^2 x2")
        assert w.inverse() == parse_free_word("x2^-1 x1^-2")

    def test_commutator(self):
        x, y = free_generator(2, 1), free_generator(2, 2)
        assert free_commutator(x, y) == parse_free_word("x1^-1 x2^-1 x1 x2")
        assert free_commutator(x, x).is_identity()

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            free_generator(2, 1) * free_generator(3, 1)

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
        letters = spelled_out(u).letters
        k = data.draw(st.integers(0, len(letters)))
        suffix = reduce_word(MonoidWord(letters[k:]), rank=2)
        v = suffix.inverse() * w
        expected = reduce_word(spelled_out(u) * spelled_out(v), rank=2)
        assert u * v == expected
        assert u * v == reduce_word(MonoidWord(letters[:k]) * spelled_out(w), rank=2)

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
    @given(reduced_words())
    def test_free_word_round_trip(self, w):
        text = format_free_word(w)
        assert parse_free_word(text, rank=w.rank) == w
        assert format_free_word(parse_free_word(text)) == text

    def test_identity_text(self):
        assert format_free_word(FreeWord.identity(2)) == "1"
        assert parse_free_word("1", rank=2).is_identity()

    def test_commutator_shorthand(self):
        x, y = free_generator(2, 1), free_generator(2, 2)
        assert parse_free_word("[x,y]") == free_commutator(x, y)
        assert parse_free_word("[x,y] x1^2").syllables == (free_commutator(x, y) * FreeWord(2, ((1, 2),))).syllables

    def test_monoid_round_trip(self):
        w = MonoidWord("s1 s2 y^-1 s2 s1".split())
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

    @pytest.mark.parametrize("text", ["x5 x5^-1 x1", "[x5,x5] x1", "x5^0 x1", "[x1,[x5,x5]]"])
    def test_every_index_written_is_range_checked(self, text):
        # a zero exponent and a commutator that cancels are checked too
        with pytest.raises(ValueError, match="generator index 5 out of range"):
            parse_free_word(text, rank=2)
        assert parse_free_word(text).rank == 5

    @given(spelled_texts(), st.integers(1, 5))
    def test_rank_bounds_the_largest_index_written(self, spelled, rank):
        text, _ = spelled
        written = [int(m) for m in re.findall(r"x(\d+)", text)] + [2] * ("y" in text)
        top = max(written, default=1)
        if rank < top:
            with pytest.raises(ValueError, match="out of range"):
                parse_free_word(text, rank=rank)
        else:
            free = parse_free_word(text)
            assert free.rank == top
            assert parse_free_word(text, rank=rank) == FreeWord(rank, free.syllables)

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

    def test_aliases_are_whole_atoms_only(self):
        assert parse_free_word("x y^-1") == parse_free_word("x1 x2^-1")
        assert parse_free_word("x1^3 x2^-2").syllables == ((1, 3), (2, -2))
        for text in ("x^3", "y^2", "x^-2", "y^1"):
            with pytest.raises(ValueError, match="not a syllable"):
                parse_free_word(text)

    @pytest.mark.parametrize("digit", ["\u0661", "\uff11", "\u0967", "\U0001d7cf"])
    def test_only_ascii_digits_are_read(self, digit):
        # each of these reads as 1 through int(), and a regex \d matches it
        assert int(digit) == 1
        for text, atom in ((f"x{digit}^3 x2", f"x{digit}^3"), (f"x2 x1^{digit}", f"x1^{digit}")):
            with pytest.raises(ValueError, match=re.escape(f"not a syllable: {atom!r}")):
                parse_free_word(text)
        with pytest.raises(ValueError, match=re.escape(f"not a free-group letter: 'x{digit}'")):
            reduce_word(MonoidWord(("x1", f"x{digit}")))
        assert parse_free_word("x1^3 x2") == reduce_word(MonoidWord(("x1",) * 3 + ("x2",)))

    def test_a_trailing_newline_is_no_part_of_a_syllable(self):
        # a regex ending in $ also matches before a final newline
        with pytest.raises(ValueError, match=re.escape("not a syllable: 'x1\\n'")):
            parse_free_word("x1\n x2")
        with pytest.raises(ValueError, match=re.escape("not a free-group letter: 'x1\\n'")):
            reduce_word(MonoidWord(["x1\n", "x2"]))

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_free_word("z7")
        with pytest.raises(ValueError):
            parse_free_word("[x,y")


class TestSyllableArrays:
    """The array FreeWord against plain tuples of (generator, exponent)."""

    @given(st.integers(1, 3), st.lists(st.tuples(st.integers(-1, 4), st.integers(-2, 2)), max_size=8))
    def test_the_first_bad_syllable_is_named(self, rank, syllables):
        fault = reference_fault(rank, syllables)
        gens = np.array([g for g, _ in syllables], np.int64)
        exps = np.array([e for _, e in syllables], np.int64)
        for build in (lambda: FreeWord(rank, syllables), lambda: FreeWord.from_arrays(rank, gens, exps)):
            if fault is None:
                assert build().syllables == tuple(syllables)
            else:
                with pytest.raises(ValueError, match=re.escape(fault)):
                    build()

    def test_a_bad_syllable_past_int64_is_named(self):
        with pytest.raises(ValueError, match=r"generator index 100000000000000000000 out of range 1\.\.2"):
            FreeWord(2, ((1, 2), (10**20, 1), (1, 0)))
        with pytest.raises(ValueError, match="zero exponent"):
            FreeWord(2, ((1, 0), (10**20, 1)))
        with pytest.raises(ValueError, match="rank must be positive"):
            FreeWord(0)
        with pytest.raises(ValueError, match="past 2\\*\\*63"):
            FreeWord(2**63)

    def test_non_integers_are_refused(self):
        for syllables in (((1, 1.5),), ((1.0, 1),), (("x", 1),)):
            with pytest.raises(TypeError):
                FreeWord(2, syllables)
        with pytest.raises(TypeError):
            FreeWord.from_arrays(2, np.array([1.0]), np.array([1]))
        with pytest.raises(TypeError):
            FreeWord.from_arrays(2, np.array([1]), np.array([1.5], object))
        with pytest.raises(ValueError, match="one length"):
            FreeWord.from_arrays(2, np.array([1, 2]), np.array([1]))

    @given(reduced_syllables(), reduced_syllables(), st.data())
    def test_products_cancel_at_the_seam_as_the_stack_does(self, u, w, data):
        # v starts with the inverse of a syllable suffix of u, its first
        # syllable cut short or not: full or partial cancellation
        k = data.draw(st.integers(0, len(u)))
        suffix = [(g, -e) for g, e in reversed(u[k:])]
        if suffix and data.draw(st.booleans()):
            suffix[0] = (suffix[0][0], suffix[0][1] + data.draw(st.sampled_from([-1, 1])))
        v = reference_reduce(suffix + list(w))
        product = FreeWord(3, u) * FreeWord(3, v)
        assert product.syllables == reference_reduce(u + v)
        assert product == FreeWord(3, reference_reduce(u + v))

    @given(st.lists(st.tuples(st.integers(1, 3), st.one_of(exponents, st.sampled_from([0, 2**63 - 1]))), max_size=16))
    def test_parse_reduces_any_syllables_as_the_stack_does(self, syllables):
        # zero exponents, neighbours on one generator, and sums past int64
        text = " ".join(f"x{g}^{e}" for g, e in syllables) or "1"
        assert parse_free_word(text, rank=3).syllables == reference_reduce(syllables)

    def test_run_sums_past_int64_are_exact(self):
        big = 2**63 - 1
        assert parse_free_word(f"x1^{big} x1^{big}").syllables == ((1, 2 * big),)
        assert parse_free_word(f"x1^{big} x2 x2^-1 x1^{-big} x1").syllables == ((1, 1),)
        assert parse_free_word("x1^2147483647 x1").exps.dtype == object

    @given(reduced_syllables(), st.integers(1, 3))
    def test_inverse_sums_ql_and_text(self, u, gen):
        w = FreeWord(3, u)
        assert w.inverse().syllables == tuple((g, -e) for g, e in reversed(u))
        assert w.exponent_sum(gen) == sum(e for g, e in u if g == gen)
        assert type(w.exponent_sum(gen)) is int and type(ql(w)) is int
        assert ql(w) == sum(tr(e) for _, e in u)
        assert len(w) == len(u)
        assert format_free_word(w) == reference_format(u)
        assert parse_free_word(reference_format(u), rank=3) == w

    @pytest.mark.parametrize("exp", BOUNDARY_EXPONENTS)
    def test_equality_and_hash_across_constructors_and_dtypes(self, exp):
        small = exp < 2**31
        for e in (exp, -exp):
            words = [
                FreeWord(2, ((1, e), (2, 1))),
                FreeWord.from_arrays(2, np.array([1, 2], np.uint8), np.array([e, 1], object)),
                parse_free_word(f"x1^{e} x2", rank=2),
                FreeWord(2, ((1, e - 1),)) * FreeWord(2, ((1, 1), (2, 1))),
            ]
            if abs(e) < 2**63:
                words.append(FreeWord.from_arrays(2, np.array([1, 2]), np.array([e, 1], np.int64)))
            for w in words:
                assert w.gens.dtype == np.int64
                assert w.exps.dtype == (np.int64 if small else object)
                assert w == words[0] and hash(w) == hash(words[0])
                assert w.syllables == ((1, e), (2, 1))
                assert all(type(v) is int for s in w.syllables for v in s)
        # crossing the boundary either way in a product
        up = FreeWord(1, ((1, 2**31 - 1),)) * FreeWord(1, ((1, 1),))
        down = FreeWord(1, ((1, 2**31),)) * FreeWord(1, ((1, -1),))
        assert (up.exps.dtype, down.exps.dtype) == (object, np.int64)
        assert up.syllables == ((1, 2**31),) and down.syllables == ((1, 2**31 - 1),)
        assert FreeWord(1, ((1, 2**31),)) != FreeWord(1, ((1, 2**31 - 1),))

    @given(reduced_syllables())
    def test_pickling_keeps_the_value_and_dtype(self, u):
        w = FreeWord(3, u)
        back = pickle.loads(pickle.dumps(w))
        assert back == w and hash(back) == hash(w)
        assert back.exps.dtype == w.exps.dtype and not back.exps.flags.writeable

    def test_arrays_are_read_only_and_int64_arrays_are_not_copied(self):
        gens, exps = np.array([1, 2, 1]), np.array([3, -1, 2])
        w = FreeWord.from_arrays(2, gens, exps)
        assert np.shares_memory(w.gens, gens) and np.shares_memory(w.exps, exps)
        assert gens.flags.writeable  # the caller's array is left as it was
        for a in (w.gens, w.exps, w.inverse().exps, (w * w).gens, FreeWord.identity(2).gens):
            with pytest.raises(ValueError, match="read-only"):
                a[:1] = 1
        with pytest.raises(AttributeError):
            w.rank = 3
        big = FreeWord(2, ((1, 10**20),))
        with pytest.raises(ValueError, match="read-only"):
            big.exps[0] = 1


# labels of several lengths, an inverse suffix and a non-ASCII one; none is
# "1" or holds a space, so every word prints and parses back
word_labels = st.sampled_from(["x1", "x1^-1", "s1", "c^-1", "t300", "é"])


@st.composite
def coded_words(draw):
    """A word coded from its letters, or the same letters as codes over a
    shuffled alphabet that also holds labels absent from the word; one
    time in three the letters are followed by their reversal."""
    letters = draw(st.lists(word_labels, max_size=30))
    if draw(st.integers(0, 2)) == 2:
        letters += letters[::-1]
    if draw(st.booleans()):
        return MonoidWord(letters)
    extra = draw(st.lists(word_labels, max_size=3))
    alphabet = tuple(draw(st.permutations(sorted(set(letters) | set(extra)))))
    index = {a: i for i, a in enumerate(alphabet)}
    return MonoidWord.from_codes(np.array([index[a] for a in letters], np.int64), alphabet)


# any text without whitespace other than "1" is a label that prints and
# parses back as one letter
random_labels = st.text(min_size=1, max_size=5).filter(lambda s: s.split() == [s] and s != "1")


def read_back(text: str) -> MonoidWord:
    """The word a printed text spells: "1" is empty, else the letters
    between the spaces."""
    return MonoidWord(() if text == "1" else text.split(" "))


class TestCodeArrayWord:
    @given(
        st.lists(random_labels, min_size=1, max_size=8, unique=True).flatmap(
            lambda alphabet: st.lists(st.sampled_from(alphabet), max_size=30)
        )
    )
    def test_print_parse_round_trip_over_random_alphabets(self, letters):
        w = MonoidWord(letters)
        assert read_back(format_monoid_word(w)) == w

    @given(coded_words())
    def test_print_parse_round_trip(self, w):
        assert read_back(format_monoid_word(w)) == w

    @given(coded_words())
    def test_palindrome_is_a_property_of_the_letters(self, w):
        assert is_word_palindrome(w) == (w.letters == w.letters[::-1])

    @given(coded_words(), coded_words())
    def test_equality_hash_and_product_follow_the_letters(self, u, v):
        assert (u == v) == (u.letters == v.letters)
        assert hash(u) == hash(MonoidWord(u.letters))
        assert (u * v).letters == u.letters + v.letters
        assert reversed_word(u).letters == u.letters[::-1]
        assert pickle.loads(pickle.dumps(u)) == u

    @given(coded_words())
    def test_codes_are_read_only_and_narrowest(self, w):
        assert not w.codes.flags.writeable
        assert w.codes.dtype == np.uint8
        assert all(w.alphabet[c] == a for c, a in zip(w.codes.tolist(), w.letters))

    def test_alphabets_beyond_one_byte(self):
        letters = [f"t{i}" for i in range(300)]
        w = MonoidWord(letters + letters[:5])
        assert w.codes.dtype == np.uint16 and w.letters[-5:] == tuple(letters[:5])
        assert MonoidWord(f"t{i}" for i in range(70_000)).codes.dtype == np.uint32

    def test_from_codes_does_not_copy_narrow_codes(self):
        codes = np.array([0, 1, 0], np.uint8)
        w = MonoidWord.from_codes(codes, ("a", "b"))
        assert np.shares_memory(w.codes, codes) and w.letters == ("a", "b", "a")
        with pytest.raises(ValueError):
            w.codes[0] = 1

    @pytest.mark.parametrize(
        "codes,alphabet",
        [
            ([0, 2], ("a", "b")),
            ([-1], ("a",)),
            ([0], ("a", "a")),
            ([0], (1,)),
            ([[0]], ("a",)),
            ([0.0], ("a",)),
            ([0], (["a"],)),
            (np.array([0, 0, 3], np.uint8), ("b", "c", "d")),
        ],
    )
    def test_from_codes_rejects_bad_input(self, codes, alphabet):
        # each alphabet is checked once and then cached: the codes are still
        # checked over one accepted just before, and an unhashable label is
        # a ValueError like any other bad label
        with contextlib.suppress(ValueError):
            MonoidWord.from_codes(np.zeros(0, np.uint8), alphabet)
        with pytest.raises(ValueError):
            MonoidWord.from_codes(np.array(codes), alphabet)

    def test_immutable_and_no_bare_string(self):
        w = MonoidWord(("a",))
        with pytest.raises(AttributeError):
            w.codes = np.zeros(1, np.uint8)
        with pytest.raises(TypeError):
            MonoidWord("ab")
        with pytest.raises(TypeError):
            MonoidWord(("a", 1))
