"""Palindromic decomposition certificates over F2 wr S3."""

import contextlib
import dataclasses
import hashlib
import importlib
import io
import json
import random
import re
import subprocess
import sys
import time

import numpy as np
import pytest

from groupwidths import cli
from groupwidths.decompose import (
    MAX_FACTOR_LETTERS,
    DecompositionCertificate,
    InvariantViolation,
    decompose,
    derived_part_palindrome,
    s3_wreath_context,
    split_abelian_commutator,
)
from groupwidths.finite_groups import CapExceeded
from groupwidths.free_words import (
    FreeWord,
    MonoidWord,
    format_monoid_word,
    free_commutator,
    is_word_palindrome,
    parse_free_word,
)
from groupwidths.wreath import (
    WreathElement,
    evaluate_letters,
    evaluate_words,
    parse_wreath_element,
    w_multiply,
)

from conftest import free_generator, random_reduced_word, random_wreath_element

# the package rebinds the name ``decompose`` to the function
decompose_module = importlib.import_module("groupwidths.decompose")
wreath_module = importlib.import_module("groupwidths.wreath")


@pytest.fixture(scope="module")
def ctx():
    return s3_wreath_context()


def commutator_target(ctx):
    xy = free_commutator(free_generator(2, 1), free_generator(2, 2))
    return ctx.group.from_base_word(xy)


class TestContext:
    def test_conjugators_cover_s3(self, ctx):
        K = ctx.group.top
        assert set(ctx.conjugators) == set(K.elements())
        from groupwidths.finite_groups import evaluate

        for g, codes in ctx.conjugators.items():
            word = tuple(ctx.alphabet[c] for c in codes)
            assert evaluate(K, MonoidWord(word)) == g
            assert evaluate(K, MonoidWord(word[::-1])) == K.inverse[g]

    def test_conjugator_sandwich_is_palindrome(self, ctx):
        for codes in ctx.conjugators.values():
            word = tuple(ctx.alphabet[c] for c in codes)
            for mid in (("x", "x"), ("y^-1",), ()):
                assert is_word_palindrome(MonoidWord(word + mid + word[::-1]))


class TestSplit:
    def test_identity(self, ctx):
        exps, parts, top = split_abelian_commutator(ctx.group.identity(), ctx)
        assert exps == [(0, 0)] * 6
        assert all(p.is_identity() for p in parts)
        assert top == ctx.group.top.identity

    def test_exponents_are_abelianization(self, ctx):
        g = ctx.group.from_base_word(parse_free_word("x1 x2 x1^-1", rank=2))
        exps, parts, _ = split_abelian_commutator(g, ctx)
        assert exps[0] == (0, 1)
        assert parts[0] == parse_free_word("x2^-1 x1 x2 x1^-1", rank=2)

    def test_commutator_coordinate(self, ctx):
        exps, parts, _ = split_abelian_commutator(commutator_target(ctx), ctx)
        assert exps[0] == (0, 0)
        assert parts[0] == parse_free_word("[x,y]", rank=2)

    def test_reconstruction_random(self, ctx):
        # each remainder is prefix^-1 f, computed by FreeWord arithmetic
        rng = random.Random(13)
        for _ in range(100):
            g = random_wreath_element(rng, ctx.group, 10)
            exps, parts, top = split_abelian_commutator(g, ctx)
            for (a, b), part, f in zip(exps, parts, g.base):
                prefix = FreeWord(2, tuple(s for s in ((1, a), (2, b)) if s[1]))
                expected = prefix.inverse() * f
                assert part == expected and part.exps.dtype == expected.exps.dtype
                assert prefix * part == f
                assert part.exponent_sum(1) == 0 and part.exponent_sum(2) == 0

    BIG = [2**31 - 1, 2**31, 2**63 - 1, 2**63, 10**20]

    @pytest.mark.parametrize(
        "text",
        [
            "1",  # an empty coordinate
            "x1^3 x2^-2",  # x^a y^b exactly: the remainder is the identity
            "x1^-1",
            "x2^5",
            "x2 x1 x2^-1",  # starts with y
            "x2^-2 x1^3 x2 x1^-3 x2",
            "x1 x2 x1^-1 x2^-1",  # a commutator: a = b = 0, the remainder is f
            "x1 x2 x1^-2",  # the head's x^-a merges with f's first syllable
            *(f"x1^{e} x2^{-e} x1" for e in BIG),
            *(f"x2^{e} x1 x2^{e}" for e in BIG),
            *(f"x1^{e} x2^{e}" for e in BIG),
            *(f"x1^{e} x2 x1^{e} x2^-1" for e in BIG),
            # a sum within 2**31 of the int64 ends, which merges with the
            # remainder's first syllable into a value past int64
            f"x1^{2**63} x2 x1^-1 x2^-1",
            f"x2^{2**63} x1 x2^-1 x1^-1",
            f"x1^{2**63 + 2**30} x2 x1^{-(2**30 + 1)} x2^-1",
            f"x1^{-(2**63 + 1)} x2 x1 x2^-1",
        ],
    )
    def test_a_remainder_is_the_prefix_inverse_times_the_word(self, ctx, text):
        f = parse_free_word(text, rank=2)
        g = ctx.group.from_base_word(f, 4)
        exps, parts, _ = split_abelian_commutator(g, ctx)
        assert all(p.is_identity() for c, p in enumerate(parts) if c != 4)
        a, b = exps[4]
        assert (a, b) == (f.exponent_sum(1), f.exponent_sum(2))
        assert type(a) is int and type(b) is int
        prefix = FreeWord(2, tuple(s for s in ((1, a), (2, b)) if s[1]))
        expected = prefix.inverse() * f
        assert parts[4] == expected and parts[4].exps.dtype == expected.exps.dtype
        assert prefix * parts[4] == f
        if f == prefix:
            assert parts[4].is_identity()

    # the split's seam broken two ways: the head dropped (the remainder keeps
    # the exponent sums), or the remainder's head y^-b x^-a joined as
    # x^-a y^-b (its sums vanish, and x^a y^b times it is off)
    BROKEN_SEAMS = {
        "has nonzero exponent sums": "lambda lg, le, rg, re_: (rg, re_)",
        "is not the word at coordinate": (
            "lambda lg, le, rg, re_: seam(*((lg[::-1], le[::-1]) if (le < 0).all() else (lg, le)), rg, re_)"
        ),
    }

    @pytest.mark.parametrize("fault", sorted(BROKEN_SEAMS))
    def test_a_broken_identity_names_its_coordinate(self, ctx, monkeypatch, capsys, fault):
        text = "[1; 1; 1; x1 x2; 1; 1] 1"
        g = parse_wreath_element(ctx.group, text)
        (k,) = [c for c, f in enumerate(g.base) if len(f)]
        broken = eval(self.BROKEN_SEAMS[fault], {"seam": decompose_module._seam})
        monkeypatch.setattr(decompose_module, "_seam", broken)
        with pytest.raises(InvariantViolation, match=rf"coordinate {k}\b") as caught:
            split_abelian_commutator(g, ctx)
        assert fault in str(caught.value)
        assert cli.main(["decompose", text]) == cli.EXIT_INVARIANT
        assert f"invariant breach: {caught.value}" in capsys.readouterr().err

    def test_a_sum_near_the_int64_end_reaches_the_cap_through_the_cli(self, capsys):
        # x^a y^b with a = 2**63 - 1 times a remainder starting with x: the
        # split holds, and the factor letters are over the cap
        text = f"[x1^{2**63} x2 x1^-1 x2^-1; 1; 1; 1; 1; 1] 1"
        assert cli.main(["decompose", text]) == cli.EXIT_CAP
        assert "factor letters, over the cap of" in capsys.readouterr().err

    def test_the_checks_hold_under_python_O(self):
        # bare asserts would vanish under -O; the checks must not
        for fault, broken in self.BROKEN_SEAMS.items():
            script = (
                "from groupwidths import cli\n"
                "assert False, 'unreachable under -O'\n"
                "seam = cli.decomposition._seam\n"
                f"cli.decomposition._seam = {broken}\n"
                "raise SystemExit(cli.main(['decompose', '[x1 x2; 1; 1; 1; 1; 1] 1']))\n"
            )
            proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True)
            assert proc.returncode == cli.EXIT_INVARIANT, proc.stderr
            assert re.search(r"invariant breach: .*coordinate 0\b", proc.stderr), proc.stderr
            assert fault in proc.stderr


def power_factor(ctx, coord, letter, exponent):
    """The one factor ``decompose`` emits for letter^exponent at the
    coordinate of S3 element ``coord``."""
    g = ctx.group.from_base_word(free_generator(2, {"x": 1, "y": 2}[letter], exponent), coord)
    (w,) = decompose(g, ctx).factors
    return w


class TestCoordinatePalindromes:
    def test_identity_coordinate(self, ctx):
        w = power_factor(ctx, 0, "x", 3)
        assert format_monoid_word(w) == "x x x"

    def test_s1_coordinate(self, ctx):
        i = ctx.group.top.labels["s1"]
        assert format_monoid_word(power_factor(ctx, i, "x", 2)) == "s1 x x s1"

    def test_c_coordinate(self, ctx):
        i = ctx.group.top.labels["c"]
        w = power_factor(ctx, i, "y", -1)
        assert format_monoid_word(w) == "s1 s2 y^-1 s2 s1"

    def test_places_power_at_coordinate(self, ctx):
        for coord in range(6):
            for letter, gen in (("x", 1), ("y", 2)):
                for e in (-2, 1, 3):
                    w = power_factor(ctx, coord, letter, e)
                    assert is_word_palindrome(w)
                    expected = ctx.group.from_base_word(free_generator(2, gen, e), coord)
                    assert ctx.eval_word(w) == expected

    def test_distinct_coordinates_commute(self, ctx):
        a = ctx.eval_word(power_factor(ctx, 1, "x", 2))
        b = ctx.eval_word(power_factor(ctx, 4, "y", -3))
        assert w_multiply(a, b) == w_multiply(b, a)

    def test_a_zero_exponent_sum_has_no_power_factor(self, ctx):
        # x y x^-1 at coordinate 3: a y-power and a derived part, no x-power
        g = ctx.group.from_base_word(parse_free_word("x y x^-1", rank=2), 3)
        w, derived = decompose(g, ctx).factors
        assert w == power_factor(ctx, 3, "y", 1)
        assert derived == derived_part_palindrome(3, parse_free_word("y^-1 x y x^-1", rank=2), ctx)


class TestDerivedPart:
    def test_commutator_word_matches_construction(self, ctx):
        w = derived_part_palindrome(0, parse_free_word("[x,y]", rank=2), ctx)
        half = (
            "c s1 s2 s1 s2 x^-1 s2 s1 s2 s1 c^-1 y^-1 "
            "c s1 s2 s1 s2 x s2 s1 s2 s1 c^-1 y"
        )
        assert format_monoid_word(w).startswith(half)
        assert is_word_palindrome(w)
        assert ctx.eval_word(w) == commutator_target(ctx)

    def test_trivial_part_no_factor(self, ctx):
        assert derived_part_palindrome(0, FreeWord.identity(2), ctx) is None
        assert derived_part_palindrome(4, FreeWord.identity(2)) is None

    def test_arbitrary_derived_words(self, ctx):
        # one palindrome per nontrivial part, each checked by its own scan
        rng = random.Random(17)
        parts = []
        for _ in range(60):
            coord = rng.randrange(6)
            w = random_reduced_word(rng, 2, 10)
            prefix = FreeWord(2, tuple(s for s in ((1, w.exponent_sum(1)), (2, w.exponent_sum(2))) if s[1]))
            parts.append((coord, prefix.inverse() * w))  # zero exponent sums by construction
        nontrivial = [(coord, part) for coord, part in parts if not part.is_identity()]
        assert len(nontrivial) == 34
        for coord, part in nontrivial:
            factor = derived_part_palindrome(coord, part, ctx)
            assert is_word_palindrome(factor)
            assert ctx.eval_word(factor) == ctx.group.from_base_word(part, coord)

    def test_nonzero_exponent_sum_rejected(self, ctx):
        with pytest.raises(ValueError, match="zero exponent sums"):
            derived_part_palindrome(0, free_generator(2, 1), ctx)

    def test_a_part_of_another_rank_is_rejected(self, ctx):
        with pytest.raises(ValueError, match="rank-2"):
            derived_part_palindrome(0, free_commutator(free_generator(3, 1), free_generator(3, 3)), ctx)

    def test_the_one_part_form_is_the_factor_decompose_emits(self, ctx):
        # derived_part_palindrome stays while the benchmark traces it by name
        part = parse_free_word("[x,y] [y^-1,x]", rank=2)
        g = ctx.group.from_base_word(part, 4)
        assert decompose(g, ctx).factors == [derived_part_palindrome(4, part, ctx)]


class TestTopPalindromes:
    def test_identity_empty(self, ctx):
        assert decompose(ctx.group.identity(), ctx).factors == []

    def test_single_palindrome_each(self, ctx):
        from groupwidths.finite_groups import evaluate

        K = ctx.group.top
        for s in K.elements():
            words = decompose(ctx.group.from_top(s), ctx).factors
            assert len(words) <= 1
            if s != K.identity:
                (w,) = words
                assert is_word_palindrome(w)
                assert evaluate(K, w) == s

    def test_c_is_one_letter(self, ctx):
        K = ctx.group.top
        (c,) = decompose(ctx.group.from_top(K.labels["c"]), ctx).factors
        assert format_monoid_word(c) == "c"
        long_top = K.table[K.table[K.labels["s1"]][K.labels["s2"]]][K.labels["s1"]]
        (w,) = decompose(ctx.group.from_top(long_top), ctx).factors
        assert format_monoid_word(w) == "s1 s2 s1"


class TestDecompose:
    def test_identity(self, ctx):
        assert decompose(ctx.group.identity(), ctx).factor_count == 0

    def test_commutator_single_palindrome(self, ctx):
        cert = decompose(commutator_target(ctx), ctx)
        assert cert.factor_count == 1
        assert all(cert.verification(ctx).values())

    def test_random_certificates(self, ctx):
        rng = random.Random(19)
        worst = 0
        for _ in range(150):
            g = random_wreath_element(rng, ctx.group, 12)
            cert = decompose(g, ctx)
            flags = cert.verification(ctx)
            assert all(flags.values()), flags
            worst = max(worst, cert.factor_count)
        assert worst <= 19

    def test_trivial_top_at_most_18(self, ctx):
        rng = random.Random(23)
        for _ in range(60):
            g = random_wreath_element(rng, ctx.group, 12)
            g = WreathElement(ctx.group, g.base, ctx.group.top.identity)
            assert decompose(g, ctx).factor_count <= 18

    def test_tampered_certificate_fails_verification(self, ctx):
        cert = decompose(commutator_target(ctx), ctx)
        cert.factors.append(MonoidWord(("x",)))
        cert.factor_count += 1
        flags = cert.verification(ctx)
        assert not flags["product_equals_target"]

    def test_invariant_violation_is_loud(self, ctx):
        with pytest.raises(InvariantViolation):
            # bypass decompose() and hand verification a broken certificate
            cert = decompose(commutator_target(ctx), ctx)
            bad = DecompositionCertificate(cert.target, [MonoidWord(("x", "y"))], 1)
            flags = bad.verification(ctx)
            if not all(flags.values()):
                raise InvariantViolation(str(flags))


@pytest.mark.parametrize("k", [6, -1])
def test_ids_out_of_range_are_named(ctx, k):
    part = free_commutator(free_generator(2, 1), free_generator(2, 2))
    for derived in (part, FreeWord.identity(2)):
        with pytest.raises(ValueError, match=rf"^coordinate {k} is out of range 0\.\.5$"):
            derived_part_palindrome(k, derived, ctx)
    with pytest.raises(ValueError, match=rf"^top element {k} is out of range 0\.\.5$"):
        decompose(WreathElement(ctx.group, ctx.group.identity().base, k), ctx)


class TestMalformedElement:
    """An element built by hand, not parsed, is refused with a
    ``ValueError`` naming its fault when it is built, so ``decompose``
    never sees it."""

    def test_a_short_base(self, ctx):
        g = dense_target(ctx)
        with pytest.raises(ValueError, match=r"^the base holds 5 words, not 6$"):
            decompose(WreathElement(ctx.group, g.base[:5], 1), ctx)

    def test_a_word_of_another_rank(self, ctx):
        base = list(dense_target(ctx).base)
        base[2] = free_generator(3, 3)
        with pytest.raises(ValueError, match=r"^the word at coordinate 2 has rank 3, not 2$"):
            decompose(WreathElement(ctx.group, tuple(base), 1), ctx)

    @pytest.mark.parametrize("top", [9, 6])
    def test_a_top_out_of_range(self, ctx, top):
        with pytest.raises(ValueError, match=rf"^top element {top} is out of range 0\.\.5$"):
            decompose(WreathElement(ctx.group, dense_target(ctx).base, top), ctx)


def dense_target(ctx):
    """x^2 y^-3 [x, y] at every coordinate and top s1: six x-powers, six
    y-powers, six derived parts and a top palindrome, 19 factors."""
    word = parse_free_word("x1^2 x2^-3 [x1,x2]", rank=2)
    return WreathElement(ctx.group, (word,) * 6, ctx.group.top.labels["s1"])


def fold_of_factor_values(factors, ctx):
    product = ctx.group.identity()
    for f in factors:
        product = w_multiply(product, ctx.eval_word(f))
    return product


class TestOneEvaluation:
    """``decompose`` and ``verification`` evaluate the factors in one
    scan: ``decompose`` splits its derived factors at their midpoints, and
    its construction checks read their halves, while every other factor
    goes whole; the flags read the product of all the words."""

    @pytest.fixture
    def evaluations(self, monkeypatch):
        # one entry per scan: a value, or the list of values of a word list
        values = []

        def spy(evaluate):
            def scan(*args):
                values.append(evaluate(*args))
                return values[-1]

            return scan

        monkeypatch.setattr(decompose_module, "evaluate_letters", spy(evaluate_letters))
        monkeypatch.setattr(decompose_module, "evaluate_words", spy(evaluate_words))
        return values

    def test_the_product_is_the_fold_of_the_factor_values(self, ctx, evaluations):
        rng = random.Random(31)
        targets = [parse_wreath_element(ctx.group, text) for text in sorted(GOLDEN_REPORTS)]
        targets += [random_wreath_element(rng, ctx.group, 12) for _ in range(100)]
        for g in targets:
            evaluations.clear()
            cert = decompose(g, ctx)
            derived = sum(1 for part in split_abelian_commutator(g, ctx)[1] if len(part))
            assert cert.verification(ctx) == cert.flags
            # decompose: 2 words per derived factor, 1 per other factor;
            # verification: 1 per factor
            (values, product), (whole, again) = evaluations
            assert len(values) == len(cert.factors) + derived
            assert len(whole) == len(cert.factors)
            assert product == again == fold_of_factor_values(cert.factors, ctx) == g

    def test_factors_over_other_alphabets(self, ctx):
        # relettered in order of first occurrence, or recoded over a shuffled
        # alphabet holding a label that never occurs, alternately
        rng = random.Random(37)
        for g in [dense_target(ctx)] + [random_wreath_element(rng, ctx.group, 12) for _ in range(20)]:
            factors = []
            for i, f in enumerate(decompose(g, ctx).factors):
                if i % 2:
                    alphabet = list(f.alphabet) + ["q"]
                    rng.shuffle(alphabet)
                    recode = np.array([alphabet.index(a) for a in f.alphabet])
                    factors.append(MonoidWord.from_codes(recode[f.codes], tuple(alphabet)))
                else:
                    factors.append(MonoidWord(f.letters))
            assert any(f.alphabet != ctx.alphabet for f in factors) or not factors
            cert = DecompositionCertificate(g, factors, len(factors))
            assert all(cert.verification(ctx).values())

    def test_an_unknown_letter_is_a_value_error(self, ctx):
        factors = decompose(dense_target(ctx), ctx).factors
        factors.insert(3, MonoidWord(("x", "q", "x")))
        cert = DecompositionCertificate(dense_target(ctx), factors, len(factors))
        with pytest.raises(ValueError, match="letter 'q' is neither a base nor a top generator"):
            cert.verification(ctx)

    def test_dropping_any_factor_breaks_the_product(self, ctx):
        g = dense_target(ctx)
        factors = decompose(g, ctx).factors
        assert len(factors) == 19
        for i in range(19):
            flags = DecompositionCertificate(g, factors[:i] + factors[i + 1 :], 18).verification(ctx)
            assert not flags["product_equals_target"]
            assert flags["factors_palindromic"] and flags["count_consistent"]

    def test_a_dense_element_costs_1_evaluation_and_no_fold(self, ctx, evaluations, monkeypatch):
        # one scan of 25 words: the 12 power factors whole, the halves of
        # the six derived factors, 13th to 18th, which are the construction
        # checks, and the top factor whole; the value of all joined is the
        # product
        def no_fold(*args):
            raise AssertionError("w_multiply called")

        monkeypatch.setattr(wreath_module, "w_multiply", no_fold)
        assert not hasattr(decompose_module, "w_multiply")
        cert = decompose(dense_target(ctx), ctx)
        assert all(cert.flags.values()) and len(evaluations) == 1
        ((values, product),) = evaluations
        assert len(values) == 25 and product == dense_target(ctx)
        checks = values[12:24]
        assert all(reversal.is_identity() for reversal in checks[1::2])
        parts = split_abelian_commutator(dense_target(ctx), ctx)[1]
        assert checks[0::2] == [ctx.group.from_base_word(part, c) for c, part in enumerate(parts)]

    @pytest.mark.parametrize("k", range(6))
    def test_one_scan_checks_each_coordinate_on_its_own(self, ctx, k):
        # coordinate k's conjugator is the next coordinate's, so its word
        # lands one coordinate off while every other coordinate's is right
        conjugators = dict(ctx.conjugators)
        conjugators[k] = ctx.conjugators[(k + 1) % 6]
        bad = dataclasses.replace(ctx, conjugators=conjugators)
        with pytest.raises(InvariantViolation, match=rf"off target at coordinate {k}$"):
            decompose(dense_target(ctx), bad)

    @pytest.mark.parametrize("k", range(6))
    def test_a_reversal_that_does_not_cancel_names_its_coordinate(self, ctx, k):
        # a wrong r^-1 breaks the cancellation; only coordinate k holds a part
        bad = dataclasses.replace(ctx, r_inv=ctx.r[::-1].copy())
        base = [FreeWord.identity(2)] * 6
        base[k] = free_commutator(free_generator(2, 1), free_generator(2, 2))
        g = WreathElement(ctx.group, tuple(base), ctx.group.top.identity)
        assert decompose(g, ctx).factor_count == 1
        with pytest.raises(InvariantViolation, match=rf"word at coordinate {k} did not evaluate"):
            decompose(g, bad)


class TestLetterCap:
    def test_letter_count_is_exact(self, ctx, monkeypatch):
        # a cap of the factors' total passes, one letter less is refused
        rng = random.Random(29)
        for _ in range(100):
            g = random_wreath_element(rng, ctx.group, 14)
            total = sum(map(len, decompose(g, ctx).factors))
            monkeypatch.setattr(decompose_module, "MAX_FACTOR_LETTERS", total)
            assert sum(map(len, decompose(g, ctx).factors)) == total
            monkeypatch.setattr(decompose_module, "MAX_FACTOR_LETTERS", total - 1)
            with pytest.raises(CapExceeded, match=f" {total:,} factor letters, over the cap of {total - 1:,}$"):
                decompose(g, ctx)
            monkeypatch.undo()

    def test_cap_is_inclusive(self, ctx, monkeypatch):
        # x1^100 at the identity coordinate: one factor of 100 letters
        g = parse_wreath_element(ctx.group, "[x1^100; 1; 1; 1; 1; 1] 1")
        monkeypatch.setattr(decompose_module, "MAX_FACTOR_LETTERS", 100)
        assert sum(map(len, decompose(g, ctx).factors)) == 100
        monkeypatch.setattr(decompose_module, "MAX_FACTOR_LETTERS", 99)
        with pytest.raises(CapExceeded, match="100 factor letters, over the cap of 99"):
            decompose(g, ctx)

    def test_a_short_text_over_the_cap_exits_3_at_once(self, capsys):
        # 28 bytes asking for 10^8 letters: refused before any word is built
        start = time.perf_counter()
        assert cli.main(["decompose", "[x1^100000000; 1; 1; 1; 1; 1] 1"]) == cli.EXIT_CAP
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"100,000,000 factor letters, over the cap of {MAX_FACTOR_LETTERS:,}" in captured.err

    def test_derived_parts_count_towards_the_cap(self, ctx):
        # zero exponent sums, so every letter is in a derived-part palindrome
        g = parse_wreath_element(ctx.group, "[x1^3000000 x2 x1^-3000000 x2^-1; 1; 1; 1; 1; 1] 1")
        with pytest.raises(CapExceeded, match="12,000,044 factor letters"):
            decompose(g, ctx)

    def test_derived_part_exponents_past_int64_are_capped(self, ctx):
        big = 10**20
        text = f"[x1^{big} x2 x1^-{big} x2^-1; 1; 1; 1; 1; 1] 1"
        g = parse_wreath_element(ctx.group, text)
        with pytest.raises(CapExceeded, match="400,000,000,000,000,000,044 factor letters"):
            decompose(g, ctx)


# decompose reports recorded before words became code arrays: sha256 of
# stdout with the wall_time_s value replaced by 0
GOLDEN_REPORTS = {
    "[1; 1; 1; 1; 1; 1] 1": "423989dab95115e318ed0fb7d2df4dc1f4f76c9bcdb26777efc7f6741d6cf787",
    "[[x,y]; 1; 1; 1; 1; 1] 1": "8f205f0dac98679c6c660dca6fecced8a27b53f01f4955bd46798fe73c7a6614",
    "[1; x1^7; 1; 1; 1; 1] 1": "2eb8797c01d8119e09a5e736db7ad9012ddc58580ebb0776d1a0dfe97bab7279",
    "[x y x^-1 y^-1 x1^3; x2 x1^-2 x2^2 x; 1; [x,y]; y; x1^-2 x2^5] s1": (
        "cb0b6ec72b8f3f31cd188e8e130de5db245156d759a76e51750af68acc6c3ab3"
    ),
    "[x2^-4 x1 x2^4 x1^-1; 1; [[x,y],x]; 1; x2 x1^-1; 1] c^-1": (
        "3ab18915389ea556d1574700f8210361483222d4aeabbb6d885e0cdfb0deab65"
    ),
    "[x1^5000 x2^-3000; 1; 1; x2^2 x1^-1 x2^-2 x1; 1; 1] s1*s2*s1": (
        "8e9323dd5a6ecacc4c4033cc9535253bf6f76377e8dc7a4257288036ec12de92"
    ),
    "[y x y^-1 x^-1; x^-1; y^-1; [x,y] [y,x^-1]; x1^2 x2^-1; x2^3 x1^-3] s1*s2": (
        "bbdbf0ee25372a93b2d3998cccebaa009a7547a94148034b46d2f05bd0a8a2cd"
    ),
    "[1; 1; 1; 1; 1; 1] c": "1352e00de340c21ada2aab4a3c1309a4887c876911fa5549832bd5eaa5803603",
}

# sha256 of the factor codes of 200 seeded random elements and the dense
# target, recorded before each factor became one token layout
FACTOR_DIGEST = "80d722134448ed14643d4ccefe69a1858b32018145cb3df8bb2aa0e01eda1d09"


def test_the_factors_match_the_recorded_codes(ctx):
    rng = random.Random(43)
    targets = [random_wreath_element(rng, ctx.group, 30) for _ in range(200)] + [dense_target(ctx)]
    digest = hashlib.sha256()
    for g in targets:
        factors = decompose(g, ctx).factors
        digest.update(len(factors).to_bytes(1, "little"))
        for f in factors:
            assert f.alphabet == ctx.alphabet and f.codes.dtype == np.uint8
            digest.update(len(f).to_bytes(8, "little") + f.codes.tobytes())
    assert digest.hexdigest() == FACTOR_DIGEST


class TestReport:
    TEXT = "[x1^2; x2^-1; 1; [x,y]; 1; x1] s1*s2"

    def run(self, capsys):
        code = cli.main(["decompose", self.TEXT])
        captured = capsys.readouterr()
        return code, json.loads(captured.out) if code == 0 else captured.err

    def test_flags_are_the_checks_decompose_ran(self, monkeypatch, capsys):
        # one scan per call: the report prints the flags of that scan
        scans, flags = [], []
        verify, evaluate = decompose_module._verify, decompose_module.evaluate_words

        def counted_verify(*args):
            flags.append(verify(*args))
            return flags[-1]

        def counted_evaluate(*args):
            scans.append(args)
            return evaluate(*args)

        monkeypatch.setattr(decompose_module, "_verify", counted_verify)
        monkeypatch.setattr(decompose_module, "evaluate_words", counted_evaluate)
        code, report = self.run(capsys)
        assert code == 0 and len(flags) == len(scans) == 1
        assert report["verification"] == flags[0]
        assert all(report["verification"].values()) and len(report["verification"]) == 4

    def test_reported_bound_is_the_checked_bound(self, monkeypatch, capsys):
        count = self.run(capsys)[1]["result"]["factor_count"]
        monkeypatch.setattr(decompose_module, "MAX_FACTORS", count)
        code, report = self.run(capsys)
        assert code == 0 and report["result"]["bound"] == count
        assert report["verification"]["count_within_bound"]
        monkeypatch.setattr(decompose_module, "MAX_FACTORS", count - 1)
        code, err = self.run(capsys)
        assert code == cli.EXIT_INVARIANT and "['count_within_bound']" in err

    def test_hand_built_certificate_has_no_flags(self, ctx):
        cert = DecompositionCertificate(ctx.group.identity(), [], 0)
        assert cert.flags is None and all(cert.verification(ctx).values())


def report_digest(stdout: str) -> str:
    body = re.sub(r'"wall_time_s": [0-9.e-]+', '"wall_time_s": 0', stdout)
    return hashlib.sha256(body.encode()).hexdigest()


@pytest.mark.parametrize("text", sorted(GOLDEN_REPORTS))
def test_report_matches_the_recorded_bytes(text):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["decompose", "--", text]) == 0
    assert report_digest(out.getvalue()) == GOLDEN_REPORTS[text]


def test_the_report_is_the_same_under_python_O():
    text = "[x y x^-1 y^-1 x1^3; x2 x1^-2 x2^2 x; 1; [x,y]; y; x1^-2 x2^5] s1"
    cmd = [sys.executable, "-O", "-m", "groupwidths.cli", "decompose", "--", text]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert report_digest(proc.stdout) == GOLDEN_REPORTS[text]
