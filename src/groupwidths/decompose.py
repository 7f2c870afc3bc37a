"""Constructive palindrome decompositions in the rank-2 wreath product over S3.

Every element of the wreath product of F_2 by S3, written over the
generating letters {x, y, s1, s2, c} and their inverses, factors into at
most 20 letter palindromes (19 with this construction):

* per coordinate, an x-power and a y-power palindrome u z^a reverse(u),
  where u is a fixed two-sided conjugating word in the involutions s1, s2
  that moves the identity coordinate to the target one;
* per coordinate, a single palindrome w reverse(w) carrying the remaining
  zero-exponent-sum part, where w interleaves the blocks with the word
  r = c s1 s2 s1 s2.  r evaluates to the identity while its reversal does
  not, which makes the reversal of w evaluate to the identity: the letter
  blocks of reverse(w) pile up on two fixed coordinates where their
  exponent sums vanish.  This cancellation, and that w evaluates to the
  part, are re-verified by wreath arithmetic for every instance, and a
  failure is a fatal invariant breach naming the coordinate;
* at most one palindrome for the top component (every S3 element is a
  palindromic word in these letters).

Every factor is laid out once, as two arrays: token codes over the
context's alphabet, from precomputed code blocks, and their repeat counts.
A power factor is u, z, reverse(u) with counts 1..., |a|, 1...; a derived
factor is its half w, with counts 1..., |a_t|, 1..., |b_t| per syllable
pair, mirrored once its tokens are repeated; a top factor is its word with
every count 1.  The counts sum to the letters of a factor (of its half,
for a derived one), exactly, since an exponent past 2**31 makes them
Python ints, so an element asking for more than ``MAX_FACTOR_LETTERS``
letters is refused with ``CapExceeded`` before any word is built.  Each
word is then one ``np.repeat`` of the same arrays, with no Python step per
letter or per syllable pair.

Every factor is built first, the palindromes w reverse(w) unchecked,
and then an element costs one word scan, one ``evaluate_words`` call.
Only the derived factors are split at their midpoints: a factor
w reverse(w) splits into exactly w and reverse(w), so the values of its
halves are the construction checks of its coordinate, each evaluated on
its own.  Every other factor goes whole.  The value of all the words
joined end to end is the product of the factors, which the certificate's
flags compare with the target.  A certificate built by hand is checked
by the same scan, with every factor whole.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .finite_groups import CapExceeded, evaluate, sym3_fink
from .free_words import _SMALL_EXP, FreeWord, MonoidWord, _halves, format_monoid_word, is_word_palindrome
from .wreath import WreathElement, WreathGroup, evaluate_letters, evaluate_words

__all__ = [
    "InvariantViolation",
    "MAX_FACTORS",
    "MAX_FACTOR_LETTERS",
    "S3WreathContext",
    "s3_wreath_context",
    "DecompositionCertificate",
    "split_abelian_commutator",
    "derived_part_palindrome",
    "decompose",
]

MAX_FACTORS = 20

# the most letters the factors of one decomposition may hold; the count is
# the sum of the factors' repeat counts, known before any word is built
MAX_FACTOR_LETTERS = 10**7

R_LETTERS = ("c", "s1", "s2", "s1", "s2")

# conjugating words over the involutions s1, s2, one per S3 element;
# the reversal of each word evaluates to the inverse of its value
_CONJUGATOR_WORDS = ((), ("s1",), ("s2",), ("s1", "s2"), ("s2", "s1"), ("s1", "s2", "s1"))


class InvariantViolation(AssertionError):
    """A construction identity that must hold for every instance failed;
    the witness is carried in the message."""


@dataclass(eq=False)
class S3WreathContext:
    """The wreath group of F_2 by S3 with its letter evaluation maps, and
    the construction's fixed words as code blocks over one alphabet."""

    group: WreathGroup
    base_letters: dict[str, tuple[int, int]]
    top_letters: dict[str, int]
    alphabet: tuple[str, ...]  # every factor is a code array over it
    r: np.ndarray  # R_LETTERS
    r_inv: np.ndarray  # the formal inverse of R_LETTERS
    conjugators: dict[int, np.ndarray]  # S3 element id -> word over {s1, s2}
    top_words: dict[int, np.ndarray]  # S3 element id -> palindromic letter word

    def code(self, letter: str) -> int:
        return self.alphabet.index(letter)

    def word(self, codes: np.ndarray) -> MonoidWord:
        return MonoidWord.from_codes(codes, self.alphabet)

    def eval_word(self, w: MonoidWord) -> WreathElement:
        return evaluate_letters(self.group, w, self.base_letters, self.top_letters)


@lru_cache(maxsize=1)
def s3_wreath_context() -> S3WreathContext:
    """The F_2-by-S3 context, built and checked once per process."""
    K = sym3_fink()
    W = WreathGroup(2, K)
    base_letters = {"x": (1, 1), "x^-1": (1, -1), "y": (2, 1), "y^-1": (2, -1)}
    top_letters = dict(K.labels)
    alphabet = tuple(base_letters) + tuple(a for a in top_letters if a not in base_letters)
    index = {a: i for i, a in enumerate(alphabet)}

    def coded(letters: tuple[str, ...]) -> np.ndarray:
        # the alphabet has 8 labels, so its codes are uint8 like every block
        codes = np.array([index[a] for a in letters], np.uint8)
        codes.flags.writeable = False
        return codes

    conjugators: dict[int, tuple[str, ...]] = {}
    for word in _CONJUGATOR_WORDS:
        g = evaluate(K, MonoidWord(word))
        if g in conjugators:
            raise InvariantViolation(f"conjugator words collide at element {g}")
        if evaluate(K, MonoidWord(word[::-1])) != K.inverse[g]:
            raise InvariantViolation(f"reversed conjugator {word} is not the inverse")
        conjugators[g] = word

    # one palindromic word per top element (single letters where possible)
    label_of = {g: label for label, g in reversed(K.gens)}
    top_words = {
        g: ((label_of[g],) if g in label_of else conjugators[g])
        for g in K.elements()
        if g != K.identity
    }
    for word in top_words.values():
        if word != word[::-1]:
            raise InvariantViolation(f"top word {word} is not a palindrome")

    # the two facts driving the reversal cancellation
    if evaluate(K, MonoidWord(R_LETTERS)) != K.identity:
        raise InvariantViolation("r does not evaluate to the identity")
    if evaluate(K, MonoidWord(R_LETTERS[::-1])) == K.identity:
        raise InvariantViolation("reversed r evaluates to the identity")

    return S3WreathContext(
        W,
        base_letters,
        top_letters,
        alphabet,
        coded(R_LETTERS),
        coded(tuple(label_of[K.inverse[top_letters[a]]] for a in reversed(R_LETTERS))),
        {g: coded(word) for g, word in conjugators.items()},
        {g: coded(word) for g, word in top_words.items()},
    )


def _require_s3_wreath(g: WreathElement, ctx: S3WreathContext) -> None:
    # an element built by hand, not parsed, is checked here
    W = ctx.group
    if g.group is not W:
        raise ValueError("element does not belong to the F_2-by-S3 wreath group")
    if len(g.base) != W.size:
        raise ValueError(f"the base holds {len(g.base)} words, not {W.size}")
    for c, f in enumerate(g.base):
        if f.rank != W.rank:
            raise ValueError(f"the word at coordinate {c} has rank {f.rank}, not {W.rank}")
    W._top_id(g.top, "top element")


def split_abelian_commutator(
    g: WreathElement, ctx: S3WreathContext | None = None
) -> tuple[list[tuple[int, int]], tuple[FreeWord, ...], int]:
    """Per coordinate, write the word as x^a y^b times a zero-exponent-sum
    remainder; returns (exponent rows, remainders, top)."""
    ctx = ctx or s3_wreath_context()
    _require_s3_wreath(g, ctx)
    exponents: list[tuple[int, int]] = []
    parts: list[FreeWord] = []
    for c, f in enumerate(g.base):
        a, b = f.exponent_sum(1), f.exponent_sum(2)
        prefix_syllables = tuple(s for s in ((1, a), (2, b)) if s[1] != 0)
        prefix = FreeWord(2, prefix_syllables)
        rest = prefix.inverse() * f
        if rest.exponent_sum(1) != 0 or rest.exponent_sum(2) != 0:
            raise InvariantViolation(f"remainder at coordinate {c} has nonzero exponent sums")
        if prefix * rest != f:
            raise InvariantViolation(
                f"x^a y^b times the remainder is not the word at coordinate {c}"
            )
        exponents.append((a, b))
        parts.append(rest)
    return exponents, tuple(parts), g.top


def _power_layout(c: int, letter: str, exponent: int, ctx: S3WreathContext) -> tuple:
    # u z^|a| reverse(u), z the letter or its inverse by the sign of a
    u = ctx.conjugators[c]
    z = ctx.code(letter if exponent > 0 else letter + "^-1")
    # an exponent past 2**31 counts in Python ints, so the letter sum is exact
    count = np.array([abs(exponent)], np.int64 if abs(exponent) < _SMALL_EXP else object)
    return _sandwich(u, np.array([z], np.uint8), count)


def _derived_layout(c: int, part: FreeWord, ctx: S3WreathContext) -> tuple:
    # the half w of the palindrome w reverse(w) carrying a nontrivial part:
    # the syllables of a reduced rank-2 word alternate between x and y, so
    # they fill rows (a_t, b_t) of the word x^a1 y^b1 x^a2 ... after `lead`
    # zero x-powers (one when it starts with y), and per row w holds the
    # tokens r, x^+-1, r^-1, y^+-1, repeated 1..., |a_t|, 1..., |b_t| times
    lead = int(part.gens[0] == 2)
    exps = np.zeros(2 * ((lead + len(part) + 1) // 2), part.exps.dtype)
    exps[lead : lead + len(part)] = part.exps
    a, b = exps[0::2], exps[1::2]
    nr, ni = len(ctx.r), len(ctx.r_inv)
    tokens = np.empty((len(a), nr + ni + 2), np.uint8)
    tokens[:, :nr] = ctx.r
    tokens[:, nr] = np.where(a < 0, ctx.code("x^-1"), ctx.code("x"))
    tokens[:, nr + 1 : nr + 1 + ni] = ctx.r_inv
    tokens[:, -1] = np.where(b < 0, ctx.code("y^-1"), ctx.code("y"))
    counts = np.ones(tokens.shape, exps.dtype)
    counts[:, nr], counts[:, -1] = np.abs(a), np.abs(b)
    return _sandwich(ctx.conjugators[c], tokens.ravel(), counts.ravel())


def _sandwich(u: np.ndarray, tokens: np.ndarray, counts: np.ndarray) -> tuple:
    # u tokens reverse(u), each letter of u once
    ones = np.ones(len(u), counts.dtype)
    return np.concatenate((u, tokens, u[::-1])), np.concatenate((ones, counts, ones))


def _factor(ctx: S3WreathContext, tokens: np.ndarray, counts: np.ndarray, mirrored: bool) -> MonoidWord:
    # the tokens repeated by their counts, then their reversal if mirrored
    w = np.repeat(tokens, counts)
    return ctx.word(np.concatenate((w, w[::-1])) if mirrored else w)


def derived_part_palindrome(
    coord: int, part: FreeWord, ctx: S3WreathContext | None = None
) -> MonoidWord | None:
    """One palindrome w reverse(w) carrying a zero-exponent-sum word at the
    coordinate of S3 element ``coord``; None when the word is trivial.

    The reversal of w must evaluate to the wreath identity, and w to the
    word at the coordinate; the first identity is the construction's
    load-bearing cancellation.  Both are re-checked for every instance,
    here for one, by the scan ``decompose`` runs over every factor.
    """
    ctx = ctx or s3_wreath_context()
    ctx.group._top_id(coord, "coordinate")
    if part.rank != 2:
        raise ValueError("derived parts live in the rank-2 free group")
    if part.is_identity():
        return None
    if part.exponent_sum(1) != 0 or part.exponent_sum(2) != 0:
        raise ValueError("derived part must have zero exponent sums")
    palindrome = _factor(ctx, *_derived_layout(coord, part, ctx), True)
    target = ctx.group.from_base_word(part, coord)
    _verify(DecompositionCertificate(target, [palindrome], 1), ctx, [(0, coord, part)])
    return palindrome


@dataclass
class DecompositionCertificate:
    """Palindromic factors whose product provably equals the target;
    ``flags`` are those ``decompose`` computed in the scan that also ran
    its construction checks, the scan ``verification`` reruns (None on a
    certificate built by hand)."""

    target: WreathElement
    factors: list[MonoidWord]
    factor_count: int
    flags: dict[str, bool] | None = None

    def verification(self, ctx: S3WreathContext | None = None) -> dict[str, bool]:
        """Recompute every certificate invariant from scratch.

        The product is one evaluation of the factors joined end to end.
        Evaluating a letter word into the wreath group is a monoid
        homomorphism, so the value of the factors joined in order is the
        product, in order, of their values, also when ``decompose`` splits
        its derived factors at their midpoints.  One word scan thus
        replaces an evaluation per factor and a fold of products.
        """
        return _verify(self, ctx or s3_wreath_context())


def _verify(
    cert: DecompositionCertificate, ctx: S3WreathContext, derived: Sequence[tuple] = ()
) -> dict[str, bool]:
    # the certificate's flags, from one evaluate_words call over its factors;
    # first the construction checks of the derived factors, given as (factor
    # index, coordinate, part) in index order: each is split at its midpoint
    # into w and reverse(w), whose values are read, and every other factor
    # goes whole, so the k-th derived factor's w is word i + k
    words = list(cert.factors)
    for i, _, _ in reversed(derived):
        words[i : i + 1] = _halves(words[i])
    values, product = evaluate_words(ctx.group, words, ctx.base_letters, ctx.top_letters)
    for k, (i, c, part) in enumerate(derived):
        if not values[i + k + 1].is_identity():
            raise InvariantViolation(
                f"reversal of the derived-part word at coordinate {c} did not evaluate "
                f"to the identity; witness word: {format_monoid_word(words[i + k])}"
            )
        if values[i + k] != ctx.group.from_base_word(part, c):
            raise InvariantViolation(f"derived-part word evaluates off target at coordinate {c}")
    return {
        "factors_palindromic": all(is_word_palindrome(f) for f in cert.factors),
        "product_equals_target": product == cert.target,
        "count_within_bound": cert.factor_count <= MAX_FACTORS,
        "count_consistent": cert.factor_count == len(cert.factors),
    }


def _factors(g: WreathElement, ctx: S3WreathContext) -> tuple[list[MonoidWord], list[tuple]]:
    # the factors of g, and the checks of the derived ones as (factor index,
    # coordinate, part); the layouts, 9 bytes per token, are dropped on
    # return, before the scan.  A layout is (token codes, repeat counts,
    # derived), derived the (coordinate, part) of a derived factor, whose
    # layout is its half w
    exponents, parts, top = split_abelian_commutator(g, ctx)
    layouts = [(*_power_layout(c, "x", a, ctx), None) for c, (a, _) in enumerate(exponents) if a]
    layouts += [(*_power_layout(c, "y", b, ctx), None) for c, (_, b) in enumerate(exponents) if b]
    layouts += [
        (*_derived_layout(c, part, ctx), (c, part)) for c, part in enumerate(parts) if len(part)
    ]
    if top != ctx.group.top.identity:
        layouts.append((ctx.top_words[top], np.ones(len(ctx.top_words[top]), np.int64), None))
    letters = sum((2 if derived else 1) * int(counts.sum()) for _, counts, derived in layouts)
    if letters > MAX_FACTOR_LETTERS:
        raise CapExceeded(
            f"the decomposition would hold {letters:,} factor letters, "
            f"over the cap of {MAX_FACTOR_LETTERS:,}"
        )
    factors = [_factor(ctx, tokens, counts, bool(derived)) for tokens, counts, derived in layouts]
    return factors, [(i, *derived) for i, (_, _, derived) in enumerate(layouts) if derived]


def decompose(g: WreathElement, ctx: S3WreathContext | None = None) -> DecompositionCertificate:
    """Factor g into at most 20 letter palindromes (this construction
    emits at most 19) and verify the certificate before returning it."""
    ctx = ctx or s3_wreath_context()
    factors, checks = _factors(g, ctx)
    cert = DecompositionCertificate(g, factors, len(factors))
    cert.flags = _verify(cert, ctx, checks)
    failed = [k for k, v in cert.flags.items() if not v]
    if failed:
        raise InvariantViolation(f"certificate verification failed: {failed}")
    return cert
