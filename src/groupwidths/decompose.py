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

Every word is a code array over the context's alphabet: the fixed words
are precomputed code blocks, and a factor is a few concatenations and one
``np.repeat``, with no Python step per letter or per syllable pair.  The
factors' total letter count follows from the exponent rows and syllables,
so an element asking for more than ``MAX_FACTOR_LETTERS`` is refused with
``CapExceeded`` before any word is built.

Every factor is built first, the palindromes w reverse(w) unchecked,
and then an element costs one word scan: the factors, each split at its
midpoint, go to one ``evaluate_words`` call.  A factor w reverse(w)
splits into exactly w and reverse(w), so the values of its halves are
the construction checks of its coordinate, each evaluated on its own,
and the value of all halves joined end to end is the product of the
factors, which the certificate's flags compare with the target.  A
certificate built by hand is checked by the same scan.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .finite_groups import CapExceeded, evaluate, sym3_fink
from .free_words import FreeWord, MonoidWord, _halves, format_monoid_word, is_word_palindrome
from .wreath import WreathElement, WreathGroup, evaluate_letters, evaluate_words

__all__ = [
    "InvariantViolation",
    "MAX_FACTORS",
    "MAX_FACTOR_LETTERS",
    "S3WreathContext",
    "s3_wreath_context",
    "DecompositionCertificate",
    "split_abelian_commutator",
    "factor_letter_count",
    "coordinate_power_palindrome",
    "derived_part_palindrome",
    "top_palindromes",
    "decompose",
]

MAX_FACTORS = 20

# the most letters the factors of one decomposition may hold; the count is
# known from the exponent rows and syllables before any word is built
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
    if g.group is not ctx.group:
        raise ValueError("element does not belong to the F_2-by-S3 wreath group")


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


def factor_letter_count(
    exponents: list[tuple[int, int]],
    parts: tuple[FreeWord, ...],
    top: int,
    ctx: S3WreathContext | None = None,
) -> int:
    """Total letters of the factors ``decompose`` builds from the rows of
    ``split_abelian_commutator``, counted without building them."""
    ctx = ctx or s3_wreath_context()
    total = 0
    for c, ((a, b), part) in enumerate(zip(exponents, parts)):
        u = len(ctx.conjugators[c])
        total += sum(2 * u + abs(e) for e in (a, b) if e)
        if len(part):
            # exact: int64 exponents are below 2**31, larger ones Python ints,
            # so an exponent past int64 is counted, then capped
            pairs = _pair_layout(part)[1]
            powers = int(np.abs(part.exps).sum())
            total += 2 * (2 * u + pairs * (len(ctx.r) + len(ctx.r_inv)) + powers)
    if top != ctx.group.top.identity:
        total += len(ctx.top_words[top])
    return total


def _power(ctx: S3WreathContext, letter: str, exponent: int) -> np.ndarray:
    code = ctx.code(letter if exponent > 0 else letter + "^-1")
    return np.full(abs(exponent), code, np.uint8)


def coordinate_power_palindrome(
    coord: int, letter: str, exponent: int, ctx: S3WreathContext | None = None
) -> MonoidWord:
    """Palindrome u letter^exponent reverse(u) evaluating to the power at
    the coordinate of S3 element ``coord``, trivial elsewhere, trivial top."""
    ctx = ctx or s3_wreath_context()
    ctx.group._top_id(coord, "coordinate")
    if letter not in ("x", "y"):
        raise ValueError("letter must be 'x' or 'y'")
    if exponent == 0:
        raise ValueError("exponent must be nonzero")
    u = ctx.conjugators[coord]
    return ctx.word(np.concatenate((u, _power(ctx, letter, exponent), u[::-1])))


def _pair_layout(g: FreeWord) -> tuple[int, int]:
    # (lead, rows): the syllables of a reduced nontrivial rank-2 word
    # alternate between x and y, so they fill rows (a_t, b_t) of the word
    # x^a1 y^b1 x^a2 ... after `lead` zero x-powers (one when it starts with y)
    lead = int(g.gens[0] == 2)
    return lead, (lead + len(g) + 1) // 2


def _pair_exponents(g: FreeWord) -> np.ndarray:
    # the (a_t, b_t) rows of _pair_layout, zero padded
    lead, rows = _pair_layout(g)
    padded = np.zeros(2 * rows, np.int64)
    padded[lead : lead + len(g)] = g.exps
    return padded.reshape(-1, 2)


def _derived_palindrome(coord: int, part: FreeWord, ctx: S3WreathContext) -> MonoidWord | None:
    # the palindrome w reverse(w) that carries the part at the coordinate,
    # unchecked; None when the part is trivial
    ctx.group._top_id(coord, "coordinate")
    if part.rank != 2:
        raise ValueError("derived parts live in the rank-2 free group")
    if part.is_identity():
        return None
    if part.exponent_sum(1) != 0 or part.exponent_sum(2) != 0:
        raise ValueError("derived part must have zero exponent sums")
    u = ctx.conjugators[coord]
    # per (a, b) pair the tokens r, x^+-1, r^-1, y^+-1; each letter of r
    # and r^-1 is repeated once, the x and y tokens |a| and |b| times
    pairs = _pair_exponents(part)
    a, b = pairs[:, 0], pairs[:, 1]
    nr, ni = len(ctx.r), len(ctx.r_inv)
    tokens = np.empty((len(pairs), nr + ni + 2), np.uint8)
    tokens[:, :nr] = ctx.r
    tokens[:, nr] = np.where(a < 0, ctx.code("x^-1"), ctx.code("x"))
    tokens[:, nr + 1 : nr + 1 + ni] = ctx.r_inv
    tokens[:, -1] = np.where(b < 0, ctx.code("y^-1"), ctx.code("y"))
    counts = np.ones(tokens.shape, np.int64)
    counts[:, nr], counts[:, -1] = np.abs(a), np.abs(b)
    inner = np.repeat(tokens.ravel(), counts.ravel())
    w = np.concatenate((u, inner, u[::-1]))
    return ctx.word(np.concatenate((w, w[::-1])))


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
    if (palindrome := _derived_palindrome(coord, part, ctx)) is not None:
        target = ctx.group.from_base_word(part, coord)
        _verify(DecompositionCertificate(target, [palindrome], 1), ctx, [(0, coord, part)])
    return palindrome


def top_palindromes(s: int, ctx: S3WreathContext | None = None) -> list[MonoidWord]:
    """At most one palindromic word multiplying to the given top element."""
    ctx = ctx or s3_wreath_context()
    if ctx.group._top_id(s, "top element") == ctx.group.top.identity:
        return []
    return [ctx.word(ctx.top_words[s])]


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

        The product is one evaluation of the factors' halves joined end to
        end, each factor split at its midpoint, as ``decompose`` checks
        them.  Evaluating a letter word into the wreath group is a monoid
        homomorphism, and the halves joined in order are the factors
        joined in order, so their value is the product, in order, of the
        values of the factors.  One word scan thus replaces an evaluation
        per factor and a fold of products.
        """
        return _verify(self, ctx or s3_wreath_context())


def _verify(
    cert: DecompositionCertificate, ctx: S3WreathContext, derived: Iterable[tuple] = ()
) -> dict[str, bool]:
    # the certificate's flags, from one evaluate_words call over its factors
    # split at their midpoints; first the construction checks of the derived
    # factors, given as (factor index, coordinate, part), which read the
    # values of their halves w and reverse(w)
    halves = [half for f in cert.factors for half in _halves(f)]
    values, product = evaluate_words(ctx.group, halves, ctx.base_letters, ctx.top_letters)
    for i, c, part in derived:
        if not values[2 * i + 1].is_identity():
            raise InvariantViolation(
                f"reversal of the derived-part word at coordinate {c} did not evaluate "
                f"to the identity; witness word: {format_monoid_word(halves[2 * i])}"
            )
        if values[2 * i] != ctx.group.from_base_word(part, c):
            raise InvariantViolation(f"derived-part word evaluates off target at coordinate {c}")
    return {
        "factors_palindromic": all(is_word_palindrome(f) for f in cert.factors),
        "product_equals_target": product == cert.target,
        "count_within_bound": cert.factor_count <= MAX_FACTORS,
        "count_consistent": cert.factor_count == len(cert.factors),
    }


def decompose(g: WreathElement, ctx: S3WreathContext | None = None) -> DecompositionCertificate:
    """Factor g into at most 20 letter palindromes (this construction
    emits at most 19) and verify the certificate before returning it."""
    ctx = ctx or s3_wreath_context()
    _require_s3_wreath(g, ctx)
    exponents, parts, top = split_abelian_commutator(g, ctx)
    letters = factor_letter_count(exponents, parts, top, ctx)
    if letters > MAX_FACTOR_LETTERS:
        raise CapExceeded(
            f"the decomposition would hold {letters:,} factor letters, "
            f"over the cap of {MAX_FACTOR_LETTERS:,}"
        )
    factors: list[MonoidWord] = []
    for c, (a, _) in enumerate(exponents):
        if a:
            factors.append(coordinate_power_palindrome(c, "x", a, ctx))
    for c, (_, b) in enumerate(exponents):
        if b:
            factors.append(coordinate_power_palindrome(c, "y", b, ctx))
    checks = []
    for c, part in enumerate(parts):
        if (palindrome := _derived_palindrome(c, part, ctx)) is not None:
            checks.append((len(factors), c, part))
            factors.append(palindrome)
    factors.extend(top_palindromes(top, ctx))
    cert = DecompositionCertificate(g, factors, len(factors))
    cert.flags = _verify(cert, ctx, checks)
    failed = [k for k, v in cert.flags.items() if not v]
    if failed:
        raise InvariantViolation(f"certificate verification failed: {failed}")
    return cert
