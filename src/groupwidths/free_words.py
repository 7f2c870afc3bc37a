"""Words over symmetric alphabets, reduced free-group words, and quasi-lengths.

Two word types live here.  ``MonoidWord`` is a raw letter sequence (never
reduced), stored as one read-only numpy code array over a tuple of letter
labels: the codes take the narrowest unsigned type for the alphabet, and
reversal, concatenation and the palindrome test are array operations.
Strings appear only where text comes in or goes out: in the constructor
from letters, ``parse_monoid_word``, ``format_monoid_word`` and the
derived ``letters`` view.  Palindromicity is a property of the letter
sequence as written, so it belongs to this type.  ``FreeWord`` is the
canonical reduced form of a free-group element, stored as syllables
``(generator, exponent)`` with adjacent syllables on distinct generators.
The quasi-length ``ql`` is a syllable-level sum and is only well defined
on the reduced form.

In the free-word text, ``x``/``y`` (and ``x^-1``/``y^-1``) alias
``x1``/``x2`` only as whole atoms: ``x1^3`` is a syllable, ``x^3`` is not.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MonoidWord",
    "FreeWord",
    "reduce_word",
    "is_word_palindrome",
    "tr",
    "ql",
    "free_commutator",
    "parse_monoid_word",
    "format_monoid_word",
    "parse_free_word",
    "format_free_word",
]

# index of tr(m) by the mathematical residue m mod 3 (0, 1, 2 -> 0, 1, -1)
_TR_BY_RESIDUE = (0, 1, -1)


def tr(m: int) -> int:
    """Ternary residue sign: 0, 1 or -1 according to m mod 3."""
    return _TR_BY_RESIDUE[m % 3]


class MonoidWord:
    """A finite letter sequence; not reduced, compared letter by letter.

    Stored as one read-only code array ``codes`` over a tuple of distinct
    letter labels ``alphabet``: letter i is ``alphabet[codes[i]]``.  The
    codes take the narrowest unsigned type that holds ``len(alphabet) - 1``.
    The alphabet may hold labels that do not occur, so two equal words can
    have different alphabets; equality and hashing follow the letters.

    ``MonoidWord(letters)`` codes a sequence of strings once, with the
    labels in order of first occurrence; ``MonoidWord.from_codes`` wraps a
    code array without touching strings.
    """

    __slots__ = ("codes", "alphabet")

    codes: np.ndarray
    alphabet: tuple[str, ...]

    def __init__(self, letters: Iterable[str] = ()) -> None:
        if isinstance(letters, str):
            raise TypeError("letters must be a sequence of strings, not one string")
        letters = tuple(letters)
        alphabet = tuple(dict.fromkeys(letters))
        if not all(isinstance(a, str) for a in alphabet):
            raise TypeError("letters must be strings")
        index = {a: i for i, a in enumerate(alphabet)}
        codes = np.fromiter(map(index.__getitem__, letters), _code_type(alphabet), len(letters))
        self._set(codes, alphabet)

    @classmethod
    def from_codes(cls, codes: np.ndarray, alphabet: tuple[str, ...]) -> "MonoidWord":
        """The word ``alphabet[codes[0]] alphabet[codes[1]] ...``.

        Codes already in the narrowest type are wrapped in a read-only view,
        not copied, so the caller must not write to the array afterwards.
        """
        alphabet = tuple(alphabet)
        if not all(isinstance(a, str) for a in alphabet) or len(set(alphabet)) != len(alphabet):
            raise ValueError("alphabet must be distinct strings")
        codes = np.asarray(codes)
        if codes.ndim != 1 or (len(codes) and codes.dtype.kind not in "ui"):
            raise ValueError("codes must be a one-dimensional integer array")
        if len(codes) and not 0 <= codes.min() <= codes.max() < len(alphabet):
            raise ValueError(f"codes must lie in 0..{len(alphabet) - 1}")
        word = cls.__new__(cls)
        word._set(codes.astype(_code_type(alphabet), copy=False), alphabet)
        return word

    def _set(self, codes: np.ndarray, alphabet: tuple[str, ...]) -> None:
        codes = codes.view()
        codes.flags.writeable = False
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "alphabet", alphabet)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("MonoidWord is immutable")

    @property
    def letters(self) -> tuple[str, ...]:
        """The letters as a tuple of labels, built on each access."""
        return tuple(np.array(self.alphabet, dtype=object).take(self.codes).tolist())

    def __len__(self) -> int:
        return len(self.codes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MonoidWord):
            return NotImplemented
        if self.alphabet == other.alphabet:
            return np.array_equal(self.codes, other.codes)
        return len(self) == len(other) and self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def __repr__(self) -> str:
        return f"MonoidWord({self.letters!r})"

    def __reduce__(self):
        return MonoidWord.from_codes, (np.array(self.codes), self.alphabet)

    def __mul__(self, other: "MonoidWord") -> "MonoidWord":
        return _join((self, other), self.alphabet)

    def reverse(self) -> "MonoidWord":
        return MonoidWord.from_codes(self.codes[::-1], self.alphabet)


def _code_type(alphabet: tuple[str, ...]) -> np.dtype:
    # the narrowest unsigned type that holds every code of the alphabet
    return np.min_scalar_type(max(len(alphabet) - 1, 0))


def _join(words: Sequence[MonoidWord], alphabet: tuple[str, ...]) -> MonoidWord:
    # the words end to end, each recoded into one alphabet: the given one
    # first, then the words' other labels in order of first occurrence;
    # one concatenate, so k words of L letters in all cost O(L), not O(k L)
    merged = tuple(dict.fromkeys(alphabet + tuple(a for w in words for a in w.alphabet)))
    index = {a: i for i, a in enumerate(merged)}
    code = _code_type(merged)
    pieces = [np.array([index[a] for a in w.alphabet], code).take(w.codes) for w in words]
    return MonoidWord.from_codes(np.concatenate([np.empty(0, code), *pieces]), merged)


def is_word_palindrome(w: MonoidWord) -> bool:
    """True iff the letter sequence equals its own reversal."""
    return np.array_equal(w.codes, w.codes[::-1])


# letter of a free-group alphabet: x<i> or x<i>^-1, with x/y aliases for rank 2
_FREE_LETTER_RE = re.compile(r"^x(\d+)(\^-1)?$")
_LETTER_ALIASES = {"x": "x1", "y": "x2", "x^-1": "x1^-1", "y^-1": "x2^-1"}


def _letter_to_syllable(letter: str) -> tuple[int, int]:
    letter = _LETTER_ALIASES.get(letter, letter)
    m = _FREE_LETTER_RE.match(letter)
    if m is None:
        raise ValueError(f"not a free-group letter: {letter!r}")
    return int(m.group(1)), -1 if m.group(2) else 1


def _push_syllable(stack: list[list[int]], gen: int, exp: int) -> None:
    # merge with the top of the stack, dropping annihilated syllables
    if exp == 0:
        return
    if stack and stack[-1][0] == gen:
        stack[-1][1] += exp
        if stack[-1][1] == 0:
            stack.pop()
    else:
        stack.append([gen, exp])


@dataclass(frozen=True)
class FreeWord:
    """Reduced word of a free group of given rank, in syllable normal form.

    Syllables are ``(generator index in 1..rank, nonzero exponent)`` with
    adjacent syllables on distinct generators; this normal form is unique,
    so equality of values is equality of group elements.
    """

    rank: int
    syllables: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ValueError("rank must be positive")
        prev = 0
        for gen, exp in self.syllables:
            if not 1 <= gen <= self.rank:
                raise ValueError(f"generator index {gen} out of range 1..{self.rank}")
            if exp == 0:
                raise ValueError("zero exponent syllable")
            if gen == prev:
                raise ValueError("adjacent syllables share a generator (not reduced)")
            prev = gen

    @staticmethod
    def identity(rank: int) -> "FreeWord":
        return FreeWord(rank, ())

    @staticmethod
    def generator(rank: int, gen: int, exp: int = 1) -> "FreeWord":
        return FreeWord(rank, ((gen, exp),) if exp else ())

    def is_identity(self) -> bool:
        return not self.syllables

    def __mul__(self, other: "FreeWord") -> "FreeWord":
        """Product of reduced words, reduced only at the seam.

        Costs O(c) Python steps for the c syllable pairs that cancel at the
        seam, plus one O(len(self) + len(other)) tuple join and validation.
        A product with the identity returns the other operand as it is.
        """
        if self.rank != other.rank:
            raise ValueError(f"rank mismatch: {self.rank} vs {other.rank}")
        left, right = self.syllables, other.syllables
        if not right:
            return self
        if not left:
            return other
        # walk inward while the syllables at the seam cancel exactly
        i, j, n = len(left), 0, len(right)
        while i and j < n and left[i - 1][0] == right[j][0] and left[i - 1][1] == -right[j][1]:
            i -= 1
            j += 1
        if i and j < n and left[i - 1][0] == right[j][0]:
            # same generator, nonzero total: merge the one pair; its outer
            # neighbours are on other generators since both words are reduced
            merged = ((right[j][0], left[i - 1][1] + right[j][1]),)
            return FreeWord(self.rank, left[: i - 1] + merged + right[j + 1 :])
        return FreeWord(self.rank, left[:i] + right[j:])

    def inverse(self) -> "FreeWord":
        return FreeWord(self.rank, tuple((g, -e) for g, e in reversed(self.syllables)))

    def exponent_sum(self, gen: int) -> int:
        return sum(e for g, e in self.syllables if g == gen)

    def to_letters(self) -> MonoidWord:
        """Spell the word out letter by letter over x1, x1^-1, x2, ..."""
        letters: list[str] = []
        for gen, exp in self.syllables:
            letter = f"x{gen}" if exp > 0 else f"x{gen}^-1"
            letters.extend([letter] * abs(exp))
        return MonoidWord(tuple(letters))


def reduce_word(w: MonoidWord, rank: int | None = None) -> FreeWord:
    """Canonical reduced form of a word over a free-group alphabet.

    Idempotent in the sense that reducing the spelled-out form of the
    result gives the result back; the empty word maps to the identity.
    """
    stack: list[list[int]] = []
    max_gen = 1
    for letter in w.letters:
        gen, exp = _letter_to_syllable(letter)
        # checked per letter: a letter that cancels later is never seen by
        # the final FreeWord validation
        if not 1 <= gen <= (rank or gen):
            raise ValueError(f"generator index {gen} out of range")
        max_gen = max(max_gen, gen)
        _push_syllable(stack, gen, exp)
    if rank is None:
        rank = max_gen
    return FreeWord(rank, tuple((g, e) for g, e in stack))


def ql(w: FreeWord | MonoidWord) -> int:
    """Quasi-length: the sum of tr over the syllable exponents of the
    reduced form.  Unreduced input is reduced first."""
    if isinstance(w, MonoidWord):
        w = reduce_word(w)
    return sum(_TR_BY_RESIDUE[exp % 3] for _, exp in w.syllables)


def free_commutator(u: FreeWord, v: FreeWord) -> FreeWord:
    """[u, v] = u^-1 v^-1 u v."""
    return u.inverse() * v.inverse() * u * v


# ---------------------------------------------------------------------------
# plain-text formats
#
# MonoidWord: letters separated by spaces, inverse letters carry a ^-1
# suffix; the empty word prints as "1".
# FreeWord: syllables like x1^-3, exponent suffix omitted when it is 1;
# "[u,v]" is accepted on input as commutator shorthand.
# ---------------------------------------------------------------------------


def format_monoid_word(w: MonoidWord) -> str:
    return " ".join(w.letters) if len(w) else "1"


def parse_monoid_word(text: str) -> MonoidWord:
    text = text.strip()
    if text in ("", "1"):
        return MonoidWord()
    return MonoidWord(text.split())


def format_free_word(w: FreeWord) -> str:
    if not w.syllables:
        return "1"
    return " ".join(f"x{g}" if e == 1 else f"x{g}^{e}" for g, e in w.syllables)


_SYLLABLE_RE = re.compile(r"^x(\d+)(?:\^(-?\d+))?$")


def _split_commutator(text: str) -> tuple[str, str]:
    # text is "[...]" with the comma at bracket depth 1
    if text.endswith("]"):
        depth = 0
        for i, ch in enumerate(text):
            if ch == "[":
                depth += 1
            elif ch == "]":
                depth -= 1
            elif ch == "," and depth == 1:
                return text[1:i], text[i + 1 : -1]
    raise ValueError(f"malformed commutator expression: {text!r}")


def _parse_syllable(atom: str) -> tuple[int, int]:
    atom = _LETTER_ALIASES.get(atom, atom)
    m = _SYLLABLE_RE.match(atom)
    if m is None:
        raise ValueError(f"not a syllable: {atom!r}")
    return int(m.group(1)), int(m.group(2)) if m.group(2) else 1


def _parse_atom(atom: str, rank: int | None) -> tuple[tuple[tuple[int, int], ...], int]:
    # one atom's reduced syllables and the largest generator index written
    # in it; every index read is checked against the rank, whatever its
    # exponent and whether or not it cancels.  Commutator arguments are
    # atoms themselves, so "[[x,y],x]" nests
    if atom == "1":
        return (), 1
    if atom.startswith("["):
        left, right = _split_commutator(atom)
        (u, i), (v, j) = _parse_atom(left.strip(), rank), _parse_atom(right.strip(), rank)
        top = max(i, j)
        return free_commutator(FreeWord(top, u), FreeWord(top, v)).syllables, top
    gen, exp = _parse_syllable(atom)
    if not 1 <= gen <= (rank or gen):
        raise ValueError(f"generator index {gen} out of range")
    return ((gen, exp),) if exp else (), gen


def parse_free_word(text: str, rank: int | None = None) -> FreeWord:
    """Parse the syllable text format; "1" is the identity.

    Accepts x/y as aliases for x1/x2 and "[u,v]" commutator atoms, e.g.
    "[x,y] x1^2".  The rank defaults to the largest generator index written
    in the text.  A given rank bounds every index written, whatever its
    exponent and inside commutators too, even where it cancels.  Every
    atom, plain or commutator, goes through one routine that parses and
    range-checks it.  Runs in time linear in the text, with one C-level
    split over it: Python visits each space-separated token once, walks
    characters only in tokens that hold a bracket, and parses each
    distinct atom once.  Every atom's syllables go onto one reduction
    stack, and one word is built and validated at the end.
    """
    text = text.strip()
    # atoms are the runs of space-separated tokens at bracket depth 0;
    # the tokens of a commutator atom are rejoined with the spaces they had
    atoms: list[str] = []
    pending: list[str] = []
    depth = 0
    for token in text.split(" "):
        if "[" in token or "]" in token:
            for ch in token:
                if ch == "[":
                    depth += 1
                elif ch == "]":
                    depth -= 1
                    if depth < 0:
                        raise ValueError(f"unbalanced brackets in {text!r}")
        elif not depth:
            if token:
                atoms.append(token)
            continue
        pending.append(token)
        if not depth:
            atoms.append(" ".join(pending))
            pending.clear()
    if depth:
        raise ValueError(f"unbalanced brackets in {text!r}")

    stack: list[list[int]] = []
    max_gen = 1
    # syllables of each distinct atom, parsed once
    parsed: dict[str, tuple[tuple[int, int], ...]] = {}
    for atom in atoms:
        syllables = parsed.get(atom)
        if syllables is None:
            syllables, top = _parse_atom(atom, rank)
            parsed[atom] = syllables
            max_gen = max(max_gen, top)
        for gen, exp in syllables:
            _push_syllable(stack, gen, exp)
    return FreeWord(rank or max_gen, tuple((g, e) for g, e in stack))
