"""Words over symmetric alphabets, reduced free-group words, and quasi-lengths.

Two word types live here.  ``MonoidWord`` is a raw letter sequence (never
reduced); palindromicity is a property of the letter sequence as written,
so it belongs to this type.  ``FreeWord`` is the canonical reduced form of
a free-group element, stored as syllables ``(generator, exponent)`` with
adjacent syllables on distinct generators.  The quasi-length ``ql`` is a
syllable-level sum and is only well defined on the reduced form.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

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


@dataclass(frozen=True)
class MonoidWord:
    """A finite letter sequence; not reduced, compared letter by letter."""

    letters: tuple[str, ...] = ()

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "MonoidWord") -> "MonoidWord":
        return MonoidWord(self.letters + other.letters)

    def reverse(self) -> "MonoidWord":
        return MonoidWord(self.letters[::-1])


def is_word_palindrome(w: MonoidWord) -> bool:
    """True iff the letter sequence equals its own reversal."""
    return w.letters == w.letters[::-1]


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

    def to_letters(self, names: tuple[str, ...] | None = None) -> MonoidWord:
        """Spell the word out letter by letter.

        ``names`` optionally renames generator i to ``names[i-1]`` (the
        inverse letter gets a ``^-1`` suffix); defaults to x1, x2, ...
        """
        letters: list[str] = []
        for gen, exp in self.syllables:
            base = names[gen - 1] if names else f"x{gen}"
            letter = base if exp > 0 else base + "^-1"
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
    return " ".join(w.letters) if w.letters else "1"


def parse_monoid_word(text: str) -> MonoidWord:
    text = text.strip()
    if text in ("", "1"):
        return MonoidWord()
    return MonoidWord(tuple(text.split()))


def format_free_word(w: FreeWord) -> str:
    if not w.syllables:
        return "1"
    return " ".join(f"x{g}" if e == 1 else f"x{g}^{e}" for g, e in w.syllables)


_SYLLABLE_RE = re.compile(r"^x(\d+)(?:\^(-?\d+))?$")


def _split_commutator(text: str) -> tuple[str, str]:
    # text is "[...]" with the comma at bracket depth 1
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


def _parse_atom(atom: str, rank: int | None) -> FreeWord:
    # one atom as a word of rank max(generator, rank); commutator
    # arguments are atoms themselves, so "[[x,y],x]" nests
    if atom == "1":
        return FreeWord.identity(rank or 1)
    if atom.startswith("["):
        if not atom.endswith("]"):
            raise ValueError(f"malformed commutator expression: {atom!r}")
        left, right = _split_commutator(atom)
        u, v = _parse_atom(left.strip(), rank), _parse_atom(right.strip(), rank)
        r0 = max(u.rank, v.rank, rank or 1)
        return free_commutator(FreeWord(r0, u.syllables), FreeWord(r0, v.syllables))
    gen, exp = _parse_syllable(atom)
    return FreeWord(max(gen, rank or 1), ((gen, exp),) if exp else ())


def parse_free_word(text: str, rank: int | None = None) -> FreeWord:
    """Parse the syllable text format; "1" is the identity.

    Accepts x/y as aliases for x1/x2 and "[u,v]" commutator atoms, e.g.
    "[x,y] x1^2".  The rank defaults to the largest generator index in the
    text.  Runs in time linear in the text, with one C-level split over it:
    Python visits each space-separated token once, walks characters only
    in tokens that hold a bracket, and matches each distinct atom once.
    Every atom's syllables go onto one reduction stack, and one word is
    built and validated at the end.
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
    # syllables of each distinct atom, parsed and range-checked once
    parsed: dict[str, tuple[tuple[int, int], ...]] = {"1": ()}
    for atom in atoms:
        syllables = parsed.get(atom)
        if syllables is None:
            if atom.startswith("["):
                word = _parse_atom(atom, rank)
                max_gen = max(max_gen, word.rank)
                syllables = word.syllables
            else:
                gen, exp = _parse_syllable(atom)
                max_gen = max(max_gen, gen)
                syllables = ((gen, exp),)
            for gen, exp in syllables:
                # checked per atom: a syllable that cancels later is never
                # seen by the final FreeWord validation
                if exp and not 1 <= gen <= (rank or gen):
                    raise ValueError(f"generator index {gen} out of range")
            parsed[atom] = syllables
        for gen, exp in syllables:
            _push_syllable(stack, gen, exp)
    return FreeWord(rank or max_gen, tuple((g, e) for g, e in stack))
