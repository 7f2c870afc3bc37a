"""Words over symmetric alphabets, reduced free-group words, and quasi-lengths.

Two word types live here, each stored as read-only numpy arrays, so that
Python takes no step per letter or per syllable except where text comes
in or goes out.

``MonoidWord`` is a raw letter sequence (never reduced), stored as one
code array over a tuple of letter labels: the codes take the narrowest
unsigned type for the alphabet, and reversal, concatenation and the
palindrome test are array operations.  Strings appear only in the
constructor from letters, ``format_monoid_word`` and the derived
``letters`` view.  Palindromicity is a property of the
letter sequence as written, so it belongs to this type.

``FreeWord`` is the canonical reduced form of a free-group element: its
syllables (generator, exponent), adjacent ones on distinct generators,
stored as two arrays ``gens`` and ``exps``.  Construction checks the
normal form with a few array reductions; a product joins the arrays after
a Python walk over the syllable pairs that cancel at the seam; inverse,
exponent sums and the quasi-length are array operations.  Exponents are
int64 while below 2**31 in absolute value and Python ints otherwise, so
every sum stays exact.  The quasi-length ``ql`` is a syllable-level sum
and is only well defined on the reduced form.

In the free-word text, ``x``/``y`` (and ``x^-1``/``y^-1``) alias
``x1``/``x2`` only as whole atoms: ``x1^3`` is a syllable, ``x^3`` is not.
Indices and exponents are written in ASCII digits.
"""

from __future__ import annotations

import operator
import re
from collections.abc import Iterable, Sequence
from functools import lru_cache
from itertools import chain

import numpy as np

__all__ = [
    "MonoidWord",
    "FreeWord",
    "reduce_word",
    "is_word_palindrome",
    "ql",
    "free_commutator",
    "format_monoid_word",
    "parse_free_word",
    "format_free_word",
]

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
        The alphabet check is cached for the last 64 distinct alphabets.
        """
        alphabet = tuple(alphabet)
        try:
            _check_alphabet(alphabet)
        except TypeError:  # an unhashable label, which the cache cannot hold
            raise ValueError("alphabet must be distinct strings") from None
        codes = np.asarray(codes)
        if codes.ndim != 1 or (len(codes) and codes.dtype.kind not in "ui"):
            raise ValueError("codes must be a one-dimensional integer array")
        if len(codes) and (
            _max(codes) >= len(alphabet) or (codes.dtype.kind == "i" and _min(codes) < 0)
        ):
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


@lru_cache(maxsize=64)
def _check_alphabet(alphabet: tuple[str, ...]) -> None:
    # raises, and so caches nothing, unless the labels are distinct strings
    if not all(isinstance(a, str) for a in alphabet) or len(set(alphabet)) != len(alphabet):
        raise ValueError("alphabet must be distinct strings")


def _code_type(alphabet: tuple[str, ...]) -> np.dtype:
    # the narrowest unsigned type that holds every code of the alphabet
    return np.min_scalar_type(max(len(alphabet) - 1, 0))


def _join(words: Sequence[MonoidWord], alphabet: tuple[str, ...]) -> MonoidWord:
    # the words end to end, each recoded into one alphabet: the given one
    # first, then the words' other labels in order of first occurrence;
    # one concatenate, so k words of L letters in all cost O(L), not O(k L).
    # A word whose alphabet is a prefix of the merged one keeps its codes,
    # which the concatenate widens if need be; one word is not copied
    merged = tuple(dict.fromkeys(alphabet + tuple(a for w in words for a in w.alphabet)))
    index = {a: i for i, a in enumerate(merged)}
    code = _code_type(merged)
    pieces = [
        w.codes
        if w.alphabet == merged[: len(w.alphabet)]
        else np.array([index[a] for a in w.alphabet], code).take(w.codes)
        for w in words
    ]
    if len(pieces) == 1:
        return MonoidWord.from_codes(pieces[0], merged)
    return MonoidWord.from_codes(np.concatenate([np.empty(0, code), *pieces]), merged)


def _halves(w: MonoidWord) -> tuple[MonoidWord, MonoidWord]:
    # w split at its midpoint, the longer half second: views of its codes
    # over its alphabet, so nothing is copied or checked again
    mid = len(w) // 2
    first, second = MonoidWord.__new__(MonoidWord), MonoidWord.__new__(MonoidWord)
    first._set(w.codes[:mid], w.alphabet)
    second._set(w.codes[mid:], w.alphabet)
    return first, second


def is_word_palindrome(w: MonoidWord) -> bool:
    """True iff the letter sequence equals its own reversal: the first half
    of the codes against the reversed second half."""
    half = len(w.codes) // 2
    return np.array_equal(w.codes[:half], w.codes[::-1][:half])


# syllable x<i> or x<i>^<e>, with x/y aliases for rank 2; indices and
# exponents are ASCII digits only, not any Unicode digit.  A letter of a
# free-group alphabet is a syllable whose exponent is absent or exactly -1
_SYLLABLE_RE = re.compile(r"x([0-9]+)(?:\^(-?[0-9]+))?")
_LETTER_ALIASES = {"x": "x1", "y": "x2", "x^-1": "x1^-1", "y^-1": "x2^-1"}

# generator indices are int64, so a rank is at most this
_MAX_RANK = 2**63 - 1
# exponents below this in absolute value are stored as int64: a sum of fewer
# than 2**32 of them is exact in int64
_SMALL_EXP = 2**31


def _letter_to_syllable(letter: str) -> tuple[int, int]:
    m = _SYLLABLE_RE.fullmatch(_LETTER_ALIASES.get(letter, letter))
    if m is None or m.group(2) not in (None, "-1"):
        raise ValueError(f"not a free-group letter: {letter!r}")
    return int(m.group(1)), -1 if m.group(2) else 1


def _read_only(a: np.ndarray) -> np.ndarray:
    a = a.view()
    a.flags.writeable = False
    return a


_min, _max = np.minimum.reduce, np.maximum.reduce

# every identity word shares this array for its gens and its exps
_EMPTY = _read_only(np.empty(0, np.int64))


def _raise_first_fault(rank: int, gens: list[int], exps: list[int]) -> None:
    # the first syllable that breaks a rule, in order, with its first rule broken
    prev = 0
    for gen, exp in zip(gens, exps):
        if not 1 <= gen <= rank:
            raise ValueError(f"generator index {gen} out of range 1..{rank}")
        if exp == 0:
            raise ValueError("zero exponent syllable")
        if gen == prev:
            raise ValueError("adjacent syllables share a generator (not reduced)")
        prev = gen
    raise AssertionError("no syllable breaks a rule")


class FreeWord:
    """Reduced word of a free group of given rank, in syllable normal form.

    Syllables are (generator index in 1..rank, nonzero exponent) with
    adjacent syllables on distinct generators; this normal form is unique,
    so equality of values is equality of group elements.

    Stored as two read-only arrays of one length, ``gens`` (int64) and
    ``exps``.  ``exps`` is int64 when every exponent is below 2**31 in
    absolute value, so that a sum of fewer than 2**32 of them is exact in
    int64, and otherwise an object array of Python ints; the dtype follows
    the value, so equality and hashing do too.  ``FreeWord(rank, syllables)``
    reads (generator, exponent) pairs; ``FreeWord.from_arrays`` wraps arrays.
    Every word is checked on construction, by a few array reductions; the
    first bad syllable is searched for only when they fail.  ``syllables``
    is a tuple of pairs built on each access, and ``len`` counts syllables.
    """

    __slots__ = ("rank", "gens", "exps")

    rank: int
    gens: np.ndarray
    exps: np.ndarray

    def __init__(self, rank: int, syllables: Iterable[tuple[int, int]] = ()) -> None:
        values = [operator.index(v) for gen, exp in syllables for v in (gen, exp)]
        try:
            flat = np.array(values, np.int64)
        except OverflowError:
            flat = np.array(values, object)
        self._set(rank, flat[0::2], flat[1::2])

    @classmethod
    def from_arrays(cls, rank: int, gens: np.ndarray, exps: np.ndarray) -> "FreeWord":
        """The word with syllables (gens[i], exps[i]).

        Each is an integer array or an object array of ints.  An int64
        array is wrapped in a read-only view, not copied, so the caller
        must not write to it afterwards.
        """
        gens, exps = np.asarray(gens), np.asarray(exps)
        if gens.ndim != 1 or gens.shape != exps.shape:
            raise ValueError("gens and exps must be one-dimensional and of one length")
        if len(gens) and (gens.dtype.kind not in "iuO" or exps.dtype.kind not in "iuO"):
            raise TypeError("generators and exponents must be integers")
        if gens.dtype == object:
            gens = np.array([operator.index(g) for g in gens.tolist()], object)
        if exps.dtype == object:
            exps = np.array([operator.index(e) for e in exps.tolist()], object)
        word = cls.__new__(cls)
        word._set(rank, gens, exps)
        return word

    def _set(self, rank: int, gens: np.ndarray, exps: np.ndarray) -> None:
        if rank < 1:
            raise ValueError("rank must be positive")
        if rank > _MAX_RANK:
            raise ValueError(f"rank {rank} is past 2**63 - 1")
        if len(gens):
            # the ufunc reductions are called directly: ndarray.min and max
            # add a Python wrapper that costs as much on a short word
            if not (
                _min(gens) >= 1
                and _max(gens) <= rank
                and np.count_nonzero(exps) == len(exps)
                and not np.count_nonzero(gens[1:] == gens[:-1])
            ):
                _raise_first_fault(rank, gens.tolist(), exps.tolist())
            gens = _read_only(gens.astype(np.int64, copy=False))
            if -_SMALL_EXP < _min(exps) and _max(exps) < _SMALL_EXP:
                exps = _read_only(exps.astype(np.int64, copy=False))
            else:
                exps = _read_only(exps if exps.dtype == object else exps.astype(object))
        else:
            gens = exps = _EMPTY
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "gens", gens)
        object.__setattr__(self, "exps", exps)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("FreeWord is immutable")

    @property
    def syllables(self) -> tuple[tuple[int, int], ...]:
        """The (generator, exponent) pairs, built on each access."""
        return tuple(zip(self.gens.tolist(), self.exps.tolist()))

    def __len__(self) -> int:
        return len(self.gens)

    def _key(self) -> tuple:
        # the dtype of exps follows the value, so equal words have equal keys
        exps = self.exps
        return self.rank, self.gens.tobytes(), exps.tobytes() if exps.dtype != object else tuple(exps)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FreeWord):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"FreeWord({self.rank}, {self.syllables!r})"

    def __reduce__(self):
        return FreeWord.from_arrays, (self.rank, np.array(self.gens), np.array(self.exps))

    @staticmethod
    def identity(rank: int) -> "FreeWord":
        return FreeWord.from_arrays(rank, _EMPTY, _EMPTY)

    def is_identity(self) -> bool:
        return not len(self.gens)

    def __mul__(self, other: "FreeWord") -> "FreeWord":
        """Product of reduced words, reduced only at the seam.

        Costs O(c) Python steps for the c syllable pairs that cancel at the
        seam, plus one concatenation of each array and the check.  A product
        with the identity returns the other operand as it is.
        """
        if self.rank != other.rank:
            raise ValueError(f"rank mismatch: {self.rank} vs {other.rank}")
        if not len(other):
            return self
        if not len(self):
            return other
        lg, le, rg, re_ = self.gens, self.exps, other.gens, other.exps
        # walk inward while the syllables at the seam cancel exactly
        i, j, n = len(lg), 0, len(rg)
        while i and j < n and lg[i - 1] == rg[j] and le[i - 1] == -re_[j]:
            i -= 1
            j += 1
        if i and j < n and lg[i - 1] == rg[j]:
            # same generator, nonzero total: merge the one pair; its outer
            # neighbours are on other generators since both words are reduced
            gens = np.concatenate((lg[:i], rg[j + 1 :]))
            exps = np.concatenate((le[:i], re_[j + 1 :]))
            exps[i - 1] = int(le[i - 1]) + int(re_[j])
        else:
            gens = np.concatenate((lg[:i], rg[j:]))
            exps = np.concatenate((le[:i], re_[j:]))
        return FreeWord.from_arrays(self.rank, gens, exps)

    def inverse(self) -> "FreeWord":
        return FreeWord.from_arrays(self.rank, self.gens[::-1], -self.exps[::-1])

    def exponent_sum(self, gen: int) -> int:
        return int(self.exps[self.gens == gen].sum())


def _reduce_runs(gens: np.ndarray, exps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduced syllables of a sequence of runs, whose neighbours are on
    distinct generators, so only a run that sums to zero can start a
    cancellation.  With no zero run the arrays come back as they are.
    Otherwise the stretches between zero runs are kept as index ranges and
    joined by one concatenation per array; a zero run is dropped, and the
    runs after it merge into the last syllable kept while each merge sums
    to zero.  The first merge that leaves a nonzero exponent, or the first
    run on another generator, ends the cascade: the run after it is on yet
    another generator.  Python steps count the zero runs and the
    cancellations, not the runs."""
    zeros = np.flatnonzero(exps == 0).tolist()
    if not zeros:
        return gens, exps
    exps = exps.copy()  # a merge writes its sum into the syllable kept
    kept: list[list[int]] = []  # [start, end) of the stretches kept, in order
    i, n = 0, len(exps)
    for z in zeros:
        if z < i:  # merged in an earlier cascade
            continue
        if i < z:
            kept.append([i, z])
        i = z + 1
        while i < n and kept and gens[kept[-1][1] - 1] == gens[i]:
            last = kept[-1][1] - 1
            exp = exps[last] + exps[i]
            i += 1
            if exp:
                exps[last] = exp
                break
            kept[-1][1] = last
            if kept[-1][0] == last:
                kept.pop()
    if i < n:
        kept.append([i, n])
    if not kept:
        return gens[:0], exps[:0]
    return (
        np.concatenate([gens[lo:hi] for lo, hi in kept]),
        np.concatenate([exps[lo:hi] for lo, hi in kept]),
    )


def _reduce_syllables(gens: np.ndarray, exps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # free reduction of a nonempty syllable sequence: the maximal runs of
    # one generator, each summed, then their cancellations; exps must be
    # of a dtype whose sums are exact
    starts = np.flatnonzero(np.concatenate(([True], gens[1:] != gens[:-1])))
    return _reduce_runs(gens[starts], np.add.reduceat(exps, starts))


def reduce_word(w: MonoidWord, rank: int | None = None) -> FreeWord:
    """Canonical reduced form of a word over a free-group alphabet.

    Idempotent in the sense that reducing the spelled-out form of the
    result gives the result back; the empty word maps to the identity.
    Each label that occurs is read and range-checked once, even where its
    letters cancel, and the first letter of the word with a bad label is
    named; the letters are then reduced as arrays.
    """
    alphabet, codes = w.alphabet, w.codes
    gen_of = np.zeros(len(alphabet), np.int64)
    exp_of = np.zeros(len(alphabet), np.int64)
    faults: dict[int, ValueError] = {}
    for i in np.flatnonzero(np.bincount(codes, minlength=len(alphabet))).tolist():
        try:
            gen, exp = _letter_to_syllable(alphabet[i])
            if not 1 <= gen <= min(rank or _MAX_RANK, _MAX_RANK):
                raise ValueError(f"generator index {gen} out of range")
        except ValueError as fault:
            faults[i] = fault
            continue
        gen_of[i], exp_of[i] = gen, exp
    if faults:
        raise faults[int(codes[np.flatnonzero(np.isin(codes, list(faults)))[0]])]
    if rank is None:
        rank = max(1, int(gen_of.max(initial=0)))
    if not len(codes):
        return FreeWord.identity(rank)
    return FreeWord.from_arrays(rank, *_reduce_syllables(gen_of.take(codes), exp_of.take(codes)))


def ql(w: FreeWord | MonoidWord) -> int:
    """Quasi-length: the sum of tr(e) over the syllable exponents e of the
    reduced form, where tr(e) is 0, 1 or -1 as e mod 3 is 0, 1 or 2.
    Unreduced input is reduced first."""
    if isinstance(w, MonoidWord):
        w = reduce_word(w)
    return _tr_sum(w.exps)


def _tr_sum(exps: np.ndarray) -> int:
    # the sum of tr over an exponent array, as tr(m) = ((m + 1) mod 3) - 1
    return int(((exps + 1) % 3).sum()) - len(exps)


def free_commutator(u: FreeWord, v: FreeWord) -> FreeWord:
    """[u, v] = u^-1 v^-1 u v."""
    return u.inverse() * v.inverse() * u * v


# ---------------------------------------------------------------------------
# plain-text formats
#
# MonoidWord (output only): letters separated by spaces, inverse letters
# carry a ^-1 suffix; the empty word prints as "1".
# FreeWord: syllables like x1^-3, exponent suffix omitted when it is 1;
# "[u,v]" is accepted on input as commutator shorthand.
# ---------------------------------------------------------------------------


def format_monoid_word(w: MonoidWord) -> str:
    return " ".join(w.letters) if len(w) else "1"


def format_free_word(w: FreeWord) -> str:
    if not len(w):
        return "1"
    return " ".join(
        f"x{g}" if e == 1 else f"x{g}^{e}" for g, e in zip(w.gens.tolist(), w.exps.tolist())
    )


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
    m = _SYLLABLE_RE.fullmatch(atom)
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
    if not 1 <= gen <= (rank or _MAX_RANK):
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
    distinct atom once.  Every atom's syllables are joined in one list,
    read into arrays and reduced there, so Python takes no step per
    syllable; one word is built and validated at the end.
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

    pairs: list[tuple[int, int]] = []
    max_gen = 1
    # syllables of each distinct atom, parsed once
    parsed: dict[str, tuple[tuple[int, int], ...]] = {}
    for atom in atoms:
        syllables = parsed.get(atom)
        if syllables is None:
            syllables, top = _parse_atom(atom, rank)
            parsed[atom] = syllables
            max_gen = max(max_gen, top)
        pairs += syllables
    if not pairs:
        return FreeWord.identity(rank or max_gen)
    try:
        flat = np.fromiter(chain.from_iterable(pairs), np.int64, 2 * len(pairs))
    except OverflowError:
        flat = np.fromiter(chain.from_iterable(pairs), object, 2 * len(pairs))
    gens, exps = flat[0::2], flat[1::2]
    # the run sums are exact in int64 while every exponent is below 2**31
    if not (-_SMALL_EXP < _min(exps) and _max(exps) < _SMALL_EXP):
        exps = exps.astype(object)
    return FreeWord.from_arrays(rank or max_gen, *_reduce_syllables(gens, exps))
