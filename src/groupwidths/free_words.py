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
every sum stays exact.  A free word comes in as syllables, as arrays or
as text (``parse_free_word``), never as a letter word.  The quasi-length
``ql`` is a syllable-level sum and is only well defined on the reduced
form, so it takes a ``FreeWord``.

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
# exponents are ASCII digits only, not any Unicode digit
_SYLLABLE_RE = re.compile(r"x([0-9]+)(?:\^(-?[0-9]+))?")
_LETTER_ALIASES = {"x": "x1", "y": "x2", "x^-1": "x1^-1", "y^-1": "x2^-1"}

# generator indices are int64, so a rank is at most this
_MAX_RANK = 2**63 - 1
# exponents below this in absolute value are stored as int64: a sum of fewer
# than 2**32 of them is exact in int64
_SMALL_EXP = 2**31


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


def _words_of_runs(
    rank: int, count: int, keys: np.ndarray, gens: np.ndarray, exps: np.ndarray
) -> list[FreeWord]:
    """The reduced word at each of the keys 0..count-1, from runs given in
    order with their keys, generators and exponent sums; exps must be of a
    dtype whose sums are exact.  The runs are stably sorted by key, and
    neighbours of one generator at one key are summed by one
    ``np.add.reduceat``.  One more array pass finds the keys that hold a
    zero sum.  Any other key is its slice of the sums; in these keys the
    stretches between zero sums are joined, the reduction taking Python
    steps only at a zero sum and at each cancellation it sets off
    (``_reduce_runs``).  Each key's word is then checked by ``FreeWord``
    with a few array reductions."""
    order = keys.argsort(kind="stable")
    keys, gens, exps = keys.take(order), gens.take(order), exps.take(order)
    # a key starts where the key changes, a run where the key or the
    # generator does: neighbours of one generator at one key merge
    new_key = np.empty(len(keys), bool)
    new_key[0] = True
    np.not_equal(keys[1:], keys[:-1], out=new_key[1:])
    new_run = new_key.copy()
    new_run[1:] |= gens[1:] != gens[:-1]
    starts = new_run.nonzero()[0]
    run_gens = gens.take(starts).astype(np.int64, copy=False)
    run_exps = np.add.reduceat(exps, starts)
    # the merged runs of each nonempty key, and whether one of them sums to zero
    heads = new_key.take(starts).nonzero()[0]
    has_zero = np.logical_or.reduceat(run_exps == 0, heads).tolist()
    bounds = heads.tolist() + [len(starts)]
    words = [FreeWord.identity(rank)] * count
    for key, lo, hi, zero in zip(keys.take(starts.take(heads)).tolist(), bounds, bounds[1:], has_zero):
        syllables = run_gens[lo:hi], run_exps[lo:hi]
        words[key] = FreeWord.from_arrays(rank, *(_reduce_runs(*syllables) if zero else syllables))
    return words


def ql(w: FreeWord) -> int:
    """Quasi-length: the sum of tr(e) over the syllable exponents e of the
    reduced word, where tr(e) is 0, 1 or -1 as e mod 3 is 0, 1 or 2."""
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


class _Spellings(dict):
    # syllable (generator, exponent) -> its text, spelled on first lookup
    def __missing__(self, syllable: tuple[int, int]) -> str:
        gen, exp = syllable
        text = self[syllable] = f"x{gen}" if exp == 1 else f"x{gen}^{exp}"
        return text


def _format_words(words: Iterable[FreeWord]) -> list[str]:
    """The text of each word, with each distinct syllable spelled once for
    all of them: one dict lookup per syllable, in C, and one join per word."""
    spell = _Spellings().__getitem__
    return [" ".join(map(spell, zip(w.gens.tolist(), w.exps.tolist()))) or "1" for w in words]


def format_free_word(w: FreeWord) -> str:
    return _format_words((w,))[0]


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
    # in it; every index read is checked against the rank, if one is given,
    # whatever its exponent and whether or not it cancels.  Commutator
    # arguments are atoms themselves, so "[[x,y],x]" nests
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


def _atoms(text: str) -> list[str]:
    # the runs of space-separated tokens at bracket depth 0; the tokens of
    # a commutator atom are rejoined with the spaces they had
    if "[" not in text and "]" not in text:
        return list(filter(None, text.split(" ")))
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
    return atoms


def _parse_words(texts: Sequence[str], rank: int | None, least: int = 1) -> tuple[int, list[FreeWord]]:
    """The words of stripped texts in the syllable format, in order, and
    their rank: ``rank`` if given, else the largest generator index written
    in any of the texts, and at least ``least``.

    The texts are read in order, each split into atoms and its new atoms
    parsed in order of first occurrence, so the first fault in the texts
    is the one raised; a rank past 2**63 - 1 is refused after them.  Each
    distinct atom is parsed once for all the texts (``_parse_atom``).  A
    text costs one C-level split, a Python step per token only if it holds
    a bracket, and a Python step per distinct atom; its atoms' syllables
    are gathered by C-level passes.  All the syllables are then read into
    one pair of arrays by one ``np.fromiter`` and every word is reduced at
    once by ``_words_of_runs``, keyed by its text, so Python takes no step
    per syllable and the fixed cost of the arrays is paid once.
    """
    # the syllables of each distinct atom, parsed once for all the texts
    parsed: dict[str, tuple[tuple[int, int], ...]] = {}
    pairs: list[tuple[int, int]] = []
    counts: list[int] = []  # syllables per text
    top = least
    for text in texts:
        atoms = _atoms(text)
        for atom in dict.fromkeys(atoms):
            if atom not in parsed:
                parsed[atom], index = _parse_atom(atom, rank)
                top = max(top, index)
        start = len(pairs)
        pairs += chain.from_iterable(map(parsed.__getitem__, atoms))
        counts.append(len(pairs) - start)
    rank = rank or top
    # refuses a rank past 2**63 - 1 before any array is built
    one = FreeWord.identity(rank)
    if not pairs:
        return rank, [one] * len(texts)
    try:
        flat = np.fromiter(chain.from_iterable(pairs), np.int64, 2 * len(pairs))
    except OverflowError:
        flat = np.fromiter(chain.from_iterable(pairs), object, 2 * len(pairs))
    gens, exps = flat[0::2], flat[1::2]
    # the run sums are exact in int64 while every exponent is below 2**31
    if not (-_SMALL_EXP < _min(exps) and _max(exps) < _SMALL_EXP):
        exps = exps.astype(object)
    keys = np.repeat(np.arange(len(texts), dtype=np.min_scalar_type(len(texts) - 1)), counts)
    return rank, _words_of_runs(rank, len(texts), keys, gens, exps)


def parse_free_word(text: str, rank: int | None = None) -> FreeWord:
    """Parse the syllable text format; "1" is the identity.

    Accepts x/y as aliases for x1/x2 and "[u,v]" commutator atoms, e.g.
    "[x,y] x1^2".  The rank defaults to the largest generator index written
    in the text.  A given rank bounds every index written, whatever its
    exponent and inside commutators too, even where it cancels.  Every
    atom, plain or commutator, goes through one routine that parses and
    range-checks it.  The one-text case of the parse of a wreath element's
    coordinates (``_parse_words``): linear in the text, one C-level split
    over it, one parse per distinct atom, one ``np.fromiter`` of all the
    syllables and one array reduction, so Python takes no step per
    syllable, and no step per token unless the text holds a bracket.
    """
    return _parse_words((text.strip(),), rank)[1][0]
