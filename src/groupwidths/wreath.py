"""Restricted wreath product of a free group by a finite group.

An element is a tuple of reduced free words, one per base coordinate,
together with a top component.  A coordinate is a top element id: ``base[g]``
is the word at element g, wherever the top's table puts its identity; only
the text format lists the identity coordinate first.  Words are kept
reduced, so equality is component-wise.

The top group permutes coordinates by left multiplication: acting by k
sends the word at coordinate t to coordinate k*t (equivalently the new
coordinate-i entry is the old entry at k^-1 * i), and the semidirect
product multiplies as (p, k)(p', k') = (p * (p' acted on by k), k*k').
This is the unique convention under which the product is associative and
conjugating an identity-coordinate word by an embedded top element k moves
it to coordinate k.

delta sums the quasi-length ql over the base coordinates.  It changes by
a bounded amount under multiplication, which caps |delta| on products of
m commutators at 3*l*(6m-1) (l the top order) and so certifies commutator
length lower bounds that grow without bound along the q_j sequence.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .finite_groups import FiniteGroup
from .free_words import (
    _SMALL_EXP,
    FreeWord,
    MonoidWord,
    _format_words,
    _join,
    _parse_words,
    _tr_sum,
    _words_of_runs,
)
from .specs import _json_int

__all__ = [
    "WreathGroup",
    "WreathElement",
    "CommutatorCertificate",
    "w_multiply",
    "base_action",
    "delta",
    "q_sequence",
    "in_derived_subgroup",
    "commutator_length_bound",
    "certify_cw_lower_bound",
    "evaluate_letters",
    "evaluate_words",
    "parse_wreath_element",
    "format_wreath_element",
]


@dataclass(eq=False)
class WreathGroup:
    """F_rank wreath a finite top group, read from the top's own table.  A
    base coordinate is a top element id; the text lists the identity's
    coordinate first, then the others by ascending id."""

    rank: int
    top: FiniteGroup
    size: int = field(init=False)

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ValueError("rank must be positive")
        self.size = self.top.order

    def identity(self) -> "WreathElement":
        return self.from_top(self.top.identity)

    def from_base_word(self, word: FreeWord, coord: int | None = None) -> "WreathElement":
        """Embed a free word at the coordinate of top element ``coord``
        (default: the top identity)."""
        coord = self.top.identity if coord is None else self._top_id(coord, "coordinate")
        one = FreeWord.identity(self.rank)
        base = tuple(word if i == coord else one for i in range(self.size))
        return WreathElement(self, base, self.top.identity)

    def from_top(self, k: int) -> "WreathElement":
        one = FreeWord.identity(self.rank)
        return WreathElement(self, (one,) * self.size, k)

    def _top_id(self, k: int, what: str) -> int:
        # a top element id, which a coordinate also is
        if k not in range(self.size):
            raise ValueError(f"{what} {k} is out of range 0..{self.size - 1}")
        return k


@dataclass(frozen=True, eq=False)
class WreathElement:
    """A base of ``group.size`` free words of the group's rank, one per
    coordinate, and a top element id; construction refuses any other."""

    group: WreathGroup
    base: tuple[FreeWord, ...]
    top: int

    def __post_init__(self) -> None:
        W = self.group
        if len(self.base) != W.size:
            raise ValueError(f"the base holds {len(self.base)} words, not {W.size}")
        for c, w in enumerate(self.base):
            if w.rank != W.rank:
                raise ValueError(f"the word at coordinate {c} has rank {w.rank}, not {W.rank}")
        W._top_id(self.top, "top element")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WreathElement):
            return NotImplemented
        return self.group is other.group and self.top == other.top and self.base == other.base

    def is_identity(self) -> bool:
        return self.top == self.group.top.identity and all(w.is_identity() for w in self.base)


def base_action(W: WreathGroup, base: tuple[FreeWord, ...], k: int) -> tuple[FreeWord, ...]:
    """Permute coordinates by k: the new coordinate-i entry is the old
    entry at k^-1 * i."""
    row = W.top.table[W.top.inverse[k]].tolist()
    return tuple(base[j] for j in row)


def w_multiply(g: WreathElement, h: WreathElement) -> WreathElement:
    W = g.group
    if h.group is not W:
        raise ValueError("elements belong to different wreath groups")
    moved = base_action(W, h.base, g.top)
    base = tuple(a * b for a, b in zip(g.base, moved))
    return WreathElement(W, base, int(W.top.table[g.top, h.top]))


def delta(g: WreathElement) -> int:
    """Sum of quasi-lengths over the base coordinates: the sum of tr over
    the exponents of every coordinate's syllables, in one array."""
    return _tr_sum(np.concatenate([w.exps for w in g.base]))


def q_sequence(W: WreathGroup, j: int) -> WreathElement:
    """The j-th witness element: the word x2^-3j x1^-3j (x2 x1)^3j at the
    identity coordinate.  Its exponent sums vanish, so it lies in the
    derived subgroup, while delta equals 6j."""
    if W.rank < 2:
        raise ValueError("witness sequence requires free rank >= 2")
    if j < 1:
        raise ValueError("j must be positive")
    syllables = [(2, -3 * j), (1, -3 * j)] + [(2, 1), (1, 1)] * (3 * j)
    word = FreeWord(W.rank, tuple(syllables))
    assert word.exponent_sum(1) == 0 and word.exponent_sum(2) == 0
    return W.from_base_word(word)


def in_derived_subgroup(g: WreathElement) -> bool:
    """True iff g is a product of commutators.

    The abelianization of F_n wr K is Z^n x K^ab: the image of g is its
    exponent sum per generator over all coordinates together with the
    class of its top, so g is in the derived subgroup iff every exponent
    sum is zero and the top lies in [K, K].  The sums are taken over one
    concatenation of the coordinates' syllables, sorted by generator.
    """
    gens = np.concatenate([w.gens for w in g.base])
    if len(gens):
        exps = np.concatenate([w.exps for w in g.base])
        order = gens.argsort()
        gens = gens[order]
        starts = np.flatnonzero(np.concatenate(([True], gens[1:] != gens[:-1])))
        if np.add.reduceat(exps[order], starts).any():
            return False
    return g.top in g.group.top.derived_subgroup


@dataclass(frozen=True)
class CommutatorCertificate:
    """Certified lower bound: any expression of the element, which lies in
    the derived subgroup, as a product of commutators needs at least
    ``lower_bound`` of them."""

    element: WreathElement
    delta: int
    lower_bound: int


def commutator_length_bound(d: int, l: int) -> int | None:
    """Least m with |d| <= 3*l*(6m-1), for top order l: a product of fewer
    than m commutators would violate the delta bound.  None when m would
    be 1 (no information)."""
    m = -(-(abs(d) + 3 * l) // (18 * l))
    return m if m > 1 else None


def certify_cw_lower_bound(g: WreathElement) -> CommutatorCertificate | None:
    """Commutator-length lower bound from delta(g); None when the bound
    carries no information or g is not in the derived subgroup (it is no
    product of commutators at all).  Membership, which sorts every
    syllable of g, is tested only once the bound is known to say
    something."""
    d = delta(g)
    m = commutator_length_bound(d, g.group.size)
    return None if m is None or not in_derived_subgroup(g) else CommutatorCertificate(g, d, m)


def _prefix_products(flat: np.ndarray, n: int, x: np.ndarray) -> np.ndarray:
    """Inclusive prefix products x[0] x[1] ... x[i] in a group of order n
    whose table, flattened row-major, is ``flat``; a*n + b must fit the
    dtype of x.  Work-efficient pairwise scan (Blelloch 1990): multiply
    neighbouring pairs, scan the pairs, then fill the even positions.
    O(len) table lookups in O(log len) numpy calls."""
    if len(x) < 2:
        return x
    out = np.empty_like(x)
    out[0] = x[0]
    out[1::2] = _prefix_products(flat, n, flat.take(x[:-1:2] * n + x[1::2]))
    out[2::2] = flat.take(out[1:-1:2] * n + x[2::2])
    return out


def evaluate_words(
    W: WreathGroup,
    words: Sequence[MonoidWord],
    base_letters: dict[str, tuple[int, int]],
    top_letters: dict[str, int],
) -> tuple[list[WreathElement], WreathElement]:
    """Evaluate each of a list of letter words into the wreath group, and
    the words joined end to end: (the values in order, their product).

    ``base_letters`` maps a letter to (generator index, exponent) placed at
    the coordinate of the running top value; ``top_letters`` maps a letter
    to a top-group element.  A letter in both maps is a base letter.  Every
    map entry is checked up front (base letter a string, generator in
    1..rank, nonzero exponent below 2**31 in absolute value, top element in
    range): a bad entry is a ``ValueError`` even when its letters would
    cancel, or there are no words.

    Python takes no step per letter or per letter run.  The words are
    joined end to end into one code array over an alphabet that starts
    with the base letters (``_join``), so a letter is a base letter iff its
    code is below the number of base letters, and the other labels are
    translated once each into per-code top values.  A label in neither map
    is a ``ValueError`` naming its first letter in the list.  The running
    top is the inclusive prefix product of the top letters alone: one
    pairwise scan of O(T) table lookups in O(log T) numpy calls over the T
    top letters, after a leading identity.  The top value before position
    p is scan[p - b], b being the number of base letters before p; a
    word's own running top is inv(q) times it, q being the value before
    the word.
    The base letters fall into r letter runs, maximal stretches of one
    base letter within one word, each at one coordinate, and a run carries
    its exponent times its length in int64.  A run's coordinate in the
    product is the scan at its first letter, and in its own word it is
    inv(q) times that: one table lookup per run.  The values come from one
    stable sort of the runs by key, word * n + coordinate, in the narrowest
    unsigned type that holds S * n - 1 for S words in a top of order n; the
    product comes from a second stable sort of the same runs by their
    coordinate in the product, where a word's last run and the next word's
    first run merge if they share a generator and a coordinate.  Both sorts
    end in the same merge and reduction (``_words_of_runs``).  For one word
    the second sort is skipped: the product is that word's value.  S words
    of L letters in all, T of them top letters, over alphabets of A labels,
    with p nonempty (word, coordinate) pairs, r letter runs and z zero sums
    setting off c cancellations in both sorts together, cost O(L) numpy
    work in O(log T) calls, a scan over T letters, two sorts over r keys
    (one for one word), and O(A + S + p + z + c) Python steps, besides the
    (S + 1) * n coordinates of the results.
    """
    n = W.size
    for letter, (gen, exp) in base_letters.items():
        # the base letters head the joined alphabet, whose labels are strings
        if not isinstance(letter, str):
            raise ValueError(f"base letter {letter!r} is not a string")
        if _json_int(gen, f"generator of base letter {letter!r}") not in range(1, W.rank + 1):
            raise ValueError(
                f"generator of base letter {letter!r} is {gen}, out of range 1..{W.rank}"
            )
        # below _SMALL_EXP (2**31), the bound of FreeWord's int64 exponents,
        # the int64 run sums cannot overflow on a word that fits in memory
        if not 0 < abs(_json_int(exp, f"exponent of base letter {letter!r}")) < _SMALL_EXP:
            raise ValueError(
                f"exponent of base letter {letter!r} is {exp}; it must be nonzero "
                "and below 2**31 in absolute value"
            )
    for letter, k in top_letters.items():
        if _json_int(k, f"top element of letter {letter!r}") not in range(n):
            raise ValueError(f"top element of letter {letter!r} is {k}, out of range 0..{n - 1}")
    if not words:
        return [], W.identity()

    # the top table flattened row-major, in the narrowest unsigned type that
    # holds n*n - 1, so a*n + b indexes it without overflow
    flat = W.top.table.ravel().astype(np.min_scalar_type(n * n - 1))
    inv = W.top.inverse.astype(flat.dtype)
    # the words over one alphabet that starts with the base letters, so a
    # letter is a base letter iff its code is below nb; the other labels
    # are translated once into per-code top values
    nb = len(base_letters)
    joined = _join(words, tuple(base_letters))
    alphabet, codes = joined.alphabet, joined.codes
    top_of_code = [W.top.identity] * len(alphabet)
    unknown = []
    for i, a in enumerate(alphabet[nb:], nb):
        if a in top_letters:
            top_of_code[i] = top_letters[a]
        else:
            unknown.append(i)
    if unknown:
        hits = np.flatnonzero(np.isin(codes, unknown))
        if len(hits):
            raise ValueError(
                f"letter {alphabet[codes[hits[0]]]!r} is neither a base nor a top generator"
            )

    # the scan of the top letters after a leading identity: scan[j] is the
    # product of the first j top letters of the joined words
    is_base = codes < nb
    top_codes = np.compress(~is_base, codes)
    x = np.empty(len(top_codes) + 1, flat.dtype)
    x[0] = W.top.identity
    # the codes lie in the alphabet, so clipping never acts; it spares the
    # buffered copy that the default mode makes of ``out``
    np.array(top_of_code, flat.dtype).take(top_codes, out=x[1:], mode="clip")
    scan = _prefix_products(flat, n, x)
    # the top value before position p is the scan at the number of top
    # letters before p, which is p less the base letters before p; word w
    # starts at offsets[w], after firsts[w] base letters
    at = np.flatnonzero(is_base)
    offsets = np.cumsum([0] + [len(w) for w in words])
    firsts = np.searchsorted(at, offsets)
    at_bounds = scan.take(offsets - firsts)
    # each word's own top, from the scan at its ends
    before = inv.take(at_bounds[:-1])
    tops = flat.take(before * n + at_bounds[1:]).tolist()

    S = len(words)
    trivial = (FreeWord.identity(W.rank),) * n
    bases, product_base = [trivial] * S, trivial
    if len(at):
        # the letter runs: maximal stretches of adjacent base letters of one
        # code within one word, each at one coordinate
        base_codes = codes.take(at)
        is_first = np.empty(len(at), bool)
        is_first[0] = True
        np.not_equal(base_codes[1:], base_codes[:-1], out=is_first[1:])
        is_first[1:] |= np.diff(at) != 1
        is_first[firsts[firsts < len(at)]] = True
        run_at = np.flatnonzero(is_first)
        # per run its generator, in the narrowest type that holds the rank,
        # and its exponent times its length in int64
        run_codes = base_codes.take(run_at)
        gen_of_code, exp_of_code = zip(*base_letters.values())
        gens = np.array(gen_of_code, np.min_scalar_type(W.rank)).take(run_codes)
        exps = np.array(exp_of_code, np.int64).take(run_codes) * np.diff(run_at, append=len(at))
        # a run sits at the coordinate of the list's running top before it,
        # the scan at its first letter; in its word, inv(before) times that
        coords = scan.take(at.take(run_at) - run_at)
        key_type = np.min_scalar_type(S * n - 1)
        words_of = np.repeat(np.arange(S, dtype=key_type), np.diff(np.searchsorted(run_at, firsts)))
        keys = flat.take(before.take(words_of) * n + coords).astype(key_type) + words_of * n
        by_key = _words_of_runs(W.rank, S * n, keys, gens, exps)
        bases = [by_key[i : i + n] for i in range(0, S * n, n)]
        # one word's value is the product
        product_base = _words_of_runs(W.rank, n, coords, gens, exps) if S > 1 else bases[0]
    values = [WreathElement(W, tuple(base), top) for base, top in zip(bases, tops)]
    return values, WreathElement(W, tuple(product_base), int(scan[-1]))


def evaluate_letters(
    W: WreathGroup,
    word: MonoidWord,
    base_letters: dict[str, tuple[int, int]],
    top_letters: dict[str, int],
) -> WreathElement:
    """Evaluate one letter word into the wreath group: the one-word case of
    ``evaluate_words``, with its maps, checks and costs."""
    return evaluate_words(W, (word,), base_letters, top_letters)[1]


# ---------------------------------------------------------------------------
# text format: "[w1; w2; ...; wl] k" with wi in the free-word format and
# k a '*'-joined product of top generator labels ('1' for the identity)
# ---------------------------------------------------------------------------


def format_wreath_element(g: WreathElement) -> str:
    """The text "[w1; ...; wl] k": the identity's coordinate first, then
    the others by ascending id, each distinct syllable spelled once for
    the whole element."""
    K, base = g.group.top, g.base
    e = K.identity
    body = "; ".join(_format_words(base[e : e + 1] + base[:e] + base[e + 1 :]))
    return f"[{body}] {K.shortest_label_word(g.top)}"


def parse_wreath_element(group: WreathGroup | FiniteGroup, text: str) -> WreathElement:
    """Parse "[w1; ...; wl] k" as written by ``format_wreath_element``.

    Given a wreath group, its rank bounds every generator index written.
    Given its top group K, the element lies in F_n wr K, n the largest
    index written in the coordinates and at least 2; a top label never
    counts.  The coordinates end at the last ']', since no top label holds
    one.  All of them are parsed in one pass (``free_words._parse_words``),
    which names the first fault in text order: linear in the text, one
    parse per distinct atom of the element, one ``np.fromiter`` of all its
    syllables and one array reduction of all its coordinates, so the cost
    per coordinate is a split, a few list operations and one ``FreeWord``.
    """
    if isinstance(group, WreathGroup):
        W, K, rank = group, group.top, group.rank
    else:
        W, K, rank = None, group, None
    body, _, top_text = text.strip().rpartition("]")
    if not body.startswith("["):  # also when there is no ']'
        raise ValueError("wreath element text must be '[w1; ...; wl] k'")
    parts = body[1:].split(";")
    if len(parts) != K.order:
        raise ValueError(f"expected {K.order} base coordinates, got {len(parts)}")
    rank, words = _parse_words([p.strip() for p in parts], rank, least=2)
    # the text lists the identity's coordinate first
    e = K.identity
    base = tuple(words[1 : e + 1] + words[:1] + words[e + 1 :])
    return WreathElement(W or WreathGroup(rank, K), base, K.element_from_label_word(top_text))
