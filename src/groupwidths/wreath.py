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

from dataclasses import dataclass, field

import numpy as np

from .finite_groups import FiniteGroup
from .free_words import (
    FreeWord,
    MonoidWord,
    _reduce_runs,
    _tr_sum,
    format_free_word,
    parse_free_word,
)
from .specs import _json_int

__all__ = [
    "WreathGroup",
    "WreathElement",
    "CommutatorCertificate",
    "w_multiply",
    "w_invert",
    "w_commutator",
    "base_action",
    "delta",
    "q_sequence",
    "in_derived_subgroup",
    "commutator_length_bound",
    "certify_cw_lower_bound",
    "evaluate_letters",
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
        if word.rank != self.rank:
            raise ValueError("free-word rank does not match the wreath group")
        coord = self.top.identity if coord is None else self._top_id(coord, "coordinate")
        one = FreeWord.identity(self.rank)
        base = tuple(word if i == coord else one for i in range(self.size))
        return WreathElement(self, base, self.top.identity)

    def from_top(self, k: int) -> "WreathElement":
        one = FreeWord.identity(self.rank)
        return WreathElement(self, (one,) * self.size, self._top_id(k, "top element"))

    def _top_id(self, k: int, what: str) -> int:
        # a top element id, which a coordinate also is
        if k not in range(self.size):
            raise ValueError(f"{what} {k} is out of range 0..{self.size - 1}")
        return k


@dataclass(frozen=True, eq=False)
class WreathElement:
    group: WreathGroup
    base: tuple[FreeWord, ...]
    top: int

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


def w_invert(g: WreathElement) -> WreathElement:
    W = g.group
    kinv = int(W.top.inverse[g.top])
    inverted = tuple(w.inverse() for w in g.base)
    return WreathElement(W, base_action(W, inverted, kinv), kinv)


def w_commutator(g: WreathElement, h: WreathElement) -> WreathElement:
    return w_multiply(w_multiply(w_invert(g), w_invert(h)), w_multiply(g, h))


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
    """Commutator-length lower bound from delta(g); None when g is not in
    the derived subgroup (it is no product of commutators at all) or the
    bound carries no information."""
    if not in_derived_subgroup(g):
        return None
    d = delta(g)
    m = commutator_length_bound(d, g.group.size)
    return None if m is None else CommutatorCertificate(g, d, m)


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


def evaluate_letters(
    W: WreathGroup,
    word: MonoidWord,
    base_letters: dict[str, tuple[int, int]],
    top_letters: dict[str, int],
) -> WreathElement:
    """Evaluate a letter word into the wreath group.

    ``base_letters`` maps a letter to (generator index, exponent) placed at
    the coordinate of the running top value; ``top_letters`` maps a letter
    to a top-group element.  A letter in both maps is a base letter.  Every
    map entry is checked up front (generator in 1..rank, nonzero exponent
    below 2**31 in absolute value, top element in range): a bad entry is a
    ``ValueError`` even when its letters would cancel.

    Python takes no step per letter.  The word is a code array over its
    own alphabet, so the maps are translated once per alphabet label into
    per-code arrays (top value, base flag, generator, exponent), and one
    ``take`` per array reads them per letter.  A label in neither map is a
    ``ValueError`` only when it occurs in the word.  The running top is
    the inclusive prefix product of the letters' top values, base letters
    being the identity: a pairwise scan of O(len) table lookups in
    O(log len) numpy calls.  The base letters are stably sorted by
    coordinate and summed per run of one generator within one coordinate
    (``np.add.reduceat``); the runs stay arrays.  A coordinate with no
    zero run is its slice of the runs; otherwise the stretches between
    zero runs are joined, and the reduction takes Python steps only at a
    zero run and at each cancellation it sets off (``_reduce_runs``).
    Each coordinate's word is then checked by ``FreeWord`` with a few
    array reductions.  A word of L letters over an alphabet of A labels,
    in a top of order n, with r runs of which z sum to zero and set off c
    cancellations, costs O(L) numpy work and O(A + n + z + c) Python
    steps; no Python step is taken per run or per syllable.
    """
    n = W.size
    for letter, (gen, exp) in base_letters.items():
        if _json_int(gen, f"generator of base letter {letter!r}") not in range(1, W.rank + 1):
            raise ValueError(
                f"generator of base letter {letter!r} is {gen}, out of range 1..{W.rank}"
            )
        # below 2**31, an exponent fits int32 and the int64 run sums cannot
        # overflow on a word that fits in memory
        if not 0 < abs(_json_int(exp, f"exponent of base letter {letter!r}")) < 2**31:
            raise ValueError(
                f"exponent of base letter {letter!r} is {exp}; it must be nonzero "
                "and below 2**31 in absolute value"
            )
    for letter, k in top_letters.items():
        if _json_int(k, f"top element of letter {letter!r}") not in range(n):
            raise ValueError(f"top element of letter {letter!r} is {k}, out of range 0..{n - 1}")

    # the top table flattened row-major, in the narrowest unsigned type that
    # holds n*n - 1, so a*n + b indexes it without overflow
    flat = W.top.table.ravel().astype(np.min_scalar_type(n * n - 1))
    # per-code values over the word's alphabet, as lists: each label costs
    # a few Python steps and the arrays are built once
    alphabet = word.alphabet
    top_of_code = [W.top.identity] * len(alphabet)
    is_base = [False] * len(alphabet)
    gen_exp = [(0, 0)] * len(alphabet)
    unknown = []
    for i, a in enumerate(alphabet):
        if a in base_letters:
            is_base[i], gen_exp[i] = True, base_letters[a]
        elif a in top_letters:
            top_of_code[i] = top_letters[a]
        else:
            unknown.append(i)
    codes = word.codes
    if unknown:
        hits = np.flatnonzero(np.isin(codes, unknown))
        if len(hits):
            raise ValueError(
                f"letter {alphabet[codes[hits[0]]]!r} is neither a base nor a top generator"
            )

    running = _prefix_products(flat, n, np.array(top_of_code, flat.dtype).take(codes))
    top = int(running[-1]) if len(running) else W.top.identity

    base = [FreeWord.identity(W.rank)] * n
    at = np.flatnonzero(np.array(is_base).take(codes))
    if len(at):
        # a base letter sits at the coordinate of the running top before
        # it, which is the running top at it, since it is the identity
        at = at[np.argsort(running[at], kind="stable")]
        coords, codes = running[at], codes[at]
        # per base letter its generator, in the narrowest type that holds
        # the rank, and its exponent in int32; the run sums are int64
        gen_of_code, exp_of_code = zip(*gen_exp)
        gens = np.array(gen_of_code, np.min_scalar_type(W.rank)).take(codes)
        exps = np.array(exp_of_code, np.int32).take(codes)
        starts = np.flatnonzero(
            np.concatenate(([True], (coords[1:] != coords[:-1]) | (gens[1:] != gens[:-1])))
        )
        bounds = np.searchsorted(coords[starts], np.arange(n + 1)).tolist()
        run_gens = gens[starts].astype(np.int64)
        run_exps = np.add.reduceat(exps, starts, dtype=np.int64)
        for c in range(n):
            lo, hi = bounds[c], bounds[c + 1]
            if lo < hi:
                reduced = _reduce_runs(run_gens[lo:hi], run_exps[lo:hi])
                base[c] = FreeWord.from_arrays(W.rank, *reduced)
    return WreathElement(W, tuple(base), top)


# ---------------------------------------------------------------------------
# text format: "[w1; w2; ...; wl] k" with wi in the free-word format and
# k a '*'-joined product of top generator labels ('1' for the identity)
# ---------------------------------------------------------------------------


def _text_order(K: FiniteGroup) -> list[int]:
    """The coordinates in the order the text lists them: the identity
    first, then the other element ids ascending."""
    return [K.identity] + [g for g in K.elements() if g != K.identity]


def format_wreath_element(g: WreathElement) -> str:
    K = g.group.top
    body = "; ".join(format_free_word(g.base[c]) for c in _text_order(K))
    return f"[{body}] {K.shortest_label_word(g.top)}"


def parse_wreath_element(W: WreathGroup, text: str) -> WreathElement:
    """Parse "[w1; ...; wl] k" as written by ``format_wreath_element``.

    The coordinates end at the last ']', since no top label holds one.
    Runs in time linear in the text: each coordinate costs one
    ``parse_free_word``.
    """
    body, _, top_text = text.strip().rpartition("]")
    if not body.startswith("["):  # also when there is no ']'
        raise ValueError("wreath element text must be '[w1; ...; wl] k'")
    parts = body[1:].split(";")
    if len(parts) != W.size:
        raise ValueError(f"expected {W.size} base coordinates, got {len(parts)}")
    words = dict(zip(_text_order(W.top), (parse_free_word(p.strip(), rank=W.rank) for p in parts)))
    base = tuple(words[g] for g in W.top.elements())
    return WreathElement(W, base, W.top.element_from_label_word(top_text))
