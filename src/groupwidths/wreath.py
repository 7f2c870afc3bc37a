"""Restricted wreath product of a free group by a finite group.

Elements are tuples of reduced free words indexed by the elements of the
finite top group, together with a top component.  The base tuple is kept
in canonical reduced form coordinate-wise, so equality is component-wise.

The top group permutes coordinates by left multiplication of the indexing
elements: acting by k sends the word at index t to index k*t (equivalently
the new index-i entry is the old entry at k^-1 * i), and the semidirect
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

import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .finite_groups import FiniteGroup, _json_int
from .free_words import (
    FreeWord,
    MonoidWord,
    _push_syllable,
    format_free_word,
    parse_free_word,
    ql,
)

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
    """F_rank wreath a finite top group; coordinate 0 is indexed by the
    top identity, the rest by ascending element id."""

    rank: int
    top: FiniteGroup

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ValueError("rank must be positive")
        self.coords = [self.top.identity] + [
            g for g in self.top.elements() if g != self.top.identity
        ]
        self.coord_index = {g: i for i, g in enumerate(self.coords)}
        self.size = self.top.order
        # list views of the top table and inverse for the per-element
        # products below: a nested-list lookup takes about 25 ns, a numpy scalar
        # lookup 100-170 ns (Python 3.11, numpy 2.4, 2-vCPU Xeon VM)
        self._top_mul = self.top.table.tolist()
        self._top_inv = self.top.inverse.tolist()

    @cached_property
    def _top_flat(self) -> np.ndarray:
        """The top table flattened row-major, in the narrowest unsigned
        type that holds size*size - 1, so a*size + b indexes it without
        overflow; built on first use by ``evaluate_letters``."""
        return self.top.table.ravel().astype(np.min_scalar_type(self.size**2 - 1))

    @cached_property
    def _coord_of(self) -> np.ndarray:
        """Coordinate index of each top element id, in the narrowest
        unsigned type (a stable sort of such keys is a radix sort); built
        on first use by ``evaluate_letters``."""
        coords = [self.coord_index[g] for g in self.top.elements()]
        return np.array(coords, np.min_scalar_type(self.size - 1))

    def identity(self) -> "WreathElement":
        one = FreeWord.identity(self.rank)
        return WreathElement(self, (one,) * self.size, self.top.identity)

    def from_base_word(self, word: FreeWord, coord: int = 0) -> "WreathElement":
        """Embed a free word at the given coordinate (default: identity)."""
        if word.rank != self.rank:
            raise ValueError("free-word rank does not match the wreath group")
        one = FreeWord.identity(self.rank)
        base = tuple(word if i == coord else one for i in range(self.size))
        return WreathElement(self, base, self.top.identity)

    def from_top(self, k: int) -> "WreathElement":
        one = FreeWord.identity(self.rank)
        return WreathElement(self, (one,) * self.size, k)


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


def _same_group(g: WreathElement, h: WreathElement) -> WreathGroup:
    if g.group is not h.group:
        raise ValueError("elements belong to different wreath groups")
    return g.group


def base_action(W: WreathGroup, base: tuple[FreeWord, ...], k: int) -> tuple[FreeWord, ...]:
    """Permute coordinates by k: new index-i entry is the old entry at
    k^-1 * coords[i]."""
    row = W._top_mul[W._top_inv[k]]
    return tuple(base[W.coord_index[row[t]]] for t in W.coords)


def w_multiply(g: WreathElement, h: WreathElement) -> WreathElement:
    W = _same_group(g, h)
    moved = base_action(W, h.base, g.top)
    base = tuple(a * b for a, b in zip(g.base, moved))
    return WreathElement(W, base, W._top_mul[g.top][h.top])


def w_invert(g: WreathElement) -> WreathElement:
    W = g.group
    kinv = W._top_inv[g.top]
    inverted = tuple(w.inverse() for w in g.base)
    return WreathElement(W, base_action(W, inverted, kinv), kinv)


def w_commutator(g: WreathElement, h: WreathElement) -> WreathElement:
    return w_multiply(w_multiply(w_invert(g), w_invert(h)), w_multiply(g, h))


def delta(g: WreathElement) -> int:
    """Sum of quasi-lengths over the base coordinates."""
    return sum(ql(w) for w in g.base)


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
    sum is zero and the top lies in [K, K].
    """
    sums: dict[int, int] = {}
    for w in g.base:
        for gen, exp in w.syllables:
            sums[gen] = sums.get(gen, 0) + exp
    return not any(sums.values()) and g.top in g.group.top.derived_subgroup


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

    Python takes no step per letter.  Coding the letters is one C-level
    ``bytes(map(...))`` pass over a dict per byte of the code (a single
    pass for alphabets of up to 255 letters; the code array is the
    narrowest unsigned type that holds the alphabet).  The running top is
    the inclusive prefix product of the letters' top values, base letters
    being the identity: a pairwise scan of O(len) table lookups in
    O(log len) numpy calls.  The base letters are stably sorted by
    coordinate and summed per run of one generator within one coordinate
    (``np.add.reduceat``); only the runs reach Python, and only those of
    a coordinate with a run that sums to zero go through the reduction
    stack.  A word of L letters with r runs costs O(L) numpy work and at
    most O(r) Python steps.
    """
    n = W.size
    for letter, (gen, exp) in base_letters.items():
        if _json_int(gen, f"generator of base letter {letter!r}") not in range(1, W.rank + 1):
            raise ValueError(
                f"generator of base letter {letter!r} is {gen}, out of range 1..{W.rank}"
            )
        # below 2**31, the int64 run sums cannot overflow on a word that fits in memory
        if not 0 < abs(_json_int(exp, f"exponent of base letter {letter!r}")) < 2**31:
            raise ValueError(
                f"exponent of base letter {letter!r} is {exp}; it must be nonzero "
                "and below 2**31 in absolute value"
            )
    for letter, k in top_letters.items():
        if _json_int(k, f"top element of letter {letter!r}") not in range(n):
            raise ValueError(f"top element of letter {letter!r} is {k}, out of range 0..{n - 1}")

    # codes: base letters first, so a letter is a base letter iff its code < nb
    nb = len(base_letters)
    alphabet = list(base_letters) + [a for a in top_letters if a not in base_letters]
    dtype = np.min_scalar_type(len(alphabet))
    codes = np.zeros(len(word), dtype)
    try:
        for shift in range(0, 8 * dtype.itemsize, 8):
            digit = {a: i >> shift & 255 for i, a in enumerate(alphabet)}
            plane = np.frombuffer(bytes(map(digit.__getitem__, word.letters)), np.uint8)
            codes |= plane.astype(dtype) << shift
    except KeyError as exc:
        raise ValueError(
            f"letter {exc.args[0]!r} is neither a base nor a top generator"
        ) from None

    flat = W._top_flat
    top_of_code = np.full(len(alphabet), W.top.identity, flat.dtype)
    top_of_code[nb:] = [top_letters[a] for a in alphabet[nb:]]
    running = _prefix_products(flat, n, top_of_code.take(codes))
    top = int(running[-1]) if len(running) else W.top.identity

    base = [FreeWord.identity(W.rank)] * n
    at = np.flatnonzero(codes < nb)
    if len(at):
        # a base letter sits at the coordinate of the running top before
        # it, which is the running top at it, since it is the identity
        coords = W._coord_of.take(running[at])
        order = np.argsort(coords, kind="stable")
        coords, codes = coords[order], codes[at[order]]
        gens = np.array([g for g, _ in base_letters.values()], np.intp).take(codes)
        exps = np.array([e for _, e in base_letters.values()], np.int64).take(codes)
        starts = np.flatnonzero(
            np.concatenate(([True], (coords[1:] != coords[:-1]) | (gens[1:] != gens[:-1])))
        )
        bounds = np.searchsorted(coords[starts], np.arange(n + 1)).tolist()
        run_gens = gens[starts].tolist()
        run_exps = np.add.reduceat(exps, starts).tolist()
        for c in range(n):
            lo, hi = bounds[c], bounds[c + 1]
            if lo < hi:
                base[c] = FreeWord(W.rank, _reduce_runs(run_gens[lo:hi], run_exps[lo:hi]))
    return WreathElement(W, tuple(base), top)


def _reduce_runs(gens: list[int], exps: list[int]) -> tuple[tuple[int, int], ...]:
    """Reduced syllables of one coordinate's runs, whose neighbours are on
    distinct generators: the runs themselves when none sums to zero, else
    what the reduction stack leaves of them."""
    if 0 not in exps:
        return tuple(zip(gens, exps))
    stack: list[list[int]] = []
    for gen, exp in zip(gens, exps):
        _push_syllable(stack, gen, exp)
    return tuple(map(tuple, stack))


# ---------------------------------------------------------------------------
# text format: "[w1; w2; ...; wl] k" with wi in the free-word format and
# k a '*'-joined product of top generator labels ('1' for the identity)
# ---------------------------------------------------------------------------


def format_wreath_element(g: WreathElement) -> str:
    body = "; ".join(format_free_word(w) for w in g.base)
    return f"[{body}] {g.group.top.shortest_label_word(g.top)}"


_BRACKET_RE = re.compile(r"[\[\]]")


def parse_wreath_element(W: WreathGroup, text: str) -> WreathElement:
    """Parse "[w1; ...; wl] k" as written by ``format_wreath_element``.

    Runs in time linear in the text: the closing bracket is found by a
    regex scan that hands Python only the bracket positions, and each
    coordinate costs one ``parse_free_word``.
    """
    text = text.strip()
    if not text.startswith("["):
        raise ValueError("wreath element text must start with '['")
    depth = 0
    close = -1
    for m in _BRACKET_RE.finditer(text):
        if m.group() == "[":
            depth += 1
        else:
            depth -= 1
            if depth == 0:
                close = m.start()
                break
    if close < 0:
        raise ValueError("unbalanced brackets in wreath element text")
    parts = text[1:close].split(";")
    if len(parts) != W.size:
        raise ValueError(f"expected {W.size} base coordinates, got {len(parts)}")
    base = tuple(parse_free_word(p.strip(), rank=W.rank) for p in parts)
    top = W.top.element_from_label_word(text[close + 1 :])
    return WreathElement(W, base, top)
