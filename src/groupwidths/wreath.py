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

from .finite_groups import FiniteGroup, commutator_subgroup
from .free_words import FreeWord, MonoidWord, format_free_word, parse_free_word, ql

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
        # list views of the top table and inverse for the per-letter folds
        # below: a nested-list lookup takes about 25 ns, a numpy scalar
        # lookup 100-170 ns (Python 3.11, numpy 2.4, 2-vCPU Xeon VM)
        self._top_mul = self.top.table.tolist()
        self._top_inv = self.top.inverse.tolist()

    @cached_property
    def derived_top(self) -> frozenset[int]:
        """The derived subgroup [K, K] of the top group, computed on first use."""
        return frozenset(commutator_subgroup(self.top))

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
    sums = [0] * (max(w.rank for w in g.base) + 1)
    for w in g.base:
        for gen, exp in w.syllables:
            sums[gen] += exp
    return not any(sums) and g.top in g.group.derived_top


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


def evaluate_letters(
    W: WreathGroup,
    word: MonoidWord,
    base_letters: dict[str, tuple[int, int]],
    top_letters: dict[str, int],
) -> WreathElement:
    """Evaluate a letter word into the wreath group.

    ``base_letters`` maps a letter to (generator index, exponent) placed at
    the coordinate of the running top value; ``top_letters`` maps a letter
    to a top-group element.  Runs in time linear in the word length.
    """
    stacks: list[list[list[int]]] = [[] for _ in range(W.size)]
    top = W.top.identity
    for letter in word.letters:
        if letter in base_letters:
            gen, exp = base_letters[letter]
            stack = stacks[W.coord_index[top]]
            if stack and stack[-1][0] == gen:
                stack[-1][1] += exp
                if stack[-1][1] == 0:
                    stack.pop()
            else:
                stack.append([gen, exp])
        elif letter in top_letters:
            top = W._top_mul[top][top_letters[letter]]
        else:
            raise ValueError(f"letter {letter!r} is neither a base nor a top generator")
    base = tuple(FreeWord(W.rank, tuple((g, e) for g, e in s)) for s in stacks)
    return WreathElement(W, base, top)


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
