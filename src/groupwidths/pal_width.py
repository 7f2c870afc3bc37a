"""Exact palindromic length and width for finite groups, both notions.

A word palindrome is a word equal to its own letter reversal; an element
is a word palindrome if some representative word is one.  An element is a
group palindrome if some representative word's reversal evaluates to the
same element.  Both element sets fall out of one reachability computation:
the set R of pairs (value of w, value of reversed w) over all words w,
which is the least set containing (1, 1) closed under (g, h) -> (g*a, a*h).
``reachable_pairs`` finds R by a frontier BFS over a flat boolean
order*order array and returns it as an (|R|, 2) int array of (g, h) rows;
the palindrome sets are gathers from the table at those rows.

Widths are then computed by product-set covering: S_0 = {1} and
S_{k+1} = S_k | S_k * P, where P is the palindrome element set.  Since
S_k = S_{k-1} | L_k for the newest layer L_k, S_{k+1} = S_k | L_k * P, so
only the newest layer is multiplied by P and each element is multiplied
out once.  Every generator is a one-letter palindrome, so P generates the
group and the covering ends with all palindromic lengths and the width.

A group built by ``direct_product`` keeps its atomic factors F_1, ..., F_k
(``FiniteGroup.factors``), and ``palindromic_width`` works from them, never
from the product's order^2 pair space.  Two facts make that exact.

*Pairs factor.*  Each letter lies in one factor, and letters of different
factors commute in the value of a word and in the value of its reversal.
So R(F_1 x ... x F_k) = R(F_1) x ... x R(F_k), and ``reachable_pairs``
runs once per factor.  The group palindromes are then the product set
P_1 x ... x P_k, and each P_i contains 1.  Hence P^m = P_1^m x ... x P_k^m
with P_i^m growing in m: an element's group length is the maximum of its
coordinates' lengths, and the group width is the maximum of the factor
widths.

*Word palindromes couple only through parity.*  Let E_i and O_i be the
values of the even- and odd-length word palindromes of F_i.  The word
palindromes of the product are exactly

    P = (E_1 x ... x E_k)  |  union over j of (E_1 x ... x O_j x ... x E_k).

Proof.  Let w be a palindrome and w_i its subword of F_i-letters.  The
reversal of w_i is the F_i-subword of the reversal of w, which is w, so
each w_i is a palindrome, and w evaluates to (w_1, ..., w_k).  Position p
and its mirror position carry the same letter, so the letters off the
centre pair up within each factor; only the centre letter of an
odd-length w is unpaired.  So at most one w_j has odd length.
Conversely, given palindromes w_i = u_i reverse(u_i) for i != j and
w_j = u_j c reverse(u_j) (or w_j even, with no c), the word
u_1 ... u_k c reverse(u_k) ... reverse(u_1) is a palindrome whose
F_i-subword is w_i for every i.  So the values are exactly the tuples
with every coordinate in E_i and at most one coordinate in O_i instead.

Covering by a product set A_1 x ... x A_k is separable: multiplying a
k-dimensional boolean layer by it is one shift per axis,
X -> {x : x_i in X_i * A_i}, a gather of F_i's table columns.  The word
covering carries two arrays, X (no odd factor used yet) and Y (one used),
and for each axis i sets Y <- Y*E_i | X*O_i, then X <- X*E_i; X | Y is
then the layer times P.  The report is the one the table path gives:
lengths keyed by the product's mixed-radix ids, layer sizes, and the
palindromes as the elements of length at most 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .finite_groups import FiniteGroup, product_layers

__all__ = [
    "ReachablePairs",
    "WidthReport",
    "reachable_pairs",
    "palindrome_elements",
    "palindromic_width",
    "NOTIONS",
]

NOTIONS = ("word", "group")


def _check_notion(notion: str) -> None:
    if notion not in NOTIONS:
        raise ValueError(f"notion must be one of {NOTIONS}, got {notion!r}")


@dataclass(eq=False)
class ReachablePairs:
    """All pairs (value of w, value of reversed w) over words w in the
    generator letters, as the rows of an (|R|, 2) int array."""

    group: FiniteGroup
    pairs: np.ndarray


def reachable_pairs(G: FiniteGroup) -> ReachablePairs:
    """BFS closure of {(1, 1)} under (g, h) -> (g*a, a*h) for generators a."""
    n = G.order
    T, gens = G.table, G.gen_ids
    seen = np.zeros(n * n, dtype=bool)
    g = h = np.array([G.identity])
    seen[G.identity * n + G.identity] = True
    while len(g):
        keys = T[g[:, None], gens].astype(np.intp) * n + T[gens[:, None], h].T
        keys = np.unique(keys[~seen[keys]])
        seen[keys] = True
        g, h = np.divmod(keys, n)
    return ReachablePairs(G, np.stack(np.divmod(np.flatnonzero(seen), n), axis=1))


def palindrome_elements(G: FiniteGroup, notion: str) -> set[int]:
    """Element set of palindromes under the given notion.

    word: values of u*reverse(u) and u*a*reverse(u) (even palindromes and
    palindromes with a center letter); group: elements g with some
    representative whose reversal also evaluates to g.
    """
    _check_notion(notion)
    pairs = reachable_pairs(G)
    if notion == "group":
        hit = _group_palindromes(pairs)
    else:
        even, odd = _word_palindromes(pairs)
        hit = even | odd
    return set(np.flatnonzero(hit).tolist())


def _group_palindromes(pairs: ReachablePairs) -> np.ndarray:
    """Mask of the g with (g, g) in R."""
    g, h = pairs.pairs.T
    hit = np.zeros(pairs.group.order, dtype=bool)
    hit[g[g == h]] = True
    return hit


def _word_palindromes(pairs: ReachablePairs) -> tuple[np.ndarray, np.ndarray]:
    """Masks of the values of u*reverse(u) and of u*a*reverse(u): the even-
    and the odd-length word palindromes."""
    G = pairs.group
    T = G.table
    g, h = pairs.pairs.T
    even = np.zeros(G.order, dtype=bool)
    even[T[g, h]] = True
    odd = np.zeros(G.order, dtype=bool)
    odd[T[T[g[:, None], G.gen_ids], h[:, None]]] = True
    return even, odd


@dataclass
class WidthReport:
    """Palindromic lengths of every element plus the width, one notion."""

    notion: str
    palindromes: set[int]
    lengths: dict[int, int]
    width: int
    layers: list[int] = field(default_factory=list)

    def to_json(self, include_lengths: bool = False) -> dict:
        out = {
            "notion": self.notion,
            "width": self.width,
            "palindrome_count": len(self.palindromes),
            "layers": list(self.layers),
        }
        if include_lengths:
            out["lengths"] = {str(g): k for g, k in sorted(self.lengths.items())}
        return out


def palindromic_width(G: FiniteGroup, notion: str) -> WidthReport:
    """Layered covering of G by products of palindromes; exact lengths.

    A group with two or more ``factors`` is covered from its factors (see
    the module docstring), so the product's own order^2 pair space is
    never allocated.  Any other group runs the pair BFS on its own table.
    """
    _check_notion(notion)
    if len(G.factors) >= 2:
        return _product_width(G, notion)
    pal = palindrome_elements(G, notion)
    return _report(notion, _lengths(product_layers(G, sorted(pal)), G.order))


def _lengths(layers: list[np.ndarray], order: int) -> np.ndarray:
    """The layer index of every element, from a covering's layers."""
    if sum(map(len, layers)) < order:
        raise AssertionError("palindrome covering stalled before exhausting the group")
    length = np.empty(order, dtype=np.intp)
    for k, layer in enumerate(layers):
        length[layer] = k
    return length


def _report(notion: str, length: np.ndarray) -> WidthReport:
    """The report of a flat length array; the palindromes are the elements
    of length at most 1 (the identity is the empty palindrome)."""
    sizes = np.cumsum(np.bincount(length)).tolist()
    pal = set(np.flatnonzero(length <= 1).tolist())
    return WidthReport(notion, pal, dict(enumerate(length.tolist())), len(sizes) - 1, sizes)


def _product_width(G: FiniteGroup, notion: str) -> WidthReport:
    """``palindromic_width`` of a direct product from its factors."""
    pairs = [reachable_pairs(F) for F in G.factors]
    if notion == "group":
        # the group length is the largest factor length: one broadcast
        # maximum per factor builds it on the k-dimensional grid
        length = np.zeros((), dtype=np.intp)
        for R in pairs:
            F = R.group
            own = _lengths(product_layers(F, np.flatnonzero(_group_palindromes(R))), F.order)
            length = np.maximum(length[..., None], own)
        return _report(notion, length.ravel())
    layers = _word_layers(G.factors, [_word_palindromes(R) for R in pairs])
    return _report(notion, _lengths(layers, G.order))


def _word_layers(
    factors: tuple[FiniteGroup, ...], masks: list[tuple[np.ndarray, np.ndarray]]
) -> list[np.ndarray]:
    """The word covering's layers as flat product ids, from each factor's
    (even, odd) palindrome masks.  Per layer, X is the layer times the
    palindromes that have used no odd factor yet, Y those that have used
    exactly one."""
    # column a^-1 of F.table maps x to x*a^-1, so gathering the columns of
    # A^-1 along axis i and reducing over them shifts X to X*A on that axis
    columns = [
        tuple(F.table[:, F.inverse[np.flatnonzero(mask)]] for mask in pair)
        for F, pair in zip(factors, masks)
    ]

    def shift(X: np.ndarray, cols: np.ndarray, axis: int) -> np.ndarray:
        return np.take(X, cols, axis=axis).any(axis=axis + 1)

    layer = np.zeros(tuple(F.order for F in factors), dtype=bool)
    layer[tuple(F.identity for F in factors)] = True
    seen = layer.copy()
    layers = []
    while layer.any():
        layers.append(np.flatnonzero(layer))
        X, Y = layer, np.zeros_like(layer)
        for axis, (even, odd) in enumerate(columns):
            Y = shift(Y, even, axis) | shift(X, odd, axis)
            X = shift(X, even, axis)
        layer = (X | Y) & ~seen
        seen |= layer
    return layers
