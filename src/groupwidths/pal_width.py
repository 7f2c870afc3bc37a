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

Both entry points read a group as its atomic factors F_1, ..., F_k of
order above 1: ``FiniteGroup.factors`` for a group built by
``direct_product``, and the group itself for any other.  An order-1
factor moves no mixed-radix id, so it is dropped; the trivial group has
no factors.  Nothing is computed from a product's table or its order^2
pair space.  Two facts make that exact.

*Pairs factor.*  Each letter lies in one factor, and letters of different
factors commute in the value of a word and in the value of its reversal.
So R(F_1 x ... x F_k) = R(F_1) x ... x R(F_k), and ``reachable_pairs``
runs once per factor.  The group palindromes are then the product set
P_1 x ... x P_k, and each P_i contains 1.  Hence P^m = P_1^m x ... x P_k^m
with P_i^m growing in m: an element's group length is the maximum of its
coordinates' lengths, and the group width is the maximum of the factor
widths.  An atomic group is the one-factor case.

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
then the layer times P.  Only the word notion with two or more factors
needs this grid; every other case is covered factor by factor, as for the
group notion.  ``palindrome_elements`` builds P by outer products of the
masks, with O_i empty in the group notion.  Per-element data are
read-only arrays over the group's mixed-radix ids: a report's one length
array, and the ascending id array of the palindromes (the elements of
length at most 1), which both entry points return.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def palindrome_elements(G: FiniteGroup, notion: str) -> np.ndarray:
    """The ascending read-only id array of the palindromes, the identity
    included.  word: values of u*reverse(u) and u*a*reverse(u) (even
    palindromes and palindromes with a center letter); group: elements g
    with some representative whose reversal also evaluates to g.  Built
    from the factors' masks as (E_1 x ... x E_k) | union over j of
    (E_1 x ... x O_j x ... x E_k), by outer products."""
    # X: every coordinate so far in its E_i; Y: exactly one in its O_j instead
    X, Y = np.ones(1, dtype=bool), np.zeros(1, dtype=bool)
    for _, even, odd in _factor_masks(G, notion):
        X, Y = (X[:, None] & even).ravel(), ((Y[:, None] & even) | (X[:, None] & odd)).ravel()
    palindromes = np.flatnonzero(X | Y)
    palindromes.flags.writeable = False
    return palindromes


def _factor_masks(G: FiniteGroup, notion: str) -> list[tuple[FiniteGroup, np.ndarray, np.ndarray]]:
    """G's atomic factors of order above 1, each with its (even, odd) masks:
    the values of u*reverse(u) and of u*a*reverse(u) in the word notion;
    the g with (g, g) in R and nothing in the group notion."""
    if notion not in NOTIONS:
        raise ValueError(f"notion must be one of {NOTIONS}, got {notion!r}")
    masks = []
    for F in G.factors or (G,):
        if F.order == 1:
            continue
        g, h = reachable_pairs(F).pairs.T
        even, odd = np.zeros((2, F.order), dtype=bool)
        if notion == "group":
            even[g[g == h]] = True
        else:
            T = F.table
            even[T[g, h]] = True
            odd[T[T[g[:, None], F.gen_ids], h[:, None]]] = True
        masks.append((F, even, odd))
    return masks


class WidthReport:
    """Palindromic lengths of every element, one notion: ``length`` is the
    read-only int array indexed by element id, and construction derives the
    rest from it: ``width``, ``layers`` (the number of elements of length at
    most k, for k = 0..width) and ``palindromes`` (the ascending read-only
    ids of length at most 1).  Equal notions and lengths make equal reports."""

    def __init__(self, notion: str, length: np.ndarray) -> None:
        self.notion = notion
        # a view, so the caller's array keeps its own flags
        self.length = np.asarray(length, dtype=np.intp).view()
        self.layers: list[int] = np.cumsum(np.bincount(self.length)).tolist()
        self.width = len(self.layers) - 1
        self.palindromes = np.flatnonzero(self.length <= 1)
        self.length.flags.writeable = self.palindromes.flags.writeable = False

    def __eq__(self, other: object) -> bool:
        same = isinstance(other, WidthReport) and self.notion == other.notion
        return same and np.array_equal(self.length, other.length)

    @property
    def lengths(self) -> dict[int, int]:
        """``length`` as a dict, built on each read, for the benchmark's width
        check (``perfbench/workloads.py``), which changes only with the benchmark."""
        return dict(enumerate(self.length.tolist()))

    def to_json(self, include_lengths: bool = False) -> dict:
        out = {"notion": self.notion, "width": self.width, "layers": list(self.layers),
               "palindrome_count": len(self.palindromes)}
        if include_lengths:
            out["lengths"] = {str(g): k for g, k in enumerate(self.length.tolist())}
        return out


def palindromic_width(G: FiniteGroup, notion: str) -> WidthReport:
    """Exact lengths by layered covering: each factor by its own palindromes,
    an element's length the largest of its coordinates', except that the
    word notion with two or more factors covers the parity grid."""
    masks = _factor_masks(G, notion)
    if notion == "word" and len(masks) >= 2:
        return WidthReport(notion, _lengths(_word_layers(masks), G.order))
    # a flat outer product appends a factor's id as the lowest mixed-radix digit
    length = np.zeros(1, dtype=np.intp)
    for F, even, odd in masks:
        own = _lengths(product_layers(F, np.flatnonzero(even | odd)), F.order)
        length = np.maximum(length[:, None], own).ravel()
    return WidthReport(notion, length)


def _lengths(layers: list[np.ndarray], order: int) -> np.ndarray:
    """The layer index of every element, from a covering's layers."""
    if sum(map(len, layers)) < order:
        raise AssertionError("palindrome covering stalled before exhausting the group")
    length = np.empty(order, dtype=np.intp)
    for k, layer in enumerate(layers):
        length[layer] = k
    return length


def _word_layers(masks: list[tuple[FiniteGroup, np.ndarray, np.ndarray]]) -> list[np.ndarray]:
    """The word covering's layers as flat product ids, from each factor's
    (even, odd) palindrome masks.  Per layer, X is the layer times the
    palindromes that have used no odd factor yet, Y those that have used
    exactly one."""
    # column a^-1 of F.table maps x to x*a^-1, so gathering the columns of
    # A^-1 along axis i and reducing over them shifts X to X*A on that axis
    columns = [
        tuple(F.table[:, F.inverse[np.flatnonzero(mask)]] for mask in (even, odd))
        for F, even, odd in masks
    ]

    def shift(X: np.ndarray, cols: np.ndarray, axis: int) -> np.ndarray:
        return np.take(X, cols, axis=axis).any(axis=axis + 1)

    layer = np.zeros(tuple(F.order for F, _, _ in masks), dtype=bool)
    layer[tuple(F.identity for F, _, _ in masks)] = True
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
