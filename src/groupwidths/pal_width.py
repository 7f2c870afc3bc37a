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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .finite_groups import CapExceeded, FiniteGroup, product_layers

__all__ = [
    "ReachablePairs",
    "WidthReport",
    "reachable_pairs",
    "palindrome_elements",
    "palindromic_width",
    "DEFAULT_STATE_CAP",
    "NOTIONS",
]

DEFAULT_STATE_CAP = 4_000_000
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


def reachable_pairs(G: FiniteGroup, state_cap: int = DEFAULT_STATE_CAP) -> ReachablePairs:
    """BFS closure of {(1, 1)} under (g, h) -> (g*a, a*h) for generators a."""
    n = G.order
    if n * n > state_cap:
        raise CapExceeded(
            f"pair reachability needs order^2 = {n * n} states, cap is {state_cap}; "
            f"raise the cap to proceed"
        )
    T, gens = G.table, G.gen_ids
    seen = np.zeros(n * n, dtype=bool)
    g = h = np.array([G.identity])
    seen[G.identity * n + G.identity] = True
    while len(g):
        keys = T[np.ix_(g, gens)].astype(np.intp) * n + T[np.ix_(gens, h)].T
        keys = np.unique(keys[~seen[keys]])
        seen[keys] = True
        g, h = np.divmod(keys, n)
    return ReachablePairs(G, np.stack(np.divmod(np.flatnonzero(seen), n), axis=1))


def palindrome_elements(
    G: FiniteGroup, notion: str, pairs: ReachablePairs | None = None
) -> set[int]:
    """Element set of palindromes under the given notion.

    word: values of u*reverse(u) and u*a*reverse(u) (even palindromes and
    palindromes with a center letter); group: elements g with some
    representative whose reversal also evaluates to g.
    """
    _check_notion(notion)
    if pairs is None:
        pairs = reachable_pairs(G)
    if pairs.group is not G:
        raise ValueError("pairs were computed for a different group")
    T = G.table
    g, h = pairs.pairs.T
    hit = np.zeros(G.order, dtype=bool)
    if notion == "group":
        hit[g[g == h]] = True
    else:
        hit[T[g, h]] = True
        hit[T[T[g[:, None], G.gen_ids], h[:, None]]] = True
    return set(np.flatnonzero(hit).tolist())


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


def palindromic_width(
    G: FiniteGroup, notion: str, state_cap: int = DEFAULT_STATE_CAP
) -> WidthReport:
    """Layered covering of G by products of palindromes; exact lengths."""
    _check_notion(notion)
    pal = palindrome_elements(G, notion, reachable_pairs(G, state_cap))
    layers = product_layers(G, sorted(pal))
    if sum(map(len, layers)) < G.order:
        raise AssertionError("palindrome covering stalled before exhausting the group")
    lengths = {g: k for k, layer in enumerate(layers) for g in layer.tolist()}
    sizes = np.cumsum([len(layer) for layer in layers]).tolist()
    return WidthReport(notion, pal, lengths, len(layers) - 1, sizes)
