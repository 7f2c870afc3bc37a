"""Exact palindromic length and width for finite groups, both notions.

A word palindrome is a word equal to its own letter reversal; an element
is a word palindrome if some representative word is one.  An element is a
group palindrome if some representative word's reversal evaluates to the
same element.  Both element sets are read off one structure: the set R of
pairs (value of w, value of reversed w) over all words w.

*R is a subgroup.*  w -> (value of w, value of reversed w) is a monoid
homomorphism into G x G^op, generated by the pairs (a, a) of the
generators.  Its image R is a finite submonoid of a group, so a subgroup,
and both its projections are all of G.  So R meets {1} x G in {1} x N
for a normal subgroup N, the *reversal defect* (conjugating (1, n) by
(g, h) in R gives (1, h^-1*n*h)), and the fibre of R over g is the coset
h0(g)*N for any section h0 with (g, h0(g)) in R.  |N| = 1 exactly when
word reversal induces an anti-automorphism of G that fixes the
generators, as in an abelian group or one generated by involutions.

*N from Schreier generators.*  ``FiniteGroup.section`` is such an h0,
with h0(1) = 1.  By Schreier's lemma (Holt, Eick & O'Brien, *Handbook of
Computational Group Theory*, 2005, ch. 4), applied to R with the
transversal g -> (g, h0(g)) and the generators (a, a), N is generated by
the defects h0(g*a)^-1 * a * h0(g) over all order * |gens| edges (g, a),
one gather.  N is grown one defect at a time: a defect not yet in N is
added and N re-closed by ``product_layers``.  Each addition at least
doubles N, so there are at most log2 |N| closures.

*Palindromes from the N-cosets.*  Each coset is labelled by its least
element, by a min over the columns of N when |N|^2 <= order and coset by
coset otherwise, so in O(order * min(|N|, order/|N|)) work.  Then

- the group palindromes are the g with (g, g) in R, that is
  g^-1 * h0(g) in N;
- the even word palindromes u*reverse(u) take the values g*h with (g, h)
  in R: the cosets of the g*h0(g);
- the odd ones u*a*reverse(u) take the values g*a*h: the cosets of the
  g*a*h0(g).

``reachable_pairs`` lists R as the pairs (g, h0(g)*n), an array of
order * |N| rows; the width path never builds it.

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

*N factors.*  Each letter lies in one factor, and letters of different
factors commute in the value of a word and in the value of its reversal.
So R(F_1 x ... x F_k) = R(F_1) x ... x R(F_k) and N = N_1 x ... x N_k:
N and the masks are computed once per factor.  The group palindromes are
then the product set P_1 x ... x P_k, and each P_i contains 1.  Hence
P^m = P_1^m x ... x P_k^m with P_i^m growing in m: an element's group
length is the maximum of its coordinates' lengths, and the group width is
the maximum of the factor widths.  An atomic group is the one-factor case.

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

*E*O = O*E.*  For any group and symmetric generating set, the values E
of the even word palindromes and O of the odd ones satisfy E*O = O*E, and
E and O are closed under inverses.  Take e = u*reverse(u) and
o = v*a*reverse(v).  With y = u*reverse(u)*v, the word y*a*reverse(y) is
an odd palindrome worth e*o*e.  Let z be the formal inverse of reverse(u)
(reverse it and invert each letter); then z*reverse(z) is an even
palindrome worth e^-1, so e*o = (e*o*e)*e^-1 lies in O*E.  Likewise, with
z the formal inverse of reverse(v), z*a^-1*reverse(z) is an odd palindrome
worth o^-1.  Inverting E*O <= O*E then gives O*E <= E*O.

*Word lengths from odd counts.*  By the lemma, a product of m palindromes
of F_i with o odd ones, in any positions, takes exactly the values
A_i(m, o) = E_i^(m-o) * O_i^o.  Let c_i(m, x) be the least o with x in
A_i(m, o), infinite where there is none.  A palindrome of the product has
at most one odd coordinate, so g is a product of m palindromes exactly
when sum_i c_i(m, g_i) <= m: each coordinate's odd factors then take
their own slots among the m.  g's word length is the number of m with
sum_i c_i(m, g_i) > m.  Per factor, A(m, o) = A(m-1, o)*E | A(m-1, o-1)*O,
so c(m, y) = min(c(m-1, y*e^-1), c(m-1, y*p^-1) + 1) over e in E and p in
O: one pull through F's table columns per m.  c(1) is 0 on E, 1 on O
outside E and infinite elsewhere, so it is read off the masks.

*One pull per N-coset.*  From m = 1 on, each row c(m, .) is constant on
the N-cosets.  c(1) is, since E and O are unions of N-cosets.  If c(m-1)
is, then for n in N both y*n*e^-1 and y*(e*n)^-1 lie in the coset of
y*e^-1, as N is normal; so c(m) is constant on cosets too, and e*n pulls
the values that e pulls.  So from m = 2 on the pull runs through one
element of each N-coset in E and in O, its label, at |F| entries per
coset rather than per element: one column for A7, where N is the whole
group.

Each m takes one flat outer sum of the rows c_i(m, .), and the covering
stops at the first m where every sum is at most m, so no factor is
expanded past the product's width.  In the group notion O_i is empty and
c_i is 0 or infinite, which is the largest-coordinate rule above; that
rule, and a single factor, keep their own covering by ``product_layers``.

``palindrome_elements`` builds P by outer products of the masks, with O_i
empty in the group notion.  Per-element data are read-only arrays over the
group's mixed-radix ids: a report's one length array, and the ascending id
array of the palindromes (the elements of length at most 1), which both
entry points return.
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
    generator letters: the reversal defect N as its ascending ids, and
    ``pairs``, the (|R|, 2) int array of the (g, h0(g)*n) in ascending
    order, built on each read."""

    group: FiniteGroup
    defect: np.ndarray

    @property
    def pairs(self) -> np.ndarray:
        G, N = self.group, self.defect
        fibres = np.sort(G.table[G.section[:, None], N], axis=1)
        return np.stack((np.repeat(np.arange(G.order), len(N)), fibres.ravel()), axis=1)


def reachable_pairs(G: FiniteGroup) -> ReachablePairs:
    """R as its section and reversal defect; reads G's table."""
    return ReachablePairs(G, np.flatnonzero(_reversal_defect(G)))


def _reversal_defect(F: FiniteGroup) -> np.ndarray:
    """The mask of N over F's ids: closed one Schreier generator
    h0(g*a)^-1 * a * h0(g) at a time, each one not yet in N."""
    T, h0, gens = F.table, F.section, F.gen_ids
    found = np.zeros(F.order, dtype=bool)
    found[T[F.inverse[h0[T[:, gens]]], T[gens, h0[:, None]]]] = True
    in_N = np.zeros(F.order, dtype=bool)
    in_N[F.identity] = True
    outside, closing = np.flatnonzero(found & ~in_N), []
    while len(outside):
        closing.append(outside[0])
        # the closure contains the last N, so marking it only adds
        in_N[np.concatenate(product_layers(F, closing))] = True
        outside = outside[~in_N[outside]]
    return in_N


def _coset_labels(F: FiniteGroup, N: np.ndarray) -> np.ndarray:
    """The least element of x*N for every x, N a normal subgroup's ids."""
    if len(N) ** 2 <= F.order:
        return F.table[:, N].min(axis=1)
    # fewer cosets than elements of N: the least unlabelled element is
    # the least of its coset
    label = np.full(F.order, -1, dtype=np.int32)
    for _ in range(F.order // len(N)):
        g = int((label < 0).argmax())
        label[F.table[g, N]] = g
    return label


def _cosets_of(label: np.ndarray, elements: np.ndarray) -> np.ndarray:
    """The mask of the union of the cosets that hold ``elements``."""
    hit = np.zeros(len(label), dtype=bool)
    hit[label[elements]] = True
    return hit[label]


def palindrome_elements(G: FiniteGroup, notion: str) -> np.ndarray:
    """The ascending read-only id array of the palindromes, the identity
    included.  word: values of u*reverse(u) and u*a*reverse(u) (even
    palindromes and palindromes with a center letter); group: elements g
    with some representative whose reversal also evaluates to g.  Built
    from the factors' masks as (E_1 x ... x E_k) | union over j of
    (E_1 x ... x O_j x ... x E_k), by outer products."""
    # X: every coordinate so far in its E_i; Y: exactly one in its O_j instead
    X, Y = np.ones(1, dtype=bool), np.zeros(1, dtype=bool)
    for _, even, odd, _ in _factor_masks(G, notion):
        X, Y = (X[:, None] & even).ravel(), ((Y[:, None] & even) | (X[:, None] & odd)).ravel()
    palindromes = np.flatnonzero(X | Y)
    palindromes.flags.writeable = False
    return palindromes


def _factor_masks(
    G: FiniteGroup, notion: str
) -> list[tuple[FiniteGroup, np.ndarray, np.ndarray, np.ndarray | None]]:
    """G's atomic factors of order above 1, each with its (even, odd) masks
    and N-coset labels: the cosets of the g*h0(g) and of the g*a*h0(g) in
    the word notion; the g with g^-1 * h0(g) in N, nothing, and no labels
    in the group notion."""
    if notion not in NOTIONS:
        raise ValueError(f"notion must be one of {NOTIONS}, got {notion!r}")
    masks = []
    for F in G.factors or (G,):
        if F.order == 1:
            continue
        T, h0, in_N = F.table, F.section, _reversal_defect(F)
        if notion == "group":
            even, odd, label = in_N[T[F.inverse, h0]], np.zeros(F.order, dtype=bool), None
        else:
            label = _coset_labels(F, np.flatnonzero(in_N))
            even = _cosets_of(label, T[np.arange(F.order), h0])
            odd = _cosets_of(label, T[T[:, F.gen_ids], h0[:, None]])
        masks.append((F, even, odd, label))
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
    """Exact lengths by layered covering.  Each factor is covered by its own
    palindromes and an element's length is the largest of its coordinates',
    except in the word notion with two or more factors: there an element's
    length is the number of m where the factors' odd counts sum past m."""
    masks = _factor_masks(G, notion)
    if notion == "word" and len(masks) >= 2:
        return WidthReport(notion, _lengths(_odd_count_layers(masks, G.order), G.order))
    # a flat outer product prepends a factor's id as the highest mixed-radix
    # digit; the long axis last keeps numpy's inner loop long
    length = np.zeros(1, dtype=np.intp)
    for F, even, odd, _ in reversed(masks):
        own = _lengths(product_layers(F, np.flatnonzero(even | odd)), F.order)
        length = np.maximum(own[:, None], length).ravel()
    return WidthReport(notion, length)


def _lengths(layers: list[np.ndarray], order: int) -> np.ndarray:
    """The layer index of every element, from a covering's layers."""
    if sum(map(len, layers)) < order:
        raise AssertionError("palindrome covering stalled before exhausting the group")
    length = np.empty(order, dtype=np.intp)
    for k, layer in enumerate(layers):
        length[layer] = k
    return length


def _odd_counts(F: FiniteGroup, even: np.ndarray, odd: np.ndarray, label: np.ndarray):
    """Yields the rows c(m, .) over F's ids for m = 0, 1, ...: the least o
    with x in E^(m-o)*O^o, inf where there is none.  Rows from m = 2 on
    are pulled through the N-cosets' labels in E and in O."""
    heads = np.flatnonzero(label == np.arange(F.order))
    # column p^-1 of F.table maps y to y*p^-1
    by_even, by_odd = (F.table[:, F.inverse[heads[mask[heads]]]] for mask in (even, odd))
    # float32 holds inf, and every sum of counts below 2^24 exactly
    counts = np.full(F.order, np.inf, dtype=np.float32)
    counts[F.identity] = 0
    yield counts
    counts = np.full(F.order, np.inf, dtype=np.float32)
    counts[odd], counts[even] = 1, 0
    while True:
        yield counts
        counts = np.minimum(counts[by_even].min(axis=1), counts[by_odd].min(axis=1) + 1)


def _odd_count_layers(
    masks: list[tuple[FiniteGroup, np.ndarray, np.ndarray, np.ndarray]], order: int
) -> list[np.ndarray]:
    """The word covering's layers over flat product ids: layer m holds the
    g first with sum_i c_i(m, g_i) <= m, one outer sum of the factors' rows
    per m.  The covering stops once every element is seen, or at a layer
    that finds nothing new."""
    layers, unseen = [], np.ones(order, dtype=bool)
    for m, rows in enumerate(zip(*(_odd_counts(*mask) for mask in masks))):
        total = np.zeros(1, dtype=np.float32)
        for counts in reversed(rows):
            total = (counts[:, None] + total).ravel()
        layers.append(np.flatnonzero(unseen & (total <= m)))
        unseen[layers[-1]] = False
        if not len(layers[-1]) or not unseen.any():
            return layers
