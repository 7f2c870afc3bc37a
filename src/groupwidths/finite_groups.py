"""Finite groups as multiplication tables with labeled symmetric generating sets.

Elements are dense integer ids 0..order-1.  ``table`` is one C-contiguous,
read-only ``np.int32`` array with ``table[a, b] = a*b`` and ``inverse`` a
read-only ``np.int32`` vector; every scalar the API returns (identity,
generator ids, products, evaluations) is a Python int.

Every table is verified exactly, at every order, when it comes to exist:
a group given by a table at construction, a direct product on the first
read of its ``table`` (``direct_product`` derives everything else from
its verified factors).  The scans run over blocks of rows of about
``_VERIFY_BLOCK`` bytes, so no temporary grows with order^2.  The checks,
in this order, are:

- entries in range, by the table's minimum and maximum (an int32 copy,
  when one is made, is allocated first, so a table too large to hold
  fails before any scan);
- a two-sided identity, looked for only among the candidates e with
  e*0 == 0 == 0*e, each checked by one row and one column compare;
- inverses, from one pass that marks the identity's entries: every row
  must hold the identity exactly once, and that entry a*b must be
  two-sided, b*a the identity too.  A group table is a Latin square, so
  this rejects no group; a table that fails it is named by its first
  such row;
- a symmetric generating set;
- associativity by Light's test (Clifford & Preston, *The Algebraic
  Theory of Semigroups* I, 1961, section 1.2);
- generation of the whole group.

Light's test checks (x*a)*y == x*(a*y) for all x, y but only for
generators a, at O(order^2) cost per generator.  The elements a that pass
it are closed under products, since

    (x*(ab))*y = ((x*a)*b)*y = (x*a)*(b*y) = x*(a*(b*y)) = x*((a*b)*y),

and the identity passes.  It runs once per inverse pair, on the generators
a with a <= a^-1, because a^-1 passes whenever a does.  If a passes,
right multiplication by a is injective: x*a == z*a gives
x = x*(a*a^-1) = (x*a)*a^-1 = (z*a)*a^-1 = z.  So it permutes the finite
group, some power of it is the identity map, and the orbit 1, a, a^2, ...
of the identity returns to 1: a^m = 1 for some m >= 1.  Then
a^(m-1)*a = 1 = a^-1*a, and injectivity gives a^-1 = a^(m-1), a product of
passing elements, which passes.  Failures thus come in inverse pairs
within the symmetric generating set, so the smallest failing generator is
always one that is tested, and the reported witness does not change.

So, once every generator has passed, the set S of products of generators
(words multiplied out from the left) is closed under products: for s in S
and a word t*a, s*(t*a) = (s*t)*a, as t passes.
The generation check then runs the breadth-first search over the repeated
squares a, a^2, a^4, ..., a^(2^j) of the generators, for 2^j < order.
This is exact: each square is a product of two elements of S, so it lies
in S, and the squares include the generators, so they generate S too.
If S is the whole group, every element passes Light's test and the table
is associative.  Any power a^e with e < order is a product of at most
ceil(log2(order)) squares, one per binary digit of e, so a cyclic or
dihedral table needs O(log order) layers, where the generators alone
need order/2.

The same layers give ``section``, read by ``pal_width``: an array h0 with
(g, h0[g]) = (value of w, value of reversed w) for some word w over the
generators.  A square q = a^(2^j) is the value of the palindromic word
a...a, so (q, q) is such a pair, and pairs multiply as
(g, h)(q, q) = (g*q, q*h).  So h0[1] = 1, and each x of layer k+1 takes a
square q with x*q^-1 in layer k and h0[x] = q*h0[x*q^-1]: one gather per
layer, on the first read of ``section``.  A direct product's section is
its factors' sections, coordinate by coordinate, since letters of
different factors commute.

Generator labels are the letters that words over the group are written in,
so they round-trip through the text formats bit-exactly.

JSON specs are read and written by ``specs``.
"""

from __future__ import annotations

import string
from collections import deque
from functools import cached_property

import numpy as np

from .free_words import MonoidWord

__all__ = [
    "FiniteGroup",
    "CapExceeded",
    "DEFAULT_CAP",
    "cyclic",
    "dihedral",
    "sym3_fink",
    "direct_product",
    "abelian_group",
    "evaluate",
    "product_layers",
]

DEFAULT_CAP = 512


class CapExceeded(RuntimeError):
    """A construction or search exceeded its configured resource cap."""


def _frozen(values) -> np.ndarray:
    """A C-contiguous read-only int32 copy."""
    out = np.array(values, dtype=np.int32, order="C")
    out.flags.writeable = False
    return out


# Table verification runs over blocks of rows of about this many bytes,
# through buffers it reuses, so that no temporary grows with order^2 and
# each block stays in cache.  Light's test took 2.02 ms on C1024, 2.44 ms
# on D384 and 2.82 ms on S3 x D50 in 256 KiB blocks, against 2.65, 2.85 and
# 3.62 ms on whole tables; 16, 64 and 1,024 KiB blocks were slower (best of
# 40, alternated; 2-vCPU Xeon VM, Python 3.11, numpy 2.4).
_VERIFY_BLOCK = 256 * 1024


def _block_rows(n: int) -> int:
    """The rows of an order-n int32 table in one verification block."""
    return max(1, min(n, _VERIFY_BLOCK // (4 * n)))


def _associative_at(T: np.ndarray, a, blocks) -> bool:
    """Light's test for a: (x*a)*y == x*(a*y) for all x, y.  ``blocks``
    pairs each block of rows x with two buffers of its shape: the rows
    T[x*a] are gathered into the first and the columns T[x, a*y] into the
    second (np.take gathers columns far faster than T[:, idx]; entries are
    in range, so mode="clip" changes nothing and lets out= be written in
    place, where the default mode gathers into a fresh copy first)."""
    columns = T[a]
    for rows, left, right in blocks:
        np.take(T, rows[:, a], axis=0, out=left, mode="clip")
        np.take(rows, columns, axis=1, out=right, mode="clip")
        if not np.array_equal(left, right):
            return False
    return True


class FiniteGroup:
    """Multiplication-table group with a distinguished symmetric generating set.

    ``table`` may be given as any square integer array-like.  A read-only,
    C-contiguous int32 array that owns its memory (what ``spec_from_json``
    reads, and what ``dihedral``, a product's ``table`` and ``nilprod``
    hand over) is kept as it is, not copied: the group then shares it, and
    a caller who hands one over must not set it writeable again.  Any
    other table is stored as a read-only int32 copy, so a caller's
    writable array can change later without changing the group.  ``gens``
    is an ordered list of (label, element id); for every generator the
    inverse element is also present, labeled either the same (for
    involutions) or with a ``^-1`` suffix.
    ``gen_ids`` holds the distinct generator ids in ascending order.
    Construction verifies the table and the generators.  ``section`` is a
    read-only int32 vector like ``inverse``, built on first read: the value
    of the reversal of one word for each element (module docstring).

    ``factors`` is read-only.  For a group built by ``direct_product`` it
    holds the atomic factors in mixed-radix id order: the id of
    (a_1, ..., a_k) is (...(a_1*|F_2| + a_2)*|F_3| + ...)*|F_k| + a_k.
    ``direct_product`` is the only code that sets it; every other group,
    a ``table`` spec of a product included, has ``()``.  A group with
    factors holds everything but its table from construction; ``table``
    is built and verified on its first read.  ``repr`` never reads it.
    """

    def __init__(self, table, gens: list[tuple[str, int]], name: str = "group") -> None:
        self.gens, self.name = gens, name
        self._factors: tuple[FiniteGroup, ...] = ()
        self.table = table
        self._verify_table()
        self._index_gens()
        self._verify_gens()

    def __repr__(self) -> str:
        return f"FiniteGroup(name={self.name!r}, order={self.order}, gens={self.gens!r})"

    @property
    def factors(self) -> tuple[FiniteGroup, ...]:
        return self._factors

    @cached_property
    def table(self) -> np.ndarray:
        """A direct product's table, built on first read from its atomic
        factors' tables and verified like any other table; the identity
        and inverses found there must be the ones derived from the factors.
        (Every other group fills this attribute at construction.)"""
        T = self._factors[0].table
        for F in self._factors[1:]:
            # (a, b)*(c, d) = (a*c, b*d), written straight into the table
            # through its 4-D view [a, b, c, d]
            P = np.empty((len(T) * F.order,) * 2, dtype=np.int32)
            grid = P.reshape(len(T), F.order, len(T), F.order)
            np.multiply(T[:, None, :, None], F.order, out=grid)
            grid += F.table[None, :, None, :]
            T = P
        # handed over frozen, so verification keeps it rather than copying
        T.flags.writeable = False
        built = FiniteGroup(T, self.gens, self.name)
        if built.identity != self.identity or not np.array_equal(built.inverse, self.inverse):
            raise AssertionError(f"{self.name}: the table's identity or inverses differ from the factors'")
        return built.table

    # -- verification -------------------------------------------------

    def _index_gens(self) -> None:
        self.labels: dict[str, int] = {}
        for label, g in self.gens:
            if label in self.labels:
                raise ValueError(f"duplicate generator label {label!r}")
            if not 0 <= g < self.order:
                raise ValueError(f"generator id {g} out of range")
            self.labels[label] = g
        self.gen_ids = _frozen(sorted(set(self.labels.values())))

    def _verify_table(self) -> None:
        T = np.asarray(self.table)
        if T.size == 0:
            raise ValueError("empty multiplication table")
        if T.ndim != 2 or T.shape[0] != T.shape[1]:
            raise ValueError(f"multiplication table must be square, got shape {T.shape}")
        if T.dtype.kind not in "iu":
            raise ValueError(f"table entries must be integers, got {T.dtype}")
        n = self.order = T.shape[0]
        step = _block_rows(n)
        # keep a frozen table; allocate the int32 copy of any other before
        # any scan: the strided window of a cyclic or dihedral table too
        # large to hold fails here at once, where a scan of it would first
        # walk all its order^2 entries
        keep = (not T.flags.writeable and T.flags.owndata and T.flags.c_contiguous
                and T.dtype == np.int32)
        table = T if keep else np.empty((n, n), dtype=np.int32)
        if T.min() < 0 or T.max() >= n:
            for r in range(0, n, step):
                block = T[r : r + step]
                outside = (block < 0) | (block >= n)
                if outside.any():
                    raise ValueError(f"table entry {block[outside][0]} out of range")
        if not keep:
            table[...] = T
            table.flags.writeable = False
        T = self.table = table
        ids = np.arange(n)
        # a two-sided identity is unique (e = e*e' = e'), so it is the first
        # candidate e with e*0 == 0 == 0*e whose row and column are the ids
        for e in np.flatnonzero((T[:, 0] == 0) & (T[0] == 0)).tolist():
            if (T[e] == ids).all() and (T[:, e] == ids).all():
                break
        else:
            raise ValueError("table has no unique two-sided identity")
        self.identity = e
        # each row's first identity entry, a block of rows at a time; a
        # block holds a faulty row exactly when its rows do not hold the
        # identity once each with a two-sided inverse (a row without one
        # fails the second test), and the first such row is named
        inverse = np.empty(n, dtype=np.intp)
        for r in range(0, n, step):
            rows, hits = ids[r : r + step], T[r : r + step] == e
            inv = inverse[r : r + step] = hits.argmax(axis=1)
            two_sided = (T[rows, inv] == e) & (T[inv, rows] == e)
            if np.count_nonzero(hits) != len(rows) or not two_sided.all():
                counts = np.count_nonzero(hits, axis=1)
                i = int(np.flatnonzero((counts != 1) | ~two_sided)[0])
                a, b = r + i, inv[i]
                if counts[i] != 1:
                    raise ValueError(f"row {a} of the table holds the identity {counts[i]} times, not once")
                raise ValueError(f"element {a} lacks a two-sided inverse: {a}*{b} is the identity, "
                                 f"{b}*{a} is not")
        self.inverse = _frozen(inverse)

    def _verify_gens(self) -> None:
        T, ids = self.table, self.gen_ids
        inverses = self.inverse[ids]
        is_gen = np.zeros(self.order, dtype=bool)
        is_gen[ids] = True
        lacking = ids[~is_gen[inverses]]
        if len(lacking):
            raise ValueError(f"generating set not symmetric: inverse of {lacking[0]} missing")
        # Light's test, once per inverse pair: a^-1 passes if a does (module
        # docstring); every generator reuses two buffers of one row block
        n, step = self.order, _block_rows(self.order)
        left, right = np.empty((step, n), dtype=np.int32), np.empty((step, n), dtype=np.int32)
        blocks = [(T[r : r + step], left[: n - r], right[: n - r]) for r in range(0, n, step)]
        for a in ids[ids <= inverses]:
            if not _associative_at(T, a, blocks):
                raise ValueError(f"table is not associative (witness a={a})")
        # the squares a^(2^j), 2^j < order, generate what the generators do
        # (module docstring), so their BFS reaches the group in log2 layers
        squares = [ids]
        for _ in range((self.order - 1).bit_length() - 1):
            squares.append(T[squares[-1], squares[-1]])
        squares = np.concatenate(squares)
        layers = product_layers(self, squares)
        if sum(map(len, layers)) != self.order:
            raise ValueError("generators do not generate the group")
        # kept for ``section``, so that a group whose section is never read
        # pays nothing for it
        self._square_layers = layers, squares

    @cached_property
    def section(self) -> np.ndarray:
        """h0 (module docstring), built on first read: along the generation
        check's layers, or for a direct product from its factors' sections.
        Each x of layer k+1 takes the first square q with x*q^-1 in layer k,
        and h0[x] = q*h0[x*q^-1]."""
        if self._factors:
            section = self._factors[0].section
            for F in self._factors[1:]:
                section = (section[:, None] * F.order + F.section).ravel()
            return _frozen(section)
        if self.order == 1:
            return _frozen([self.identity])
        T, (layers, squares) = self.table, self._square_layers
        section = np.empty(self.order, dtype=np.int32)
        section[self.identity] = self.identity
        depth = np.empty(self.order, dtype=np.intp)
        for k, layer in enumerate(layers):
            depth[layer] = k
        # every later element's step and parent at once, then one gather
        # per layer, whose parents' values the layer before has set
        later = np.concatenate(layers[1:])
        back = T[later[:, None], self.inverse[squares]]
        step = (depth[back] == (depth[later] - 1)[:, None]).argmax(axis=1)
        steps, parents = squares[step], back[np.arange(len(later)), step]
        start = 0
        for layer in layers[1:]:
            end = start + len(layer)
            section[layer] = T[steps[start:end], section[parents[start:end]]]
            start = end
        section.flags.writeable = False
        return section

    # -- arithmetic ----------------------------------------------------

    def elements(self) -> range:
        return range(self.order)

    @cached_property
    def derived_subgroup(self) -> frozenset[int]:
        """The derived subgroup [G, G], computed on first use.

        [G, G] is the normal closure of the commutators
        [a, b] = a^-1 b^-1 a b of generators a, b: it contains them and is
        normal, and modulo their normal closure the generators commute, so
        the quotient is abelian.  H starts as the subgroup these
        commutators generate (``product_layers``).  H is normal when it is
        trivial or of index at most 2.  Otherwise each round takes every
        conjugate a^-1 h a, h in H and a a generator, in one gather; H is
        normal when none falls outside it (a^-1 H a lies in H for every
        generator, hence for every element).  Otherwise, for each
        generator, the first conjugate outside H joins the factors and H is
        closed again.  The new H properly contains the old one, so its
        order at least doubles and there are at most log2(order) rounds,
        each O(order * |factors|) for the closure and O(|H| * |gens|) for
        the gather.  The factors are the |gens|^2 commutators plus at most
        |gens| per round, and no array grows with order^2.
        """
        T, gens = self.table, self.gen_ids
        inverses = self.inverse[gens]
        # [a, b] with a down the rows and b across
        factors = T[T[T[inverses[:, None], inverses], gens[:, None]], gens].ravel()
        inside = np.zeros(self.order, dtype=bool)
        while True:
            H = np.concatenate(product_layers(self, factors))
            if len(H) == 1 or 2 * len(H) >= self.order:
                break
            inside[H] = True
            conjugates = T[T[inverses[:, None], H], gens[:, None]]
            outside = ~inside[conjugates]
            rows = np.flatnonzero(outside.any(axis=1))
            if not len(rows):
                break
            # each generator's first conjugate outside H
            factors = np.concatenate((factors, conjugates[rows, outside[rows].argmax(axis=1)]))
        return frozenset(H.tolist())

    def shortest_label_word(self, g: int) -> str:
        """Canonical product expression for g: '*'-joined generator labels
        of a shortest word (BFS, generators in listed order); '1' for the
        identity."""
        if g == self.identity:
            return "1"
        parent: dict[int, tuple[int, str]] = {self.identity: (-1, "")}
        queue = deque([self.identity])
        while queue:
            h = queue.popleft()
            row = self.table[h]
            for label, a in self.gens:
                nxt = int(row[a])
                if nxt not in parent:
                    parent[nxt] = (h, label)
                    if nxt == g:
                        queue.clear()
                        break
                    queue.append(nxt)
        if g not in parent:
            raise ValueError(f"element {g} not generated")
        labels: list[str] = []
        cur = g
        while cur != self.identity:
            cur, label = parent[cur]
            labels.append(label)
        return "*".join(reversed(labels))

    def element_from_label_word(self, text: str) -> int:
        text = text.strip()
        if text in ("", "1"):
            return self.identity
        return evaluate(self, MonoidWord(tuple(text.split("*"))))


def evaluate(G: FiniteGroup, w: MonoidWord) -> int:
    """The monoid homomorphism from words over G's generator labels to G."""
    g = G.identity
    for letter in w.letters:
        if letter not in G.labels:
            raise ValueError(f"unknown generator label {letter!r}")
        g = G.table[g, G.labels[letter]]
    return int(g)


def product_layers(G: FiniteGroup, factors) -> list[np.ndarray]:
    """Breadth-first layers of {1} under right multiplication by ``factors``.

    L_0 = [1] and L_{k+1} = L_k * factors minus every element seen so far.
    With S_k = L_0 | ... | L_k this is exactly S_k * factors minus S_k, so
    each element is multiplied out once, not once per layer.  Layers are
    ascending id arrays; their union is the submonoid the factors generate.

    The search returns as soon as every element is seen, so no last layer
    multiplies out a frontier that can find nothing new.  A layer whose
    frontier L_k is larger than the set U of unseen elements is pulled, not
    pushed: an unseen x joins L_{k+1} when x*p^-1 lies in L_k for some
    factor p, which takes |U| * |factors| products instead of
    |L_k| * |factors| (the direction-optimizing BFS of Beamer, Asanovic &
    Patterson, SC 2012).
    """
    T = G.table
    factors = np.asarray(factors, dtype=np.intp)
    inverses = G.inverse[factors]
    seen = np.zeros(G.order, dtype=bool)
    seen[G.identity] = True
    unseen = G.order - 1
    layers = [np.array([G.identity])]
    while unseen:
        frontier = layers[-1]
        if len(frontier) > unseen:
            in_frontier = np.zeros(G.order, dtype=bool)
            in_frontier[frontier] = True
            rest = np.flatnonzero(~seen)
            new = rest[in_frontier[T[rest[:, None], inverses]].any(axis=1)]
        else:
            hit = np.zeros(G.order, dtype=bool)
            hit[T[frontier[:, None], factors]] = True
            new = np.flatnonzero(hit & ~seen)
        if not len(new):
            break
        seen[new] = True
        unseen -= len(new)
        layers.append(new)
    return layers


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def _check_cap(order: int, cap: int, what: str) -> None:
    if order > cap:
        raise CapExceeded(f"{what}: order {order} exceeds cap {cap}")


def _paired_gens(elems: list[tuple[str, int]], table: np.ndarray) -> list[tuple[str, int]]:
    # append ^-1 partners for non-involutions; the identity is id 0
    out: list[tuple[str, int]] = []
    for label, g in elems:
        out.append((label, g))
        ginv = int(np.flatnonzero(table[g] == 0)[0])
        if ginv != g:
            out.append((label + "^-1", ginv))
    return out


def _windows(ids: np.ndarray, m: int) -> np.ndarray:
    """The m windows of length m of the contiguous ``ids``, row i starting
    at ids[i], as one strided view of its buffer (what
    ``sliding_window_view`` returns, without the Python-level checks that
    cost more than copying a small table)."""
    return np.ndarray((m, m), ids.dtype, ids, strides=ids.strides * 2)


def _cyclic_table(m: int) -> np.ndarray:
    """(i + k) mod m with no ``%``: row i is the window at i of the ids
    0..m-1 followed by 0..m-2."""
    i = np.arange(m, dtype=np.int32)
    return _windows(np.concatenate((i, i[:-1])), m)


def cyclic(m: int, cap: int = DEFAULT_CAP) -> FiniteGroup:
    """Cyclic group of order m, generator label 'a'."""
    if m < 1:
        raise ValueError("order must be positive")
    _check_cap(m, cap, "cyclic")
    table = _cyclic_table(m)
    gens = _paired_gens([("a", 1)], table) if m > 1 else []
    return FiniteGroup(table, gens, name=f"C{m}")


def dihedral(m: int, cap: int = DEFAULT_CAP) -> FiniteGroup:
    """Dihedral group of order 2m: rotation 'r' (omitted if trivial) and
    reflection 's'.  Element (i, j) = r^i s^j has id j*m + i."""
    if m < 1:
        raise ValueError("m must be positive")
    _check_cap(2 * m, cap, "dihedral")
    i = np.arange(m, dtype=np.int32)
    # (i + k) mod m and (i - k) mod m: row i of each is a window of a
    # doubled id range, the second read backwards
    plus = _cyclic_table(m)
    minus = _windows(np.concatenate((i[1:], i)), m)[:, ::-1]
    # r^i s^j r^k s^l = r^(i + (-1)^j k) s^(j+l), one block per (j, l)
    table = np.block([[plus, plus + m], [minus + m, minus]])
    table.flags.writeable = False  # FiniteGroup keeps it, copying nothing
    seed = ([("r", 1)] if m >= 2 else []) + [("s", m)]
    return FiniteGroup(table, _paired_gens(seed, table), name=f"D{m}")


def sym3_fink(cap: int = DEFAULT_CAP) -> FiniteGroup:
    """The symmetric group on three points with generating set
    {s1, s2, c, c^-1} where c = s1*s2 in the table."""
    _check_cap(6, cap, "sym3_fink")
    # permutations of (0,1,2) as rows; the product p*q acts as p after q,
    # (p*q)[i] = q[p[i]]
    s1, s2 = [1, 0, 2], [0, 2, 1]
    c = [s2[k] for k in s1]
    perms = np.array([[0, 1, 2], s1, s2, c, [s1[k] for k in s2], [s1[k] for k in c]])
    products = perms[np.arange(6)[:, None], perms[:, None, :]]  # [p, q, i] = q[p[i]]
    table = (products[:, :, None, :] == perms).all(axis=3).argmax(axis=2)
    gens = [("s1", 1), ("s2", 2), ("c", 3), ("c^-1", 4)]
    return FiniteGroup(table, gens, name="S3")


_FRESH_LETTERS = string.ascii_lowercase


def _base_label(label: str) -> str:
    return label[:-3] if label.endswith("^-1") else label


def direct_product(G: FiniteGroup, H: FiniteGroup, cap: int = DEFAULT_CAP) -> FiniteGroup:
    """Direct product; element (a, b) has id a*|H| + b.  The generating set
    is the union of the embedded factor generating sets, with H's labels
    relabeled to fresh letters on collision; a ``ValueError`` when the
    lowercase letters run out.

    The product's ``factors`` are ``G.factors + H.factors``, a group that
    is not a product counting as its own one factor, so nested products
    list their atomic factors in id order.

    The factors are verified groups, so the product's order, identity,
    inverses and generators follow from theirs in O(order), and its
    order^2 table is built, from the atomic factors' tables, and verified
    only when code reads ``table``."""
    order = G.order * H.order
    _check_cap(order, cap, "direct_product")
    used = {_base_label(label) for label, _ in G.gens}
    fresh = iter(l for l in _FRESH_LETTERS if l not in used)
    rename: dict[str, str] = {}
    for label, _ in H.gens:
        base = _base_label(label)
        if base not in rename:
            rename[base] = next(fresh, None) if base in used else base
            if rename[base] is None:
                raise ValueError(
                    f"direct_product: label {base!r} of {H.name} collides and no "
                    "fresh lowercase letter is left to rename it to"
                )
            used.add(rename[base])
    gens = [(label, g * H.order + H.identity) for label, g in G.gens]
    gens += [
        (rename[_base_label(label)] + ("^-1" if label.endswith("^-1") else ""),
         G.identity * H.order + h)
        for label, h in H.gens
    ]
    P = FiniteGroup.__new__(FiniteGroup)
    P.gens, P.name, P.order = gens, f"{G.name}x{H.name}", order
    P._factors = (G.factors or (G,)) + (H.factors or (H,))
    P.identity = G.identity * H.order + H.identity
    P.inverse = _frozen((G.inverse[:, None] * H.order + H.inverse).ravel())
    P._index_gens()
    return P


def abelian_group(moduli: list[int], cap: int = DEFAULT_CAP) -> FiniteGroup:
    """Direct product of cyclic groups, one lettered generator per factor."""
    if not moduli:
        raise ValueError("at least one cyclic factor required")
    G = cyclic(moduli[0], cap=cap)
    for m in moduli[1:]:
        G = direct_product(G, cyclic(m, cap=cap), cap=cap)
    return G


# perfbench builds groups by ``finite_groups.group_from_spec`` and traces
# it by that name, so the name stays bound here until ROADMAP item 6 (the
# benchmark's next definition) points those readers at ``specs``.
# Imported last: ``specs`` imports this module.
from .specs import group_from_spec  # noqa: E402
