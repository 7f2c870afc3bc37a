"""Finite groups as multiplication tables with labeled symmetric generating sets.

Elements are dense integer ids 0..order-1.  ``table`` is one C-contiguous,
read-only ``np.int32`` array with ``table[a, b] = a*b`` and ``inverse`` a
read-only ``np.int32`` vector; every scalar the API returns (identity,
generator ids, products, evaluations) is a Python int.

Every table is verified exactly, at every order, when it comes to exist:
a group given by a table at construction, a direct product on the first
read of its ``table`` (``direct_product`` derives everything else from
its verified factors).  The checks are entries in range, a unique
two-sided identity, unique two-sided inverses, a symmetric generating set
that generates the whole group, and associativity by Light's test
(Clifford & Preston, *The Algebraic Theory of Semigroups* I, 1961,
section 1.2).  Light's test checks (x*a)*y == x*(a*y) for all x, y but
only for each generator a, at O(order^2) cost per generator.  It is
exact: the elements a that pass it are closed under products, since

    (x*(ab))*y = ((x*a)*b)*y = (x*a)*(b*y) = x*(a*(b*y)) = x*((a*b)*y),

the identity passes, and the generation check reaches every element as a
product of generators, so every element passes and the table is
associative.

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
    "commutator_set",
    "commutator_subgroup",
    "commutator_width",
    "find_isomorphism",
    "are_isomorphic",
]

DEFAULT_CAP = 512


class CapExceeded(RuntimeError):
    """A construction or search exceeded its configured resource cap."""


def _frozen(values) -> np.ndarray:
    """A C-contiguous read-only int32 copy."""
    out = np.array(values, dtype=np.int32, order="C")
    out.flags.writeable = False
    return out


class FiniteGroup:
    """Multiplication-table group with a distinguished symmetric generating set.

    ``table`` may be given as any square integer array-like; it is stored
    as a read-only int32 copy.  ``gens`` is an ordered list of (label,
    element id); for every generator the inverse element is also present,
    labeled either the same (for involutions) or with a ``^-1`` suffix.
    ``gen_ids`` holds the distinct generator ids in ascending order.
    Construction verifies the table and the generators.

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
            n = len(T) * F.order
            T = (T[:, None, :, None] * F.order + F.table[None, :, None, :]).reshape(n, n)
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
        outside = (T < 0) | (T >= n)
        if outside.any():
            raise ValueError(f"table entry {T[outside][0]} out of range")
        T = self.table = _frozen(T)
        ids = np.arange(n)
        ones = np.flatnonzero((T == ids).all(axis=1) & (T == ids[:, None]).all(axis=0))
        if len(ones) != 1:
            raise ValueError("table has no unique two-sided identity")
        self.identity = int(ones[0])
        hits = T == self.identity
        hits = hits & hits.T
        lacking = np.flatnonzero(hits.sum(axis=1) != 1)
        if len(lacking):
            raise ValueError(f"element {lacking[0]} lacks a unique two-sided inverse")
        self.inverse = _frozen(hits.argmax(axis=1))

    def _verify_gens(self) -> None:
        T, ids = self.table, self.gen_ids
        lacking = ids[~np.isin(self.inverse[ids], ids)]
        if len(lacking):
            raise ValueError(f"generating set not symmetric: inverse of {lacking[0]} missing")
        if sum(map(len, product_layers(self, ids))) != self.order:
            raise ValueError("generators do not generate the group")
        # Light's test: (x*a)*y == x*(a*y), rows T[x*a] against columns
        # T[:, a*y], gathered into two buffers that every generator reuses
        # (np.take gathers columns far faster than T[:, idx]; entries are
        # in range, so mode="clip" changes nothing and lets out= be written
        # in place, where the default mode gathers into a fresh copy first)
        left, right = np.empty_like(T), np.empty_like(T)
        for a in ids:
            np.take(T, T[:, a], axis=0, out=left, mode="clip")
            np.take(T, T[a], axis=1, out=right, mode="clip")
            if not np.array_equal(left, right):
                raise ValueError(f"table is not associative (witness a={a})")

    # -- arithmetic ----------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def inv(self, a: int) -> int:
        return int(self.inverse[a])

    def elements(self) -> range:
        return range(self.order)

    def is_abelian(self) -> bool:
        return np.array_equal(self.table, self.table.T)

    @cached_property
    def derived_subgroup(self) -> frozenset[int]:
        """The derived subgroup [G, G], computed on first use."""
        return frozenset(commutator_subgroup(self))

    def element_order(self, g: int) -> int:
        n, x = 1, g
        while x != self.identity:
            x = self.table[x, g]
            n += 1
        return n

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
    """
    T = G.table
    factors = np.asarray(factors, dtype=np.intp)
    seen = np.zeros(G.order, dtype=bool)
    seen[G.identity] = True
    layers = [np.array([G.identity])]
    while True:
        hit = np.zeros(G.order, dtype=bool)
        hit[T[layers[-1][:, None], factors]] = True
        new = np.flatnonzero(hit & ~seen)
        if not len(new):
            return layers
        seen[new] = True
        layers.append(new)


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


def cyclic(m: int, cap: int = DEFAULT_CAP) -> FiniteGroup:
    """Cyclic group of order m, generator label 'a'."""
    if m < 1:
        raise ValueError("order must be positive")
    _check_cap(m, cap, "cyclic")
    ids = np.arange(m, dtype=np.int32)
    table = (ids[:, None] + ids) % m
    gens = _paired_gens([("a", 1)], table) if m > 1 else []
    return FiniteGroup(table, gens, name=f"C{m}")


def dihedral(m: int, cap: int = DEFAULT_CAP) -> FiniteGroup:
    """Dihedral group of order 2m: rotation 'r' (omitted if trivial) and
    reflection 's'.  Element (i, j) = r^i s^j has id j*m + i."""
    if m < 1:
        raise ValueError("m must be positive")
    _check_cap(2 * m, cap, "dihedral")
    i = np.arange(m, dtype=np.int32)
    plus, minus = (i[:, None] + i) % m, (i[:, None] - i) % m
    # r^i s^j r^k s^l = r^(i + (-1)^j k) s^(j+l), one block per (j, l)
    table = np.block([[plus, plus + m], [minus + m, minus]])
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


# ---------------------------------------------------------------------------
# commutators
# ---------------------------------------------------------------------------


def commutator_set(G: FiniteGroup) -> set[int]:
    """{[g, h] : g, h in G} with [g, h] = g^-1 h^-1 g h."""
    T, inv, ids = G.table, G.inverse, np.arange(G.order)
    comms = T[T[T[inv[:, None], inv], ids[:, None]], ids]
    return set(np.unique(comms).tolist())


def commutator_subgroup(G: FiniteGroup) -> set[int]:
    """Subgroup generated by all commutators (closure under products)."""
    layers = product_layers(G, sorted(commutator_set(G)))
    return set(np.concatenate(layers).tolist())


def commutator_width(G: FiniteGroup) -> int:
    """Exact commutator width by product-set covering of the derived
    subgroup; 0 when the derived subgroup is trivial."""
    return len(product_layers(G, sorted(commutator_set(G)))) - 1


def find_isomorphism(G: FiniteGroup, H: FiniteGroup) -> list[int] | None:
    """An isomorphism G -> H as an id permutation, or None.

    Backtracks over images of G's generators among H-elements of equal
    order, extending each partial assignment multiplicatively.  Intended
    for small orders (the sandwich and identification checks).
    """
    if G.order != H.order:
        return None
    if sorted(map(G.element_order, G.elements())) != sorted(map(H.element_order, H.elements())):
        return None
    gen_ids: list[int] = []
    for _, g in G.gens:
        if g not in gen_ids:
            gen_ids.append(g)
    by_order: dict[int, list[int]] = {}
    for h in H.elements():
        by_order.setdefault(H.element_order(h), []).append(h)

    def close(assign: dict[int, int]) -> dict[int, int] | None:
        # close the partial generator map under products; None on clash
        phi = {G.identity: H.identity}
        used = {H.identity}
        queue = deque([G.identity])
        while queue:
            x = queue.popleft()
            for g, h in assign.items():
                xg, yh = G.mul(x, g), H.mul(phi[x], h)
                if xg in phi:
                    if phi[xg] != yh:
                        return None
                elif yh in used:
                    return None
                else:
                    phi[xg] = yh
                    used.add(yh)
                    queue.append(xg)
        return phi

    def search(k: int, assign: dict[int, int]) -> list[int] | None:
        phi = close(assign)
        if phi is None:
            return None
        if k == len(gen_ids):
            if len(phi) < G.order:
                return None
            perm = np.array([phi[g] for g in range(G.order)])
            ok = np.array_equal(H.table[perm[:, None], perm], perm[G.table])
            return perm.tolist() if ok else None
        g = gen_ids[k]
        if g in phi:
            # image already forced by earlier assignments
            assign[g] = phi[g]
            result = search(k + 1, assign)
            del assign[g]
            return result
        for h in by_order[G.element_order(g)]:
            assign[g] = h
            result = search(k + 1, assign)
            if result is not None:
                return result
            del assign[g]
        return None

    return search(0, {})


def are_isomorphic(G: FiniteGroup, H: FiniteGroup) -> bool:
    return find_isomorphism(G, H) is not None


# perfbench builds groups by ``finite_groups.group_from_spec`` and traces
# it by that name, so the name stays bound here until ROADMAP item 6 (the
# benchmark's next definition) points those readers at ``specs``.
# Imported last: ``specs`` imports this module.
from .specs import group_from_spec  # noqa: E402
