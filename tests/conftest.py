"""Shared test helpers: seeded random words and wreath elements, groups
with relabelled element ids, maps between groups named by label words,
small relabelled groups with random generating sets and their products,
random nested direct products, permutation groups as tables, free-word
texts and free words spelled out letter by letter, reversed monoid words
and free generators, the centralizer vectors of a nilpotent product's
factor, and a call's traced peak memory."""

from __future__ import annotations

import os
import random
import tracemalloc
from pathlib import Path

from hypothesis import strategies as st

import numpy as np

from groupwidths.finite_groups import FiniteGroup, abelian_group, cyclic, dihedral, direct_product, sym3_fink
from groupwidths.free_words import FreeWord, MonoidWord
from groupwidths.nilprod import NilProdGroup
from groupwidths.wreath import WreathElement, WreathGroup

from oracle import brute_layers, factor_elements

# the CLI tests run `python -m groupwidths.cli` in a subprocess; put this
# checkout's src/ on its path too, as pyproject's pythonpath does in-process
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


def traced_peak_mib(call):
    """(call(), the peak of the memory it allocated in MiB), by tracemalloc."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def random_reduced_word(rng: random.Random, rank: int, max_letters: int) -> FreeWord:
    """Uniform-ish reduced word with letter length <= max_letters."""
    budget = rng.randrange(max_letters + 1)
    syllables: list[tuple[int, int]] = []
    prev = 0
    length = 0
    while length < budget:
        gen = rng.choice([g for g in range(1, rank + 1) if g != prev])
        exp = rng.choice([-1, 1]) * rng.randint(1, min(4, budget - length))
        syllables.append((gen, exp))
        length += abs(exp)
        prev = gen
    return FreeWord(rank, tuple(syllables))


def random_wreath_element(rng: random.Random, W: WreathGroup, max_letters: int) -> WreathElement:
    base = tuple(random_reduced_word(rng, W.rank, max_letters) for _ in range(W.size))
    return WreathElement(W, base, rng.randrange(W.top.order))


def centralizer_vectors(np_group: NilProdGroup, i: int) -> set[tuple[int, ...]]:
    """The vectors of factor i that ``centralizer_moduli`` calls central:
    each entry a multiple of its summand's modulus there."""
    moduli = np_group.centralizer_moduli(i)
    return {v for v in factor_elements(np_group, i) if all(x % L == 0 for x, L in zip(v, moduli))}


def relabel(G: FiniteGroup, perm: list[int]) -> FiniteGroup:
    """G with element id a renamed perm[a]: the same generator labels, the
    table entries moved and renamed."""
    p = np.array(perm)
    table = np.empty_like(G.table)
    table[np.ix_(p, p)] = p[G.table]
    return FiniteGroup(table, [(label, perm[g]) for label, g in G.gens], name=G.name)


def label_map(G: FiniteGroup, H: FiniteGroup, words: dict[str, str]) -> dict[int, int]:
    """A map named by label words: the value in G of each '*'-joined word
    to the value in H of its image."""
    return {G.element_from_label_word(u): H.element_from_label_word(v) for u, v in words.items()}


# groups of order at most 24 for the brute-force comparisons of the closures
SMALL_GROUPS = [cyclic(m) for m in range(1, 25)] + [dihedral(m) for m in range(1, 13)]
SMALL_GROUPS += [sym3_fink()] + [direct_product(sym3_fink(), cyclic(m)) for m in (2, 3, 4)]
SMALL_GROUPS += [direct_product(dihedral(4), cyclic(3)), direct_product(cyclic(2), abelian_group([2, 6]))]


@st.composite
def relabelled_small_groups(draw) -> FiniteGroup:
    """A group of order at most 24 as a table whose ids are permuted at random."""
    G = draw(st.sampled_from(SMALL_GROUPS))
    return relabel(G, draw(st.permutations(range(G.order))))


@st.composite
def random_generating_sets(draw) -> FiniteGroup:
    """A relabelled small group with a random symmetric generating set:
    elements in random order, each with its inverse, until they generate,
    then up to three more."""
    G = draw(relabelled_small_groups())
    ids = draw(st.permutations(range(G.order)))
    chosen: set[int] = set()
    k = 0
    while sum(map(len, brute_layers(G, sorted(chosen)))) < G.order:
        chosen |= {ids[k], int(G.inverse[ids[k]])}
        k += 1
    for x in ids[k:k + draw(st.integers(0, 3))]:
        chosen |= {x, int(G.inverse[x])}
    return FiniteGroup(G.table, [(f"g{x}", x) for x in sorted(chosen)], name=G.name)


def permutation_group(cycles: list[str], degree: int) -> FiniteGroup:
    """The group the permutations generate, as a table with
    (p*q)(k) = p(q(k)); each generator that is not an involution gets a
    ``^-1`` partner.  The elements are closed by BFS from the identity
    (id 0), and column b of the table is column a gathered at column
    parent(b), since x*b = (x*parent(b))*a."""
    gens = []
    for i, text in enumerate(cycles):
        p = list(range(degree))
        for cycle in text[1:-1].split(")("):
            points = [int(c) for c in cycle]
            for a, b in zip(points, points[1:] + points[:1]):
                p[a] = b
        gens.append((f"p{i}", tuple(p)))
        inverse = tuple(np.argsort(p).tolist())
        if inverse != tuple(p):
            gens.append((f"p{i}^-1", inverse))
    elements, parent = [tuple(range(degree))], [None]
    index = {elements[0]: 0}
    for x in elements:
        for j, (_, a) in enumerate(gens):
            y = tuple(x[k] for k in a)
            if y not in index:
                index[y] = len(elements)
                elements.append(y)
                parent.append((index[x], j))
    perms = np.array(elements)
    # column j: x -> x*a_j, found by sorted base-degree keys
    weights = degree ** np.arange(degree)
    keys = perms @ weights
    order_of_keys = np.argsort(keys)
    cols = [order_of_keys[np.searchsorted(keys, perms[:, list(a)] @ weights, sorter=order_of_keys)]
            for _, a in gens]
    columns = np.empty((len(elements), len(elements)), dtype=np.int32)
    columns[0] = np.arange(len(elements))
    for b in range(1, len(elements)):
        p, j = parent[b]
        columns[b] = cols[j][columns[p]]
    return FiniteGroup(columns.T, [(label, index[a]) for label, a in gens], name="perm")


def moved_identity(G: FiniteGroup, seed: int) -> FiniteGroup:
    """G relabelled by a seeded random permutation that moves the identity
    off id 0 (G of order at least 2)."""
    rng = random.Random(seed)
    perm = list(range(G.order))
    while perm[G.identity] == 0:
        rng.shuffle(perm)
    return relabel(G, perm)


# factors for random direct products: cyclic, dihedral, S3, the order-27
# Heisenberg group as a nilpotent product, and relabelled groups whose
# identity is not id 0
def _product_factors() -> list[FiniteGroup]:
    h27 = NilProdGroup([[3], [3]]).group
    plain = [cyclic(m) for m in range(1, 7)] + [dihedral(m) for m in range(1, 6)]
    plain += [sym3_fink(), h27]
    moved = [moved_identity(G, seed) for seed, G in enumerate([cyclic(4), dihedral(4), sym3_fink(), h27])]
    return plain + moved


PRODUCT_FACTORS = _product_factors()


@st.composite
def bracketed(draw, factors: list[FiniteGroup], cap: int) -> FiniteGroup:
    """The direct product of the factors in this order, bracketed at random."""
    if len(factors) == 1:
        return factors[0]
    k = draw(st.integers(1, len(factors) - 1))
    left = draw(bracketed(factors[:k], cap))
    return direct_product(left, draw(bracketed(factors[k:], cap)), cap=cap)


@st.composite
def direct_products(draw, max_order: int, max_factors: int = 4) -> FiniteGroup:
    """A direct product of 2..max_factors factors from ``PRODUCT_FACTORS``
    of order at most max_order, bracketed at random."""
    count = draw(st.integers(2, max_factors))
    factors: list[FiniteGroup] = []
    order = 1
    for _ in range(count):
        fits = [F for F in PRODUCT_FACTORS if order * F.order <= max_order]
        factors.append(draw(st.sampled_from(fits)))
        order *= factors[-1].order
    return draw(bracketed(factors, max_order))


@st.composite
def products_of_generating_sets(draw, max_order: int, max_factors: int = 3) -> FiniteGroup:
    """A direct product of 2..max_factors groups from ``random_generating_sets``,
    bracketed at random: factors are drawn while the order stays at most
    max_order, so two always fit when max_order >= 24^2, the small groups
    having order at most 24.  Each factor's labels carry their own letter,
    so none collide."""
    factors, order = [], 1
    for letter in "abcdefgh"[:draw(st.integers(2, max_factors))]:
        F = draw(random_generating_sets())
        if order * F.order > max_order:
            break
        factors.append(FiniteGroup(F.table, [(f"{letter}{x}", x) for _, x in F.gens], name=F.name))
        order *= F.order
    return draw(bracketed(factors, max_order))


def invert_letters(letters: tuple[str, ...]) -> tuple[str, ...]:
    """The inverse of a letter word over x<i>, x<i>^-1."""
    return tuple(l[:-3] if l.endswith("^-1") else l + "^-1" for l in reversed(letters))


def reversed_word(w: MonoidWord) -> MonoidWord:
    """The word's letters in reverse order: a view of its codes."""
    return MonoidWord.from_codes(w.codes[::-1], w.alphabet)


def free_generator(rank: int, gen: int, exp: int = 1) -> FreeWord:
    """The free word x_gen^exp of the given rank, the identity if exp is 0."""
    return FreeWord(rank, ((gen, exp),) if exp else ())


def spelled_out(w: FreeWord) -> MonoidWord:
    """A free word letter by letter over x<i>, x<i>^-1."""
    return MonoidWord(l for g, e in w.syllables for l in [f"x{g}" if e > 0 else f"x{g}^-1"] * abs(e))


def _syllable_atom(gen_exp: tuple[int, int]) -> tuple[str, tuple[str, ...]]:
    gen, exp = gen_exp
    letter = f"x{gen}" if exp > 0 else f"x{gen}^-1"
    return (f"x{gen}" if exp == 1 else f"x{gen}^{exp}"), (letter,) * abs(exp)


def _commutator_atom(u, v, pads: list[str]) -> tuple[str, tuple[str, ...]]:
    # [u, v] = u^-1 v^-1 u v, with the given padding around u and v
    text = f"[{pads[0]}{u[0]}{pads[1]},{pads[2]}{v[0]}{pads[3]}]"
    return text, invert_letters(u[1]) + invert_letters(v[1]) + u[1] + v[1]


# free-word text atoms with their spelled-out letters: syllables x<g>^<e>
# (e may be 0), the x/y aliases, "1", and commutators of atoms, nested and
# padded with spaces inside the brackets
plain_atoms = st.one_of(
    st.tuples(st.integers(1, 3), st.integers(-3, 3)).map(_syllable_atom),
    st.sampled_from([("x", ("x1",)), ("y", ("x2",)), ("x^-1", ("x1^-1",)), ("y^-1", ("x2^-1",))]),
    st.just(("1", ())),
)
spelled_atoms = st.recursive(
    plain_atoms,
    lambda inner: st.builds(
        _commutator_atom, inner, inner, st.lists(st.sampled_from(["", " ", "  "]), min_size=4, max_size=4)
    ),
    max_leaves=5,
)


@st.composite
def spelled_texts(draw, max_atoms: int = 8) -> tuple[str, tuple[str, ...]]:
    """A free-word text of atoms separated by single or double spaces, with
    its letters spelled out."""
    atoms = draw(st.lists(spelled_atoms, min_size=1, max_size=max_atoms))
    gaps = draw(st.lists(st.sampled_from([" ", "  "]), min_size=len(atoms) + 1, max_size=len(atoms) + 1))
    text = gaps[0] + "".join(t + gap for (t, _), gap in zip(atoms, gaps[1:]))
    return text, tuple(l for _, ls in atoms for l in ls)
