"""Shared test helpers: seeded random words and wreath elements, groups
with relabelled element ids, random nested direct products, free-word
texts spelled out letter by letter, and a call's traced peak memory."""

from __future__ import annotations

import os
import random
import tracemalloc
from pathlib import Path

from hypothesis import strategies as st

import numpy as np

from groupwidths.finite_groups import FiniteGroup, cyclic, dihedral, direct_product, sym3_fink
from groupwidths.free_words import FreeWord
from groupwidths.nilprod import NilProdGroup
from groupwidths.wreath import WreathElement, WreathGroup

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


def relabel(G: FiniteGroup, perm: list[int]) -> FiniteGroup:
    """G with element id a renamed perm[a]: the same generator labels, the
    table entries moved and renamed."""
    p = np.array(perm)
    table = np.empty_like(G.table)
    table[np.ix_(p, p)] = p[G.table]
    return FiniteGroup(table, [(label, perm[g]) for label, g in G.gens], name=G.name)


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


def invert_letters(letters: tuple[str, ...]) -> tuple[str, ...]:
    """The inverse of a letter word over x<i>, x<i>^-1."""
    return tuple(l[:-3] if l.endswith("^-1") else l + "^-1" for l in reversed(letters))


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
