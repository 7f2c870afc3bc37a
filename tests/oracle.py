"""Independent brute-force oracles used to cross-validate the package.

``reference_evaluate_letters`` folds a letter word into a wreath group one
letter at a time, through ``w_multiply`` of single-letter elements; it
shares no code with the production evaluator.

``reference_reduce``, ``reference_fault`` and ``reference_format`` treat a
free word as a plain tuple of (generator, exponent) pairs, one pair at a
time, with no arrays: free reduction on a stack, the first pair that
breaks the normal form, and the syllable text.  ``reference_word`` reads
a letter word over x<i>, x<i>^-1 as its pairs and reduces them on the
stack.

``tensor_of`` is the reference tensor a (x) b of a two-factor nilpotent
product, written from the bilinear formula rather than the group table.
``decode``, ``encode``, ``embed``, ``central``, ``split_coords`` and
``factor_elements`` read a ``NilProdGroup`` element id as its mixed-radix
coordinates (factor vectors, then tensor coordinates) and back, from
``radix``, ``factor_moduli`` and ``tensor_moduli`` alone.

``commutator`` is g^-1 h^-1 g h one table entry at a time;
``brute_commutator_set``, ``brute_derived_subgroup`` and
``brute_commutator_width`` take every commutator in Python loops over the
table and close the set under products with ``brute_layers``.
``element_order`` multiplies an element by itself until the identity.

``tr`` is the summand of a quasi-length, by a residue lookup.
``w_invert`` inverts a wreath element coordinate by coordinate and moves
the words by the inverse top; ``w_commutator`` multiplies the inverses
and the elements out by ``w_multiply``.

The width oracle works with literal words only: half-words are grown letter by letter (one
witness word per (value, reversed-value) state, which prunes nothing from
the palindrome element set), palindromes are materialized as real letter
sequences of length up to 2*order+1, checked with the literal palindrome
predicate, and evaluated through the evaluation homomorphism.  Minimal
palindrome-product lengths then come from a plain per-element BFS.  None
of the production pair/covering formulas are used.

``brute_layers`` is the breadth-first layers of {1} under right
multiplication by a factor list, one product at a time over Python sets;
it shares no code with ``product_layers``.

``extends_to_isomorphism`` checks a named isomorphism: a map given on
generating elements, extended along products and compared against both
tables.  It searches for nothing, so a test that identifies two groups
states the map that identifies them.
"""

from __future__ import annotations

from collections import deque
from itertools import accumulate, product

import numpy as np

from groupwidths.finite_groups import FiniteGroup, evaluate
from groupwidths.free_words import FreeWord, MonoidWord, is_word_palindrome
from groupwidths.wreath import WreathElement, WreathGroup, base_action, w_multiply


def brute_pair_witnesses(
    G: FiniteGroup, max_half_len: int | None = None
) -> dict[tuple[int, int], tuple[str, ...]]:
    """One shortest label word w per reachable state (value of w, value of
    reversed w), the words grown letter by letter up to max_half_len
    letters (the order by default)."""
    if max_half_len is None:
        max_half_len = G.order
    e = G.identity
    witness: dict[tuple[int, int], tuple[str, ...]] = {(e, e): ()}
    frontier: list[tuple[tuple[int, int], tuple[str, ...]]] = [((e, e), ())]
    depth = 0
    while frontier and depth < max_half_len:
        depth += 1
        new = []
        for (g, h), v in frontier:
            for label, a in G.gens:
                state = (G.table[g][a], G.table[a][h])
                if state not in witness:
                    word = v + (label,)
                    witness[state] = word
                    new.append((state, word))
        frontier = new
    return witness


def brute_width_data(
    G: FiniteGroup, notion: str, max_half_len: int | None = None
) -> tuple[set[int], dict[int, int], int]:
    """(palindrome elements, per-element lengths, width) by enumeration."""
    e = G.identity
    witness = brute_pair_witnesses(G, max_half_len)
    pal: set[int] = set()
    if notion == "group":
        for (g, h), v in witness.items():
            if g == h:
                w = MonoidWord(v)
                assert evaluate(G, w) == g and evaluate(G, MonoidWord(v[::-1])) == g
                pal.add(g)
    elif notion == "word":
        for (_, _), v in witness.items():
            even = MonoidWord(v + tuple(reversed(v)))
            assert is_word_palindrome(even)
            pal.add(evaluate(G, even))
            for label, _ in G.gens:
                odd = MonoidWord(v + (label,) + tuple(reversed(v)))
                assert is_word_palindrome(odd)
                pal.add(evaluate(G, odd))
    else:
        raise ValueError(f"unknown notion {notion!r}")

    lengths = {e: 0}
    queue = deque([e])
    while queue:
        g = queue.popleft()
        for p in pal:
            h = G.table[g][p]
            if h not in lengths:
                lengths[h] = lengths[g] + 1
                queue.append(h)
    assert len(lengths) == G.order, "palindromes fail to generate the group"
    return pal, lengths, max(lengths.values())


def brute_layers(G: FiniteGroup, factors) -> list[list[int]]:
    """Layer 0 is [1]; layer k+1 is every x*p, x in layer k and p a factor,
    that lies in no earlier layer; ascending lists, up to the first empty
    layer."""
    seen = {G.identity}
    layers = [[G.identity]]
    while True:
        new = {int(G.table[x][p]) for x in layers[-1] for p in factors} - seen
        if not new:
            return layers
        seen |= new
        layers.append(sorted(new))


def extends_to_isomorphism(G: FiniteGroup, H: FiniteGroup, images: dict[int, int]) -> bool:
    """True iff the map g -> images[g], on elements g of G, extends to an
    isomorphism G -> H.  The map, with 1 -> 1 unless ``images`` says
    otherwise, is closed breadth-first under right multiplication: x*g
    takes phi(x)*images[g] when first reached.  The result must cover G
    (the g generate it), be a bijection onto H, and be multiplicative on
    the whole table, which makes it agree on every other path too."""
    phi = {G.identity: H.identity, **images}
    queue = deque(phi)
    while queue:
        x = queue.popleft()
        for g, h in images.items():
            xg = int(G.table[x][g])
            if xg not in phi:
                phi[xg] = int(H.table[phi[x]][h])
                queue.append(xg)
    if len(phi) != G.order or sorted(phi.values()) != list(range(H.order)):
        return False
    perm = np.array([phi[x] for x in range(G.order)])
    return np.array_equal(H.table[perm[:, None], perm], perm[G.table])


def reference_evaluate_letters(
    W: WreathGroup,
    word: MonoidWord,
    base_letters: dict[str, tuple[int, int]],
    top_letters: dict[str, int],
) -> WreathElement:
    """The product, letter by letter, of the elements the letters stand for:
    a base letter is its generator power at the identity coordinate (the
    product moves it to the coordinate of the running top), a top letter
    its embedded top element.  A letter in both maps is a base letter."""
    g = W.identity()
    for letter in word.letters:
        if letter in base_letters:
            gen, exp = base_letters[letter]
            h = W.from_base_word(FreeWord(W.rank, ((gen, exp),) if exp else ()))
        elif letter in top_letters:
            h = W.from_top(top_letters[letter])
        else:
            raise ValueError(f"letter {letter!r} is neither a base nor a top generator")
        g = w_multiply(g, h)
    return g


def reference_reduce(syllables) -> tuple[tuple[int, int], ...]:
    """Free reduction of a sequence of (generator, exponent) pairs: each
    pair is pushed on a stack, merging with a top on the same generator
    and popping it when the exponents cancel."""
    stack: list[tuple[int, int]] = []
    for gen, exp in syllables:
        if stack and stack[-1][0] == gen:
            exp += stack.pop()[1]
        if exp:
            stack.append((gen, exp))
    return tuple(stack)


def reference_word(rank: int, letters) -> FreeWord:
    """The reduced free word of the letters x<i> and x<i>^-1, each read as
    the pair (i, 1) or (i, -1) and reduced by ``reference_reduce``."""
    pairs = [(int(a[1:-3]), -1) if a.endswith("^-1") else (int(a[1:]), 1) for a in letters]
    return FreeWord(rank, reference_reduce(pairs))


def reference_fault(rank: int, syllables) -> str | None:
    """The message for the first pair that is not in normal form: its
    generator outside 1..rank, else a zero exponent, else the generator of
    the pair before it; None for a reduced word."""
    prev = None
    for gen, exp in syllables:
        if not 1 <= gen <= rank:
            return f"generator index {gen} out of range 1..{rank}"
        if exp == 0:
            return "zero exponent syllable"
        if gen == prev:
            return "adjacent syllables share a generator (not reduced)"
        prev = gen
    return None


def reference_format(syllables) -> str:
    """x<g>^<e> per pair, ^1 left out, space separated; "1" when empty."""
    return " ".join(f"x{g}" if e == 1 else f"x{g}^{e}" for g, e in syllables) or "1"


def tensor_of(np_group, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """a (x) b as a central tensor vector of a two-factor ``NilProdGroup``:
    the coordinate of summand pair (u, v) is a_u * b_v modulo its gcd."""
    assert np_group.s == 2, "the formula pairs factor 0 with factor 1 only"
    out = [0] * len(np_group.tensor_moduli)
    for (_, _, u, v), pos in np_group.tensor_index.items():
        out[pos] = (a[u] * b[v]) % np_group.tensor_moduli[pos]
    return tuple(out)


def decode(np_group, eid: int) -> tuple[int, ...]:
    """The mixed-radix coordinates of an element id, the last coordinate
    least significant."""
    coords = []
    for m in reversed(np_group.radix):
        eid, r = divmod(eid, m)
        coords.append(r)
    return tuple(reversed(coords))


def encode(np_group, coords) -> int:
    """The element id of coordinates, each reduced modulo its radix."""
    eid = 0
    for m, c in zip(np_group.radix, coords):
        eid = eid * m + c % m
    return eid


def _starts(np_group) -> list[int]:
    # the first coordinate of each factor, then of the tensor part
    return list(accumulate(map(len, np_group.factor_moduli), initial=0))


def embed(np_group, i: int, vector) -> int:
    """The id of a vector of factor i: its coordinates there, 0 elsewhere."""
    assert len(vector) == len(np_group.factor_moduli[i])
    coords = [0] * len(np_group.radix)
    start = _starts(np_group)[i]
    coords[start : start + len(vector)] = vector
    return encode(np_group, coords)


def central(np_group, tensor) -> int:
    """The id of a tensor vector: 0 in every factor coordinate."""
    assert len(tensor) == len(np_group.tensor_moduli)
    return encode(np_group, (0,) * _starts(np_group)[-1] + tuple(tensor))


def split_coords(np_group, coords) -> tuple[list[tuple[int, ...]], tuple[int, ...]]:
    """(the factor vectors, the tensor vector) of coordinates."""
    starts = _starts(np_group)
    return [tuple(coords[a:b]) for a, b in zip(starts, starts[1:])], tuple(coords[starts[-1]:])


def factor_elements(np_group, i: int) -> list[tuple[int, ...]]:
    """Every vector of factor i."""
    return list(product(*map(range, np_group.factor_moduli[i])))


def commutator(G: FiniteGroup, g: int, h: int) -> int:
    """[g, h] = g^-1 h^-1 g h, one table entry at a time."""
    T, inv = G.table, G.inverse
    return int(T[T[T[inv[g]][inv[h]]][g]][h])


def brute_commutator_set(G: FiniteGroup) -> set[int]:
    """Every commutator [g, h], over all pairs of elements."""
    return {commutator(G, g, h) for g in range(G.order) for h in range(G.order)}


def brute_derived_subgroup(G: FiniteGroup) -> set[int]:
    """[G, G]: every commutator, closed under products."""
    return {x for layer in brute_layers(G, sorted(brute_commutator_set(G))) for x in layer}


def brute_commutator_width(G: FiniteGroup) -> int:
    """The least k with every element of [G, G] a product of at most k
    commutators (the commutators are closed under inverses, as
    [g, h]^-1 = [h, g]); 0 when [G, G] is trivial."""
    return len(brute_layers(G, sorted(brute_commutator_set(G)))) - 1


def element_order(G: FiniteGroup, g: int) -> int:
    """The least n >= 1 with g^n = 1."""
    n, x = 1, g
    while x != G.identity:
        x = int(G.table[x][g])
        n += 1
    return n


def tr(m: int) -> int:
    """0, 1 or -1 as m mod 3 is 0, 1 or 2."""
    return (0, 1, -1)[m % 3]


def w_invert(g: WreathElement) -> WreathElement:
    """g^-1 = (k^-1 acting on the inverted words, k^-1) for g = (p, k)."""
    W = g.group
    kinv = int(W.top.inverse[g.top])
    inverted = tuple(w.inverse() for w in g.base)
    return WreathElement(W, base_action(W, inverted, kinv), kinv)


def w_commutator(g: WreathElement, h: WreathElement) -> WreathElement:
    """[g, h] = g^-1 h^-1 g h in a wreath group."""
    return w_multiply(w_multiply(w_invert(g), w_invert(h)), w_multiply(g, h))
