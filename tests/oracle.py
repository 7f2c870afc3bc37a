"""Independent brute-force oracles used to cross-validate the package.

``reference_evaluate_letters`` folds a letter word into a wreath group one
letter at a time, through ``w_multiply`` of single-letter elements; it
shares no code with the production evaluator.

``tensor_of`` is the reference tensor a (x) b of a two-factor nilpotent
product, written from the bilinear formula rather than the group table.

The width oracle works with literal words only: half-words are grown letter by letter (one
witness word per (value, reversed-value) state, which prunes nothing from
the palindrome element set), palindromes are materialized as real letter
sequences of length up to 2*order+1, checked with the literal palindrome
predicate, and evaluated through the evaluation homomorphism.  Minimal
palindrome-product lengths then come from a plain per-element BFS.  None
of the production pair/covering formulas are used.
"""

from __future__ import annotations

from collections import deque

from groupwidths.finite_groups import FiniteGroup, evaluate
from groupwidths.free_words import FreeWord, MonoidWord, is_word_palindrome
from groupwidths.wreath import WreathElement, WreathGroup, w_multiply


def brute_width_data(
    G: FiniteGroup, notion: str, max_half_len: int | None = None
) -> tuple[set[int], dict[int, int], int]:
    """(palindrome elements, per-element lengths, width) by enumeration."""
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

    pal: set[int] = set()
    if notion == "group":
        for (g, h), v in witness.items():
            if g == h:
                w = MonoidWord(v)
                assert evaluate(G, w) == g and evaluate(G, w.reverse()) == g
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
            h = W.from_base_word(FreeWord.generator(W.rank, gen, exp))
        elif letter in top_letters:
            h = W.from_top(top_letters[letter])
        else:
            raise ValueError(f"letter {letter!r} is neither a base nor a top generator")
        g = w_multiply(g, h)
    return g


def tensor_of(np_group, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """a (x) b as a central tensor vector of a two-factor ``NilProdGroup``:
    the coordinate of summand pair (u, v) is a_u * b_v modulo its gcd."""
    assert np_group.s == 2, "the formula pairs factor 0 with factor 1 only"
    out = [0] * len(np_group.tensor_moduli)
    for (_, _, u, v), pos in np_group.tensor_index.items():
        out[pos] = (a[u] * b[v]) % np_group.tensor_moduli[pos]
    return tuple(out)
