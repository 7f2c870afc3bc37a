"""Reference arithmetic the benchmark checks results against.

Nothing here imports groupwidths: free reduction, quasi-lengths, the
free-word text format and evaluation of letter words in F_2 wr S3 are
re-implemented so that a wrong answer from the library cannot also be
the expected answer.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import groupby

# (generator, exponent) syllables; a word is a tuple of them


def reduce_syllables(syllables) -> tuple[tuple[int, int], ...]:
    """Freely reduced form of a syllable sequence."""
    stack: list[list[int]] = []
    for gen, exp in syllables:
        if exp == 0:
            continue
        if stack and stack[-1][0] == gen:
            stack[-1][1] += exp
            if stack[-1][1] == 0:
                stack.pop()
        else:
            stack.append([gen, exp])
    return tuple((g, e) for g, e in stack)


def inverse(word) -> tuple[tuple[int, int], ...]:
    return tuple((g, -e) for g, e in reversed(word))


def ql(word) -> int:
    """Sum over syllables of 0, 1 or -1 as the exponent is 0, 1 or 2 mod 3."""
    return sum((0, 1, -1)[e % 3] for _, e in reduce_syllables(word))


def format_syllables(word) -> str:
    """Free-word text: "x1^-3 x2", "1" for the identity (not reduced)."""
    if not word:
        return "1"
    return " ".join(f"x{g}" if e == 1 else f"x{g}^{e}" for g, e in word)


def parse_syllables(text: str) -> tuple[tuple[int, int], ...]:
    """Inverse of format_syllables for plain syllable text."""
    text = text.strip()
    if text == "1":
        return ()
    out = []
    for atom in text.split():
        if not atom.startswith("x"):
            raise ValueError(f"not a syllable: {atom!r}")
        gen, _, exp = atom[1:].partition("^")
        out.append((int(gen), int(exp) if exp else 1))
    return tuple(out)


def parse_wreath_text(text: str) -> tuple[tuple[tuple[tuple[int, int], ...], ...], str]:
    """Split "[w1; ...; wl] k" into parsed coordinates and the top text."""
    close = text.index("]")
    coords = tuple(parse_syllables(part) for part in text[1:close].split(";"))
    return coords, text[close + 1 :].strip()


def cw_lower_bound(d: int, top_order: int) -> int | None:
    """Least m with |d| <= 3l(6m - 1), i.e. ceil((|d|/(3l) + 1)/6), or None
    when |d| <= 15l (m would be 1)."""
    d = abs(d)
    if d <= 15 * top_order:
        return None
    return -(-(d + 3 * top_order) // (18 * top_order))


# ---------------------------------------------------------------------------
# F_2 wr S3 on the letters {x, y, s1, s2, c} and their inverses.  S3 is
# modelled as permutation tuples of (0, 1, 2) with mul(p, q) = p after q;
# c = s1 s2.  A base letter multiplies the coordinate indexed by the
# running top value on the right.
# ---------------------------------------------------------------------------

E = (0, 1, 2)
S1 = (1, 0, 2)
S2 = (0, 2, 1)


def mul(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(p[q[i]] for i in range(3))


TOP_LETTERS = {"s1": S1, "s2": S2, "c": mul(S1, S2), "c^-1": mul(S2, S1)}
BASE_LETTERS = {"x": (1, 1), "x^-1": (1, -1), "y": (2, 1), "y^-1": (2, -1)}


def _paths() -> dict[tuple[int, ...], tuple[str, ...]]:
    # shortest word over the involutions s1, s2 reaching each element
    paths = {E: ()}
    frontier = [E]
    while frontier:
        nxt = []
        for p in frontier:
            for label in ("s1", "s2"):
                q = mul(p, TOP_LETTERS[label])
                if q not in paths:
                    paths[q] = paths[p] + (label,)
                    nxt.append(q)
        frontier = nxt
    return paths


PATHS = _paths()
S3_ELEMENTS = sorted(PATHS)


def wreath_letters(coords: dict, top: tuple[int, ...]) -> list[str]:
    """A letter word with the given coordinate words and top.

    Each coordinate is reached by its path over s1, s2 and left by the
    reversed path, which is its inverse because s1 and s2 are involutions.
    """
    letters: list[str] = []
    for p, word in coords.items():
        path = PATHS[p]
        letters.extend(path)
        for gen, exp in word:
            name = ("x", "y")[gen - 1] + ("" if exp > 0 else "^-1")
            letters.extend([name] * abs(exp))
        letters.extend(reversed(path))
    letters.extend(PATHS[top])
    return letters


# maximal runs of base letters and of top letters in space-joined text
_SEGMENT = re.compile(r"[xy](?:\^-1)?(?: [xy](?:\^-1)?)*|(?:s1|s2|c(?:\^-1)?)(?: (?:s1|s2|c(?:\^-1)?))*")
_MUL = {(p, q): mul(p, q) for p in S3_ELEMENTS for q in S3_ELEMENTS}


@lru_cache(maxsize=4096)
def _base_segment(segment: str) -> tuple[tuple[int, int], ...]:
    return tuple((BASE_LETTERS[letter][0], BASE_LETTERS[letter][1] * len(list(run)))
                 for letter, run in groupby(segment.split(" ")))


@lru_cache(maxsize=4096)
def _top_segment(segment: str) -> tuple[int, ...]:
    value = E
    for letter in segment.split(" "):
        value = mul(value, TOP_LETTERS[letter])
    return value


def eval_letters(words) -> tuple[frozenset, tuple[int, ...]]:
    """Value of the concatenation of letter words: (nontrivial coordinates
    as (element, reduced word) pairs, top)."""
    stacks: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    top = E
    text = " ".join(" ".join(word) for word in words if word)
    end = 0
    for m in _SEGMENT.finditer(text):
        if m.start() != end + (end > 0):
            raise ValueError(f"unknown letter near {text[end:m.start()]!r}")
        end = m.end()
        segment = m.group()
        if segment[0] in "xy":
            stacks.setdefault(top, []).extend(_base_segment(segment))
        else:
            top = _MUL[top, _top_segment(segment)]
    if end != len(text):
        raise ValueError(f"unknown letter near {text[end:end + 20]!r}")
    coords = {p: reduce_syllables(w) for p, w in stacks.items()}
    return frozenset((p, w) for p, w in coords.items() if w), top
