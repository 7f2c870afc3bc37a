"""Shared test helpers: seeded random words and wreath elements."""

from __future__ import annotations

import os
import random
from pathlib import Path

from groupwidths.free_words import FreeWord
from groupwidths.wreath import WreathElement, WreathGroup

# the CLI tests run `python -m groupwidths.cli` in a subprocess; put this
# checkout's src/ on its path too, as pyproject's pythonpath does in-process
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


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
