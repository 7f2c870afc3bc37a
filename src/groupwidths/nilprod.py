"""Class-2 nilpotent products of finite abelian groups, concretely.

The product of abelian groups A_1, ..., A_s (each a direct sum of cyclic
groups) is modeled as a central extension: an element is a tuple of factor
vectors plus one central tensor coordinate per factor pair (i < j), with

    (v, t) * (v', t') = (v + v', t + t' - sum_{i<j} v'_i (x) v_j),

where Z_m (x) Z_n is cyclic of order gcd(m, n).  The commutator of the
embedded generators e_u of A_i and e_v of A_j (i < j) is then exactly the
central basis tensor e_u (x) e_v, the triple commutators of embedded
elements vanish, and normal forms are unique by construction.  The group
is exported as a verified multiplication table with the union of the
factor generating sets, so the palindromic-width oracle applies to it.

Width bounds: the width of the product is at least the largest factor
width and at most the sum of factor widths plus 3 * sum(m_i), where m_i
counts the factor-i generators that survive in the quotient by the
centralizer of the other factors; when every m_i is zero the product is
the direct product and the plain sum of factor widths is an upper bound.
"""

from __future__ import annotations

import string
from dataclasses import asdict, dataclass, field
from itertools import accumulate
from math import gcd, lcm, prod

import numpy as np

from .finite_groups import DEFAULT_CAP, FiniteGroup, _block_rows, _check_cap, _paired_gens
from .pal_width import palindromic_width
from .specs import _json_int

__all__ = [
    "NilProdGroup",
    "BoundReport",
    "nilprod2_multi",
    "width_bounds",
    "bound_report",
]


def _validate_moduli(moduli: list[int]) -> list[int]:
    if not isinstance(moduli, list):
        raise ValueError(f"each factor must be a list of moduli, got {moduli!r}")
    out = [_json_int(m, "modulus") for m in moduli]
    if not out or any(m < 1 for m in out):
        raise ValueError(f"moduli must be positive integers, got {moduli}")
    return out


@dataclass(eq=False)
class NilProdGroup:
    """Class-2 nilpotent product of s finite abelian factors."""

    factor_moduli: list[list[int]]
    cap: int = DEFAULT_CAP
    group: FiniteGroup = field(init=False)

    def __post_init__(self) -> None:
        self.factor_moduli = [_validate_moduli(m) for m in self.factor_moduli]
        self.s = len(self.factor_moduli)
        if self.s < 1:
            raise ValueError("at least one factor required")
        if self.s > len(string.ascii_lowercase):
            # generator labels are one letter per factor
            raise ValueError(f"at most {len(string.ascii_lowercase)} factors, got {self.s}")
        # tensor coordinates: one per (factor pair, summand pair) with gcd > 1
        self.tensor_index: dict[tuple[int, int, int, int], int] = {}
        self.tensor_moduli: list[int] = []
        for i in range(self.s):
            for j in range(i + 1, self.s):
                for u, mu in enumerate(self.factor_moduli[i]):
                    for v, mv in enumerate(self.factor_moduli[j]):
                        d = gcd(mu, mv)
                        if d > 1:
                            self.tensor_index[(i, j, u, v)] = len(self.tensor_moduli)
                            self.tensor_moduli.append(d)
        self.radix = [m for mod in self.factor_moduli for m in mod] + self.tensor_moduli
        self.order = prod(self.radix)
        _check_cap(self.order, self.cap, "nilpotent product")
        *self._offsets, self._tensor_offset = accumulate(map(len, self.factor_moduli), initial=0)
        self.group = self._build_group()

    # -- export ----------------------------------------------------------

    def _build_group(self) -> FiniteGroup:
        # the mixed-radix stride of each coordinate: an element's id is the
        # sum of its coordinates times their strides
        strides = [prod(self.radix[k + 1 :]) for k in range(len(self.radix))]
        # g indexes rows and h columns; each coordinate of g*h (g's plus h's,
        # less h_i (x) g_j if a tensor one) adds itself times its stride
        # into the int32 table (entries stay below the order), one block of
        # rows at a time through two block-sized scratch arrays
        coords = [c.astype(np.int32) for c in np.unravel_index(np.arange(self.order), self.radix)]
        tensor = {self._tensor_offset + pos: (self._offsets[j] + v, self._offsets[i] + u)
                  for (i, j, u, v), pos in self.tensor_index.items()}
        table = np.zeros((self.order, self.order), dtype=np.int32)
        step = _block_rows(self.order)
        value, product = (np.empty((step, self.order), dtype=np.int32) for _ in range(2))
        for r in range(0, self.order, step):
            rows = table[r : r + step]
            g = slice(r, r + len(rows))
            for k, (m, stride) in enumerate(zip(self.radix, strides)):
                v = np.add.outer(coords[k][g], coords[k], out=value[: len(rows)])
                if k in tensor:
                    a, b = tensor[k]
                    v -= np.multiply.outer(coords[a][g], coords[b], out=product[: len(rows)])
                v %= m
                v *= stride
                rows += v
        # handed over frozen, so FiniteGroup keeps it rather than copying
        table.flags.writeable = False
        # one generator per nontrivial summand: coordinate 1 there and 0
        # elsewhere, whose id is that coordinate's stride
        gens = [(letter if len(mod) == 1 else f"{letter}{u + 1}", strides[off + u])
                for letter, mod, off in zip(string.ascii_lowercase, self.factor_moduli, self._offsets)
                for u, m in enumerate(mod) if m > 1]
        name = "(2){" + ",".join("x".join(map(str, m)) for m in self.factor_moduli) + "}"
        return FiniteGroup(table, _paired_gens(gens, table), name=name)

    # -- structure ---------------------------------------------------------

    def centralizer_moduli(self, i: int) -> list[int]:
        """Per summand u of factor i, the least L with L*e_u central; the
        centralizer of the other factors consists of the multiples."""
        others = [mv for j, mod in enumerate(self.factor_moduli) if j != i for mv in mod]
        return [lcm(*(gcd(mu, mv) for mv in others)) for mu in self.factor_moduli[i]]

    def quotient_generator_count(self, i: int) -> int:
        """Number of factor-i generators with nontrivial image modulo the
        centralizer of the other factors."""
        return sum(1 for L in self.centralizer_moduli(i) if L > 1)


def nilprod2_multi(factor_moduli: list[list[int]], cap: int = DEFAULT_CAP) -> NilProdGroup:
    """``NilProdGroup`` of a copy of the list: the CLI's construction entry
    point, which the perfbench trace wraps by this name."""
    return NilProdGroup(list(factor_moduli), cap=cap)


@dataclass
class BoundReport:
    """Sandwich bounds on the palindromic width of a nilpotent product."""

    lower: int
    upper: int
    branch: str  # "ii" when a plain sum of factor widths suffices
    component_widths: list[int]
    m: list[int]
    exact: int | None = None

    def holds(self) -> bool:
        inside = self.exact is None or self.lower <= self.exact <= self.upper
        return self.lower <= self.upper and inside

    def to_json(self) -> dict:
        return asdict(self)


def width_bounds(component_widths: list[int], m: list[int]) -> BoundReport:
    """Bound arithmetic only; widths and m-counts supplied by the caller.

    Factors with m_i = 0 split off as direct factors and contribute
    nothing to the 3*sum(m) term; with all m_i = 0 the product is direct
    and the plain sum applies (branch ii).
    """
    if len(component_widths) != len(m):
        raise ValueError("component_widths and m must align")
    lower, upper = max(component_widths, default=0), sum(component_widths) + 3 * sum(m)
    return BoundReport(lower, upper, "i" if any(m) else "ii", list(component_widths), list(m))


def bound_report(np_group: NilProdGroup, include_exact: bool = True) -> BoundReport:
    """Full report: factor widths from the width oracle, m-counts from the
    centralizers, and optionally the oracle-exact width of the product."""
    from .finite_groups import abelian_group

    widths = [
        palindromic_width(abelian_group(mod, cap=np_group.cap), "word").width
        for mod in np_group.factor_moduli
    ]
    m = [np_group.quotient_generator_count(i) for i in range(np_group.s)]
    report = width_bounds(widths, m)
    if include_exact:
        report.exact = palindromic_width(np_group.group, "word").width
    return report
