#!/usr/bin/env python3
"""Survey exact palindromic widths over the standard small-group families
and the 2-nilpotent product sandwiches.

Prints, per group: order, width under the word-palindrome notion, width
under the group-palindrome notion, and the palindrome-set sizes.  For the
nilpotent products it also prints the theorem bounds around the exact
width.
"""

import argparse
import itertools

import numpy as np

from groupwidths.finite_groups import cyclic, dihedral, direct_product, sym3_fink
from groupwidths.nilprod import NilProdGroup, bound_report
from groupwidths.pal_width import palindrome_elements, palindromic_width


def survey_group(G) -> str:
    word = palindromic_width(G, "word")
    group = palindromic_width(G, "group")
    pw_set = palindrome_elements(G, "word")
    pg_set = palindrome_elements(G, "group")
    assert np.isin(pw_set, pg_set).all()
    return (
        f"{G.name:12s} |G|={G.order:<4d} pw(word)={word.width}  pw(group)={group.width}  "
        f"|P_word|={len(pw_set):<3d} |P_group|={len(pg_set)}"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-cyclic", type=int, default=8)
    parser.add_argument("--max-dihedral", type=int, default=6)
    parser.add_argument("--products", action="store_true", help="include pairwise direct products")
    args = parser.parse_args()

    print("== cyclic groups ==")
    for m in range(2, args.max_cyclic + 1):
        print(survey_group(cyclic(m)))
    print("== dihedral groups ==")
    for m in range(3, args.max_dihedral + 1):
        print(survey_group(dihedral(m)))
    print("== symmetric group on 3 points (two-transposition + 3-cycle letters) ==")
    print(survey_group(sym3_fink()))

    if args.products:
        print("== direct products of cyclics ==")
        for m1, m2 in itertools.combinations_with_replacement(range(2, args.max_cyclic + 1), 2):
            print(survey_group(direct_product(cyclic(m1), cyclic(m2))))

    print("== 2-nilpotent products: max(pw_i) <= exact <= bound ==")
    for A, B in itertools.combinations_with_replacement(([2], [3], [4], [2, 2]), 2):
        np2 = NilProdGroup([A, B])
        rep = bound_report(np2)
        tag = "direct product" if rep.branch == "ii" else f"3*sum(m)={3 * sum(rep.m)}"
        print(
            f"{np2.group.name:16s} |G|={np2.order:<4d} "
            f"[{rep.lower} <= {rep.exact} <= {rep.upper}]  branch {rep.branch} ({tag})"
        )


if __name__ == "__main__":
    main()
