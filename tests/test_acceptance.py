"""Acceptance suite: the seven release criteria, one pass/fail line each.

Every numeric check is exact (integer identities and inequalities; zero
tolerance).  Each criterion also carries a wall-clock budget.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the lines as they print.
"""

import itertools
import random
import time

import numpy as np

from groupwidths.decompose import decompose, s3_wreath_context
from groupwidths.finite_groups import (
    are_isomorphic,
    cyclic,
    dihedral,
    direct_product,
    sym3_fink,
)
from groupwidths.free_words import FreeWord, free_commutator, is_word_palindrome, ql, tr
from groupwidths.nilprod import NilProdGroup, bound_report
from groupwidths.pal_width import palindrome_elements, palindromic_width
from groupwidths.wreath import (
    WreathGroup,
    certify_cw_lower_bound,
    delta,
    q_sequence,
    w_commutator,
    w_invert,
    w_multiply,
)

from conftest import random_reduced_word, random_wreath_element
from oracle import brute_width_data

def report(criterion: int, ok: bool, budget_s: float, elapsed: float, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {criterion}: {detail} [{elapsed:.2f}s / budget {budget_s:.0f}s]")
    assert ok, f"criterion {criterion} failed: {detail}"
    assert elapsed < budget_s, f"criterion {criterion} over budget: {elapsed:.2f}s"

def test_criterion_1_quasi_length_suite():
    start = time.perf_counter()
    rng = random.Random(101)
    ok = True
    for _ in range(10_000):
        m, n = rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6)
        ok &= tr(m) + tr(n) - 3 <= tr(m + n) <= tr(m) + tr(n) + 3
        ok &= tr(-m) == -tr(m)
    for _ in range(5_000):
        rank = rng.randint(2, 4)
        f = random_reduced_word(rng, rank, 60)
        g = random_reduced_word(rng, rank, 60)
        ok &= ql(f) + ql(g) - 3 <= ql(f * g) <= ql(f) + ql(g) + 3
        ok &= ql(g.inverse()) == -ql(g)
        ok &= -9 <= ql(free_commutator(f, g)) <= 9
    elapsed = time.perf_counter() - start
    report(1, ok, 10, elapsed, "10000 integer pairs + 5000 word pairs, exact inequalities")

def test_criterion_2_delta_suite():
    start = time.perf_counter()
    W = WreathGroup(2, sym3_fink())
    l = W.size
    rng = random.Random(202)
    ok = True
    for _ in range(2_000):
        g = random_wreath_element(rng, W, 8)
        h = random_wreath_element(rng, W, 8)
        ok &= abs(delta(w_multiply(g, h)) - delta(g) - delta(h)) <= 3 * l
        ok &= abs(delta(g) + delta(w_invert(g))) <= 3 * l
        ok &= abs(delta(w_commutator(g, h))) <= 15 * l
    for j in range(1, 101):
        ok &= delta(q_sequence(W, j)) == 6 * j
    for m in range(1, 6):
        for _ in range(200):
            prod = W.identity()
            for _ in range(m):
                g = random_wreath_element(rng, W, 5)
                h = random_wreath_element(rng, W, 5)
                prod = w_multiply(prod, w_commutator(g, h))
            ok &= abs(delta(prod)) <= 3 * l * (6 * m - 1)
    elapsed = time.perf_counter() - start
    report(2, ok, 30, elapsed, "delta bounds (3l/3l/15l), delta(q_j) = 6j, commutator-product cap")

def test_criterion_3_unboundedness_witness():
    start = time.perf_counter()
    W = WreathGroup(2, sym3_fink())
    ok = True
    prev = 0
    exceeded_at = None
    for j in range(1, 701):
        cert = certify_cw_lower_bound(q_sequence(W, j))
        bound = 1 if cert is None else cert.lower_bound
        ok &= bound >= prev
        prev = bound
        if exceeded_at is None and bound > 10:
            exceeded_at = j
    ok &= exceeded_at is not None and exceeded_at == 178
    elapsed = time.perf_counter() - start
    report(3, ok, 5, elapsed, f"certified bound non-decreasing, exceeds 10 at j = {exceeded_at}")

def test_criterion_4_decomposition_suite():
    start = time.perf_counter()
    ctx = s3_wreath_context()
    rng = random.Random(404)
    ok = True
    worst = 0
    for _ in range(1_000):
        g = random_wreath_element(rng, ctx.group, 12)
        cert = decompose(g, ctx)
        flags = cert.verification(ctx)
        ok &= all(flags.values())
        ok &= cert.factor_count <= 20
        ok &= all(is_word_palindrome(f) for f in cert.factors)
        worst = max(worst, cert.factor_count)
    xy = free_commutator(FreeWord.generator(2, 1), FreeWord.generator(2, 2))
    ok &= decompose(ctx.group.from_base_word(xy), ctx).factor_count == 1
    elapsed = time.perf_counter() - start
    report(4, ok, 60, elapsed, f"1000 verified certificates, worst factor count {worst} (cap 20)")

def test_criterion_5_width_oracle_suite():
    start = time.perf_counter()
    groups = [cyclic(m) for m in range(2, 9)]
    groups += [
        direct_product(cyclic(m1), cyclic(m2))
        for m1, m2 in itertools.combinations_with_replacement(range(2, 9), 2)
    ]
    groups += [dihedral(m) for m in range(3, 7)]
    groups += [sym3_fink()]
    ok = True
    checked_brute = 0
    for G in groups:
        p_word = palindrome_elements(G, "word")
        p_group = palindrome_elements(G, "group")
        ok &= bool(np.isin(p_word, p_group).all())
        word_report = palindromic_width(G, "word")
        if G.is_abelian():
            ok &= palindromic_width(G, "group").width == (1 if G.order > 1 else 0)
        if G.order <= 24:
            for notion, production in (("word", word_report), ("group", palindromic_width(G, "group"))):
                pal, lengths, width = brute_width_data(G, notion)
                ok &= pal == set(production.palindromes.tolist())
                ok &= lengths == dict(enumerate(production.length.tolist()))
                ok &= width == production.width
            checked_brute += 1
    elapsed = time.perf_counter() - start
    report(
        5,
        ok,
        120,
        elapsed,
        f"{len(groups)} groups: word widths exact, brute-force agreement on {checked_brute} "
        "groups of order <= 24, abelian group-notion width 1, word set inside group set",
    )

def test_criterion_6_nilpotent_product_suite():
    start = time.perf_counter()
    ok = are_isomorphic(NilProdGroup([[2], [2]]).group, dihedral(4))
    factors = [[2], [3], [4], [2, 2]]
    for A, B in itertools.product(factors, repeat=2):
        np2 = NilProdGroup([A, B])
        G = np2.group
        emb_a = {np2.embed(0, v) for v in np2.factor_elements(0)}
        emb_b = {np2.embed(1, v) for v in np2.factor_elements(1)}

        def conj_closure(S):
            from collections import deque

            conj = {G.table[G.table[G.inverse[g]][s]][g] for s in S for g in G.elements()}
            sub = {G.identity}
            queue = deque([G.identity])
            while queue:
                x = queue.popleft()
                for c in conj:
                    y = G.table[x][c]
                    if y not in sub:
                        sub.add(y)
                        queue.append(y)
            return sub

        # property (1): each factor meets the other's normal closure trivially
        ok &= conj_closure(emb_a) & emb_b == {G.identity}
        ok &= conj_closure(emb_b) & emb_a == {G.identity}
        # property (2): unique normal form a * b * t
        for e in G.elements():
            coords = np2.decode(e)
            a = np2.embed(0, np2.factor_slice(coords, 0))
            b = np2.embed(1, np2.factor_slice(coords, 1))
            t = np2.central(np2.tensor_part(coords))
            ok &= G.table[G.table[a][b]][t] == e
        # property (4): triple commutators of embedded elements vanish
        def comm(x, y):
            return G.table[G.table[G.table[G.inverse[x]][G.inverse[y]]][x]][y]

        emb = emb_a | emb_b
        for x in emb:
            for y in emb:
                xy = comm(x, y)
                for z in emb:
                    ok &= comm(xy, z) == G.identity
        # centralizer products meet the tensor component trivially
        CA, CB = np2.centralizer_factor(0), np2.centralizer_factor(1)
        prods = {G.table[np2.embed(0, a)][np2.embed(1, b)] for a in CA for b in CB}
        tensor = {
            np2.central(t) for t in itertools.product(*(range(m) for m in np2.tensor_moduli))
        }
        ok &= prods & tensor == {G.identity}
        # sandwich with the oracle-exact width in the middle
        sandwich = bound_report(np2, include_exact=False)
        sandwich.exact = palindromic_width(G, "word").width
        ok &= sandwich.holds()
    elapsed = time.perf_counter() - start
    report(6, ok, 120, elapsed, "D8 identification, structural properties, exact-width sandwiches")

def test_criterion_7_cli_round_trips(tmp_path):
    import json
    import subprocess
    import sys

    start = time.perf_counter()

    def run(*args):
        proc = subprocess.run(
            [sys.executable, "-m", "groupwidths.cli", *args], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        out.pop("wall_time_s")
        return out

    ok = True
    spec_path = tmp_path / "z44.json"
    spec_path.write_text(
        json.dumps(
            {
                "kind": "direct_product",
                "factors": [{"kind": "cyclic", "n": 4}, {"kind": "cyclic", "n": 4}],
            }
        )
    )
    first = run("pw", str(spec_path), "--notion", "word")
    ok &= first["result"]["width"] == 2
    ok &= first == run("pw", str(spec_path), "--notion", "word")

    from groupwidths.wreath import format_wreath_element, parse_wreath_element

    W = WreathGroup(2, sym3_fink())
    for j in (1, 60):
        text = format_wreath_element(q_sequence(W, j))
        rep = run("qh", text)
        ok &= rep["result"]["element"] == text
        ok &= parse_wreath_element(W, rep["result"]["element"]) == q_sequence(W, j)
        ok &= rep == run("qh", rep["result"]["element"])
    ok &= run("qh", format_wreath_element(q_sequence(W, 60)))["result"]["certificate"][
        "commutator_length_at_least"
    ] == 4

    dec = run("decompose", "[ [x,y]; 1; 1; 1; 1; 1 ] 1")
    ok &= dec["result"]["factor_count"] == 1
    ok &= dec["result"] == run("decompose", dec["result"]["target"])["result"]

    np_path = tmp_path / "np.json"
    np_path.write_text(json.dumps([{"moduli": [2]}, {"moduli": [2]}]))
    np_report = run("nilprod", str(np_path))
    ok &= (np_report["result"]["lower"], np_report["result"]["exact"], np_report["result"]["upper"]) == (1, 2, 8)
    ok &= np_report == run("nilprod", str(np_path))

    elapsed = time.perf_counter() - start
    report(7, ok, 60, elapsed, "four subcommands: round trips bit-exact, reports deterministic")
