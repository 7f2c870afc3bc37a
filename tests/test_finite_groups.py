"""Constructors, table verification, evaluation, and the derived subgroup."""

import json
import math
import random
import re
import string
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupwidths import finite_groups, specs
from groupwidths.finite_groups import (
    CapExceeded,
    FiniteGroup,
    abelian_group,
    cyclic,
    dihedral,
    direct_product,
    evaluate,
    product_layers,
    sym3_fink,
)
from groupwidths.free_words import MonoidWord
from groupwidths.pal_width import NOTIONS, palindromic_width
from groupwidths.specs import group_from_spec, group_to_spec, spec_from_json

from conftest import (
    SMALL_GROUPS,
    direct_products,
    label_map,
    moved_identity,
    permutation_group,
    random_generating_sets,
    relabel,
    relabelled_small_groups,
    reversed_word,
    traced_peak_mib,
)
from oracle import (
    brute_commutator_set,
    brute_commutator_width,
    brute_derived_subgroup,
    brute_layers,
    commutator,
    element_order,
    extends_to_isomorphism,
)


class TestConstructors:
    def test_cyclic2_gens(self):
        G = cyclic(2)
        assert G.order == 2
        assert G.gens == [("a", 1)]  # self-inverse generator, single label

    def test_cyclic_gens_paired(self):
        G = cyclic(5)
        assert dict(G.gens) == {"a": 1, "a^-1": 4}

    def test_sym3_fink(self):
        G = sym3_fink()
        assert G.order == 6
        labels = dict(G.gens)
        assert G.table[labels["s1"]][labels["s2"]] == labels["c"]
        assert element_order(G, labels["c"]) == 3
        assert G.inverse[labels["c"]] == labels["c^-1"]

    def test_direct_product_labels(self):
        G = direct_product(cyclic(4), cyclic(4))
        assert G.order == 16
        assert sorted(G.labels) == ["a", "a^-1", "b", "b^-1"]

    def test_direct_product_labels_run_out(self):
        def c2(labels):
            gens = [[label, 1] for label in labels]
            return group_from_spec({"kind": "table", "table": [[0, 1], [1, 0]], "gens": gens})

        # the last fresh letter is still found; with none left it is a ValueError
        assert direct_product(c2(string.ascii_lowercase[:25]), c2("a")).labels["z"] == 1
        with pytest.raises(ValueError, match="no fresh lowercase letter"):
            direct_product(c2(string.ascii_lowercase), c2(string.ascii_lowercase))

    def test_dihedral(self):
        G = dihedral(4)
        assert G.order == 8
        s, r = G.labels["s"], G.labels["r"]
        assert G.derived_subgroup == {G.identity, G.table[r][r]}
        # s r s = r^-1
        assert G.table[G.table[s][r]][s] == G.inverse[r]

    def test_abelian_group(self):
        G = abelian_group([2, 3])
        assert G.order == 6 and G.derived_subgroup == {G.identity}
        assert sorted(G.labels) == ["a", "b", "b^-1"]

    def test_tables_match_the_modular_formula(self):
        for m in [*range(1, 65), 1024]:
            i = np.arange(m)
            plus, minus = (i[:, None] + i) % m, (i[:, None] - i) % m
            assert np.array_equal(cyclic(m, cap=m).table, plus), m
            dihedral_table = np.block([[plus, plus + m], [minus + m, minus]])
            assert np.array_equal(dihedral(m, cap=2 * m).table, dihedral_table), m

    def test_cap(self):
        with pytest.raises(CapExceeded):
            cyclic(10, cap=4)
        with pytest.raises(CapExceeded):
            direct_product(cyclic(30), cyclic(30), cap=512)


class TestTableVerification:
    def test_rejects_non_associative(self):
        # flip one entry of the C3 table
        table = [[(i + j) % 3 for j in range(3)] for i in range(3)]
        table[1][1] = 1
        with pytest.raises(ValueError, match=re.escape("not associative (witness a=1)")):
            FiniteGroup(table, [("a", 1), ("a^-1", 2)])

    def test_rejects_non_symmetric_gens(self):
        table = [[(i + j) % 3 for j in range(3)] for i in range(3)]
        with pytest.raises(ValueError):
            FiniteGroup(table, [("a", 1)])

    def test_rejects_non_generating(self):
        G = abelian_group([2, 2])
        with pytest.raises(ValueError):
            FiniteGroup(G.table, [("a", G.labels["a"])])

    def test_rejects_generators_of_a_proper_subgroup(self):
        # the squares of a^2 and of r stay in <a^2> and <r>
        C = cyclic(1024, cap=1024)
        with pytest.raises(ValueError, match="generators do not generate the group"):
            FiniteGroup(C.table, [("b", 2), ("b^-1", 1022)])
        D = dihedral(384, cap=768)
        with pytest.raises(ValueError, match="generators do not generate the group"):
            FiniteGroup(D.table, [("r", D.labels["r"]), ("r^-1", D.labels["r^-1"])])

    def test_associativity_is_checked_before_generation(self):
        # {2} generates only {0, 2}, and a=2 is a witness: (1*2)*3 = 2 but
        # 1*(2*3) = 1*1 = 3
        table = [[(i + j) % 4 for j in range(4)] for i in range(4)]
        table[1][1] = 3
        with pytest.raises(ValueError, match=re.escape("table is not associative (witness a=2)")):
            FiniteGroup(table, [("b", 2)])

    def test_generation_check_takes_logarithmic_layers(self, monkeypatch):
        # the generators alone take 513 layers on C1024 and 193 on D384
        groups = [cyclic(1024, cap=1024), moved_identity(dihedral(384, cap=768), 0)]
        layer_counts = []

        def counting(G, factors):
            layers = product_layers(G, factors)
            layer_counts.append(len(layers))
            return layers

        monkeypatch.setattr(finite_groups, "product_layers", counting)
        for G in groups:
            layer_counts.clear()
            FiniteGroup(G.table, G.gens)
            assert len(layer_counts) == 1
            assert layer_counts[0] <= 2 * math.log2(G.order) + 2, (G.name, layer_counts)

    def test_rejects_non_associative_at_order_1024(self):
        # identity and inverses survive the flip, so only associativity
        # can catch it; orders above 512 were once only spot-checked
        spec = group_to_spec(cyclic(1024, cap=2048))
        spec["table"][5][7] = 13
        with pytest.raises(ValueError, match=re.escape("not associative (witness a=1)")):
            group_from_spec(spec, cap=2048)
        # the same table read from text, straight into an array
        with pytest.raises(ValueError, match=re.escape("not associative (witness a=1)")):
            group_from_spec(spec_from_json(json.dumps(spec)), cap=2048)

    def test_a_row_with_a_second_identity_entry_is_named(self):
        # C4 with 2*1 = 0: the identity 0 keeps its row and column, and
        # 2*2 = 0 stays two-sided, so only the row count can catch it
        table = [[(i + j) % 4 for j in range(4)] for i in range(4)]
        table[2][1] = 0
        with pytest.raises(ValueError, match=r"^row 2 of the table holds the identity 2 times, not once$"):
            FiniteGroup(table, [("a", 1), ("a^-1", 3)])
        table[2][1] = 3
        table[2][2] = 1
        with pytest.raises(ValueError, match=r"^row 2 of the table holds the identity 0 times, not once$"):
            FiniteGroup(table, [("a", 1), ("a^-1", 3)])

    def test_a_one_sided_inverse_is_named(self):
        # C4 with 3*1 = 2 and 3*2 = 0: row 1 still holds the identity once,
        # at 1*3, but 3*1 is no longer the identity
        table = [[(i + j) % 4 for j in range(4)] for i in range(4)]
        table[3][1], table[3][2] = 2, 0
        with pytest.raises(ValueError, match=re.escape(
                "element 1 lacks a two-sided inverse: 1*3 is the identity, 3*1 is not")):
            FiniteGroup(table, [("a", 1), ("a^-1", 3)])

    def test_lights_test_runs_once_per_inverse_pair(self, monkeypatch):
        # one test per inverse pair, of its smaller id: a of {a, a^-1} on
        # C1024, r and s of {r, r^-1, s} on D384, s1, s2 and c of
        # {s1, s2, c, c^-1}
        groups = [(cyclic(1024, cap=1024), ["a"]), (dihedral(384, cap=768), ["r", "s"]),
                  (sym3_fink(), ["s1", "s2", "c"])]
        light, tested = finite_groups._associative_at, []
        monkeypatch.setattr(finite_groups, "_associative_at",
                            lambda T, a, *buffers: tested.append(int(a)) or light(T, a, *buffers))
        for G, labels in groups:
            tested.clear()
            FiniteGroup(G.table, G.gens)
            assert tested == [G.labels[label] for label in labels], G.name

    def test_table_is_read_only_int32(self):
        G = direct_product(dihedral(5), cyclic(3))
        assert G.table.dtype == np.int32 and G.table.flags.c_contiguous
        with pytest.raises(ValueError):
            G.table[0, 0] = 1
        scalars = [G.identity, G.order, *G.labels.values()]
        scalars += [g for _, g in G.gens]
        scalars += [evaluate(G, MonoidWord(("r", "s", "a"))), G.element_from_label_word("r*a")]
        assert all(type(x) is int for x in scalars)


def c8_with(faults: dict[tuple[int, int], int]) -> list[list[int]]:
    """The C8 table with the given entries overwritten."""
    table = [[(i + j) % 8 for j in range(8)] for i in range(8)]
    for (i, j), x in faults.items():
        table[i][j] = x
    return table


class TestBlockedTables:
    """Verification runs over blocks of rows, and a table read from a spec
    or handed over frozen is kept, not copied."""

    # each fault sits in the last rows of C8, so with blocks of one or two
    # rows it is first read in the last block
    FAULTS = [
        # 7*2 = 0 as well as 7*1: row 7 holds the identity twice
        ({(7, 2): 0}, "row 7 of the table holds the identity 2 times, not once"),
        # 7*1 = 2 and 7*2 = 0: row 1 still holds the identity at 1*7, but
        # 7*1 is no longer the identity
        ({(7, 1): 2, (7, 2): 0}, "element 1 lacks a two-sided inverse: 1*7 is the identity, 7*1 is not"),
        # row 7 swaps 7*2 and 7*3: identity and inverses survive, so only
        # Light's test on a = 1 can catch it
        ({(7, 2): 2, (7, 3): 1}, "table is not associative (witness a=1)"),
        # the first entry out of range in row-major order is named
        ({(7, 2): 20, (7, 5): -3}, "table entry 20 out of range"),
    ]

    @pytest.mark.parametrize("faults, message", FAULTS)
    @pytest.mark.parametrize("block_bytes", [1, 64, finite_groups._VERIFY_BLOCK])
    def test_messages_name_the_same_row_generator_and_entry(self, monkeypatch, faults, message, block_bytes):
        # 1 and 64 bytes give blocks of one and two rows of C8
        monkeypatch.setattr(finite_groups, "_VERIFY_BLOCK", block_bytes)
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            FiniteGroup(c8_with(faults), [("a", 1), ("a^-1", 7)])

    def test_a_writable_array_or_a_view_is_copied(self):
        # a read-only view does not own its memory, so it is copied too
        table = np.array(cyclic(5).table)
        view = table[:]
        view.flags.writeable = False
        groups = [FiniteGroup(t, cyclic(5).gens) for t in (table, view)]
        table[0, 0] = 3
        for G in groups:
            assert G.table[0, 0] == 0 and not np.shares_memory(G.table, table)

    def test_a_frozen_int32_array_is_kept_so_unfreezing_it_reaches_the_group(self):
        # the keep rule reads flags alone: a caller who sets a handed-over
        # table writeable again and changes it changes the group's table,
        # which is why the docstring forbids it
        table = np.array(cyclic(5).table, dtype=np.int32)
        table.flags.writeable = False
        G = FiniteGroup(table, cyclic(5).gens)
        assert G.table is table
        table.flags.writeable = True
        table[0, 0] = 3
        assert G.table[0, 0] == 3

    def test_a_table_read_from_a_spec_is_shared(self):
        read = spec_from_json(json.dumps(group_to_spec(dihedral(5))))
        G = group_from_spec(read)
        assert np.shares_memory(G.table, read["table"])
        assert G.table.dtype == np.int32 and not G.table.flags.writeable

    def test_read_group_of_an_order_768_spec_peaks_below_9_mib(self, tmp_path):
        # the relabelled D384 spec is 2.9 MB of text and 2.25 MiB as a table
        D = dihedral(384, cap=768)
        path = tmp_path / "d384.json"
        path.write_text(json.dumps(group_to_spec(relabel(D, random.Random(5).sample(range(768), 768)))))
        (G, _), peak = traced_peak_mib(lambda: specs.read_group(str(path), 768))
        assert G.order == 768 and peak <= 9, peak

    def test_verifying_a_frozen_order_1024_table_peaks_below_1_mib(self):
        C = cyclic(1024, cap=1024)
        G, peak = traced_peak_mib(lambda: FiniteGroup(C.table, C.gens))
        assert G.table is C.table and peak <= 1, peak


# real groups of orders 2-6 as tables with identity 0
BASE_TABLES = [
    group_to_spec(G)["table"] for G in [*map(cyclic, range(2, 7)), dihedral(2), sym3_fink()]
]


@st.composite
def labeled_magmas(draw):
    """A relabeled group table, with one entry overwritten half the time,
    and generator labels on an inverse-closed subset of the group."""
    base = draw(st.sampled_from(BASE_TABLES))
    n = len(base)
    perm = draw(st.permutations(range(n)))
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            table[perm[a]][perm[b]] = perm[base[a][b]]
    inverse = {perm[a]: perm[base[a].index(0)] for a in range(n)}
    if draw(st.booleans()):
        a, b, c = (draw(st.integers(0, n - 1)) for _ in range(3))
        table[a][b] = c
    chosen = draw(st.sets(st.integers(0, n - 1)))
    ids = sorted(chosen | {inverse[g] for g in chosen})
    return table, [(f"g{g}", g) for g in ids]


def brute_force_is_group(table, gen_ids) -> bool:
    """Unique identity, unique two-sided inverses, all n^3 triples
    associative, a symmetric generating set, and generation."""
    n = len(table)
    ones = [e for e in range(n) if all(table[e][g] == g == table[g][e] for g in range(n))]
    if len(ones) != 1:
        return False
    e = ones[0]
    inverse = {}
    for g in range(n):
        hs = [h for h in range(n) if table[g][h] == e == table[h][g]]
        if len(hs) != 1:
            return False
        inverse[g] = hs[0]
    r = range(n)
    if any(table[table[a][b]][c] != table[a][table[b][c]] for a in r for b in r for c in r):
        return False
    if any(inverse[g] not in gen_ids for g in gen_ids):
        return False
    reached = {e}
    while True:
        grown = reached | {table[g][a] for g in reached for a in gen_ids}
        if grown == reached:
            return len(reached) == n
        reached = grown


def brute_force_has_inverses(table, gen_ids) -> bool:
    """A two-sided identity e, every row holding e exactly once, at a
    two-sided inverse, and an inverse-closed generating set."""
    n = len(table)
    ones = [e for e in range(n) if all(table[e][g] == g == table[g][e] for g in range(n))]
    if not ones:
        return False
    e = ones[0]
    inverse = {}
    for g in range(n):
        hs = [h for h in range(n) if table[g][h] == e]
        if len(hs) != 1 or table[hs[0]][g] != e:
            return False
        inverse[g] = hs[0]
    return all(inverse[g] in gen_ids for g in gen_ids)


class TestGeneratorReduction:
    @settings(max_examples=300, deadline=None)
    @given(labeled_magmas())
    def test_accepts_exactly_the_groups(self, magma):
        table, gens = magma
        try:
            FiniteGroup(table, gens)
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == brute_force_is_group(table, {g for _, g in gens})

    @settings(max_examples=300, deadline=None)
    @given(labeled_magmas())
    def test_names_the_smallest_non_associative_generator(self, magma):
        # Light's test runs on one generator of each inverse pair, yet a
        # refused table names the smallest generator a of all with some
        # (x*a)*y != x*(a*y); a table that passes the identity, inverse
        # and symmetry checks is refused for associativity if one exists
        table, gens = magma
        r = range(len(table))
        failing = [a for a in sorted({g for _, g in gens})
                   if any(table[table[x][a]][y] != table[x][table[a][y]] for x in r for y in r)]
        try:
            FiniteGroup(table, gens)
            error = ""
        except ValueError as exc:
            error = str(exc)
        witness = re.fullmatch(r"table is not associative \(witness a=(\d+)\)", error)
        if witness:
            assert failing and int(witness[1]) == failing[0]
        elif brute_force_has_inverses(table, {g for _, g in gens}):
            assert not failing, error


class TestProductLayers:
    """``product_layers`` against the oracle's one-product-at-a-time BFS,
    on factor sets that take the push step (small frontiers), the pull
    step (a frontier larger than the unseen rest) and the early return
    (every element seen), and that generate the group, a proper subgroup
    or nothing."""

    @staticmethod
    def _factors(G: FiniteGroup, kind: str, data) -> list[int]:
        elements = list(range(G.order))
        if kind == "all":
            return elements
        if kind == "one":
            return [data.draw(st.sampled_from(elements))]
        if kind == "subset":
            return sorted(data.draw(st.sets(st.sampled_from(elements))))
        if kind == "proper":
            # a subset of the cyclic subgroup of an element of order below |G|
            x = data.draw(st.sampled_from([g for g in elements if element_order(G, g) < G.order] or [G.identity]))
            powers = [G.identity]
            while (y := int(G.table[powers[-1], x])) != G.identity:
                powers.append(y)
            return sorted(data.draw(st.sets(st.sampled_from(powers), min_size=1)))
        if kind == "commutators":
            return sorted(brute_commutator_set(G))
        return []

    @settings(max_examples=200, deadline=None)
    @given(relabelled_small_groups(), st.sampled_from(["all", "one", "subset", "proper", "commutators", "empty"]),
           st.data())
    def test_agrees_with_brute_force(self, G, kind, data):
        factors = self._factors(G, kind, data)
        assert [layer.tolist() for layer in product_layers(G, factors)] == brute_layers(G, factors)


class TestEvaluate:
    def test_involution(self):
        G = sym3_fink()
        assert evaluate(G, MonoidWord(("s1", "s1"))) == G.identity

    def test_relator_vs_its_reversal(self):
        G = sym3_fink()
        r = MonoidWord("c s1 s2 s1 s2".split())
        assert evaluate(G, r) == G.identity
        rbar = evaluate(G, reversed_word(r))
        assert rbar != G.identity
        assert element_order(G, rbar) == 3

    def test_homomorphism_random(self):
        G = dihedral(5)
        rng = random.Random(3)
        letters = list(G.labels)
        for _ in range(200):
            u = MonoidWord(tuple(rng.choice(letters) for _ in range(rng.randrange(8))))
            v = MonoidWord(tuple(rng.choice(letters) for _ in range(rng.randrange(8))))
            assert evaluate(G, u * v) == G.table[evaluate(G, u)][evaluate(G, v)]
        assert evaluate(G, MonoidWord()) == G.identity

    def test_unknown_label(self):
        with pytest.raises(ValueError):
            evaluate(cyclic(3), MonoidWord(("zz",)))


# C2 wr C4 on eight points: the top cycles the four pairs {2i, 2i+1}, the
# base flips them
C2_WR_C4 = permutation_group(["(0246)(1357)", "(01)"], 8)


class TestDerivedSubgroup:
    """``derived_subgroup`` by normal closure, against the oracle's closure
    of every commutator."""

    def test_cyclic_derived_subgroup_is_trivial(self):
        G = cyclic(6)
        assert G.derived_subgroup == {G.identity}
        assert brute_commutator_width(G) == 0

    def test_sym3_derived_subgroup(self):
        G = sym3_fink()
        expected = {G.identity, G.labels["c"], G.labels["c^-1"]}
        assert expected == {0, 3, 4}
        assert G.derived_subgroup == brute_derived_subgroup(G) == expected
        # every derived element is one commutator
        assert brute_commutator_set(G) == expected
        assert brute_commutator_width(G) == 1

    def test_dihedral4_derived_subgroup(self):
        G = dihedral(4)
        assert len(G.derived_subgroup) == 2
        assert brute_commutator_width(G) == 1

    def test_the_generators_commutators_need_their_conjugates(self):
        # the commutators of the generators generate a subgroup of order 4
        # that is not normal; the derived subgroup, the vectors of even
        # weight in the base C2^4, has order 8
        G = C2_WR_C4
        assert G.order == 64
        gens = G.gen_ids.tolist()
        S = sorted({commutator(G, a, b) for a in gens for b in gens})
        assert sum(map(len, brute_layers(G, S))) == 4
        assert G.derived_subgroup == brute_derived_subgroup(G)
        assert len(G.derived_subgroup) == 8

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(relabelled_small_groups(), random_generating_sets(), direct_products(max_order=96),
                     st.permutations(range(64)).map(lambda perm: relabel(C2_WR_C4, perm))))
    def test_agrees_with_the_brute_force_closure(self, G):
        assert G.derived_subgroup == brute_derived_subgroup(G)

    def test_a7_is_perfect_and_its_closure_holds_no_order_squared_array(self):
        G = permutation_group(["(0123456)", "(124)(365)", "(06)(23)"], 7)
        assert G.order == 2520
        derived, peak = traced_peak_mib(lambda: G.derived_subgroup)
        assert derived == frozenset(range(G.order))
        assert peak < 1, peak

    def test_derived_subgroup_is_computed_once_on_first_use(self):
        for G in (cyclic(6), dihedral(4), sym3_fink(), direct_product(sym3_fink(), dihedral(3))):
            assert "derived_subgroup" not in vars(G)
            derived = G.derived_subgroup
            assert type(derived) is frozenset and derived == brute_derived_subgroup(G)
            assert G.derived_subgroup is derived


class TestDirectProductCanonical:
    def test_commutative_up_to_swap(self):
        A, B = cyclic(3), dihedral(3)
        AB, BA = direct_product(A, B), direct_product(B, A)
        perm = [0] * AB.order
        for a in range(A.order):
            for b in range(B.order):
                perm[a * B.order + b] = b * A.order + a
        for x in range(AB.order):
            for y in range(AB.order):
                assert perm[AB.table[x][y]] == BA.table[perm[x]][perm[y]]

    def test_associative_encoding(self):
        A, B, C = cyclic(2), cyclic(3), cyclic(4)
        left = direct_product(direct_product(A, B), C)
        right = direct_product(A, direct_product(B, C))
        assert np.array_equal(left.table, right.table)  # mixed-radix encodings coincide


def eager_product_table(G, H):
    """The product table as ``direct_product`` once built it at construction."""
    n = G.order * H.order
    return (G.table[:, None, :, None] * H.order + H.table[None, :, None, :]).reshape(n, n)


class TestLazyProductTable:
    # (product, its left and right arguments) for S3 x D4, both bracketings
    # of C2 x C2 x C3, and factors whose identity is not id 0
    @staticmethod
    def products():
        S, D = sym3_fink(), dihedral(4)
        C2, C3 = cyclic(2), cyclic(3)
        left, right = direct_product(C2, C2), direct_product(C2, C3)
        moved_s, moved_c = moved_identity(S, 7), moved_identity(cyclic(4), 8)
        return [
            (direct_product(S, D), S, D),
            (direct_product(left, C3), left, C3),
            (direct_product(C2, right), C2, right),
            (direct_product(moved_s, moved_c), moved_s, moved_c),
        ]

    def test_first_read_builds_the_eager_table_and_verifies_it_once(self, monkeypatch):
        calls = []
        verify_gens = FiniteGroup._verify_gens

        def spy(self):
            calls.append(self.name)
            verify_gens(self)

        for P, G, H in self.products():
            # a nested product's arguments build no table of their own either
            assert not any("table" in vars(X) for X in (P, G, H) if X.factors)
            expected = eager_product_table(G, H)
            monkeypatch.setattr(FiniteGroup, "_verify_gens", spy)
            table = P.table
            assert calls == [P.name]
            assert P.table is table and calls == [P.name]
            monkeypatch.undo()
            calls.clear()
            assert np.array_equal(table, expected)
            assert table.dtype == np.int32 and not table.flags.writeable

    def test_stored_structure_equals_the_one_recomputed_from_the_table(self):
        for P, G, H in self.products():
            ref = FiniteGroup(np.array(P.table), P.gens, name=P.name)
            assert (P.order, P.identity) == (ref.order, ref.identity)
            assert np.array_equal(P.inverse, ref.inverse)
            assert np.array_equal(P.gen_ids, ref.gen_ids) and P.labels == ref.labels
        assert self.products()[-1][0].identity != 0

    def test_identity_or_inverse_mismatch_raises_and_caches_nothing(self):
        for corrupt in ("identity", "inverse"):
            P = direct_product(cyclic(3), cyclic(2))
            if corrupt == "identity":
                P.identity = 1
            else:
                P.inverse = P.inverse[::-1].copy()
            with pytest.raises(AssertionError, match="differ from the factors'"):
                P.table
            assert "table" not in vars(P)

    def test_repr_builds_no_table(self):
        P = direct_product(sym3_fink(), cyclic(2))
        assert "order=12" in repr(P) and "S3xC2" in repr(P)
        assert "table" not in vars(P)
        assert "table" in vars(cyclic(2))


class TestIsomorphism:
    """The oracle's check of a named isomorphism, with negative controls."""

    def test_self(self):
        G = dihedral(4)
        assert extends_to_isomorphism(G, G, {g: g for _, g in G.gens})

    def test_rejects(self):
        for G, H, words in [
            # a generator sent to an element of another order: onto too
            # few elements, then onto all of H but not multiplicatively
            (cyclic(4), abelian_group([2, 2]), {"a": "a"}),
            (cyclic(4), abelian_group([2, 2]), {"a": "a", "a*a": "b"}),
            (dihedral(3), cyclic(6), {"r": "a*a", "s": "a*a*a"}),
            # a homomorphism that is not onto
            (cyclic(6), cyclic(6), {"a": "a*a"}),
            # images of elements that do not generate G, onto H or not
            (cyclic(6), cyclic(6), {"a*a": "a*a"}),
            (cyclic(6), cyclic(3), {"a*a": "a"}),
            # the identity sent elsewhere
            (cyclic(2), cyclic(2), {"1": "a", "a": "a"}),
        ]:
            assert not extends_to_isomorphism(G, H, label_map(G, H, words)), (G.name, H.name, words)

    def test_accepts(self):
        D3, S3 = dihedral(3), sym3_fink()
        assert extends_to_isomorphism(D3, S3, label_map(D3, S3, {"r": "c", "s": "s1"}))
        A, C = abelian_group([2, 3]), cyclic(6)
        assert extends_to_isomorphism(A, C, label_map(A, C, {"a": "a*a*a", "b": "a*a"}))

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(SMALL_GROUPS), st.data())
    def test_relabelling_is_an_isomorphism(self, G, data):
        perm = data.draw(st.permutations(range(G.order)))
        H = relabel(G, perm)
        assert extends_to_isomorphism(G, H, {g: perm[g] for _, g in G.gens})
        if G.order > 1:
            assert not extends_to_isomorphism(G, H, {g: H.identity for _, g in G.gens})


class TestSpecs:
    def test_round_trip(self):
        for G in (cyclic(5), dihedral(4), sym3_fink()):
            H = group_from_spec(group_to_spec(G))
            assert np.array_equal(H.table, G.table) and H.gens == G.gens

    @settings(max_examples=25, deadline=None)
    @given(direct_products(max_order=300))
    def test_nested_products_round_trip_to_table_groups(self, G):
        H = group_from_spec(group_to_spec(G))
        assert np.array_equal(H.table, G.table)
        assert (H.gens, H.name) == (G.gens, G.name)
        assert H.factors == () and len(G.factors) >= 2
        for notion in NOTIONS:
            assert palindromic_width(H, notion) == palindromic_width(G, notion)

    def test_kinds(self):
        spec = {"kind": "direct_product", "factors": [{"kind": "cyclic", "n": 4}, {"kind": "cyclic", "n": 4}]}
        assert group_from_spec(spec).order == 16
        with pytest.raises(ValueError):
            group_from_spec({"kind": "frobnicate"})
        with pytest.raises(ValueError):
            group_from_spec({"no": "kind"})

    def test_direct_product_factors_must_be_a_list(self):
        for bad in (5, 2.5, True, None, "ab", {"kind": "cyclic", "n": 2}):
            with pytest.raises(ValueError, match="factors must be a list"):
                group_from_spec({"kind": "direct_product", "factors": bad})

    def test_rejects_ragged_rows(self):
        spec = {"kind": "table", "table": [[0, 1], [1]], "gens": [["a", 1]]}
        with pytest.raises(ValueError, match="row 1 has length 1"):
            group_from_spec(spec)

    @pytest.mark.parametrize(
        "label", [None, [1, 2], "a*b", "", "1", 5, "a b", "a\tb", "a;b", "a,b", "[a", "a]"]
    )
    def test_rejects_labels_the_text_formats_cannot_read_back(self, label):
        spec = {"kind": "table", "table": [[0, 1], [1, 0]], "gens": [[label, 1]]}
        with pytest.raises(ValueError, match=re.escape(f"generator label {label!r}")):
            group_from_spec(spec)

    @pytest.mark.parametrize("label", ["a", "a^-1", "s1", "x_2", "é"])
    def test_accepted_labels_round_trip_through_label_words(self, label):
        G = group_from_spec({"kind": "table", "table": [[0, 1], [1, 0]], "gens": [[label, 1]]})
        assert G.shortest_label_word(1) == label
        assert G.element_from_label_word(G.shortest_label_word(1)) == 1

    @pytest.mark.parametrize("entry", [10**30, -(10**30), 2**63, -(2**63) - 1, 2**31, -(2**31) - 1, 10**17])
    def test_an_entry_past_int64_is_named_out_of_range(self, entry):
        # as a list, and as text, which the reader leaves to json (an entry
        # past int32)
        spec = {"kind": "table", "table": [[0, 1], [1, entry]], "gens": [["a", 1]]}
        for read in (spec, spec_from_json(json.dumps(spec))):
            with pytest.raises(ValueError, match=re.escape(f"table entry {entry} out of range")):
                group_from_spec(read)


# JSON whitespace, and entries of a table that are not JSON integers, or
# not JSON at all; the second line holds flaws that each byte alone would
# let through: signs, digits and separators out of place, and non-ASCII
# digits
json_ws = st.text(alphabet=" \t\n\r", max_size=2)
FLAWED_ENTRIES = [
    "-0", "00", "01", "-01", "0.5", "1.0", "1e3", "2E-1", "-", "--1", "1-2", "1 2", "- 1",
    "+1", "1_0", "0x1", "\u0661", "--0", "0-", "1\u0000", "-00", "0/1", "1.",
    "true", "null", "[1]", "[]", "1,", "", '"1"', "é", str(10**18), str(-(10**18) + 1),
]
flawed_entries = st.sampled_from(FLAWED_ENTRIES)
# integers on either side of the 8 digits the reader decodes, around the
# bounds of int32, and -0
edge_integers = st.sampled_from([
    "99999999", "100000000", "-99999999", "-100000000", "10000000", "-9999999", "12345678",
    str(2**31 - 1), str(-(2**31)), str(2**31), "-0",
])


@st.composite
def integers_of_each_length(draw):
    """A JSON integer written with 1 to 11 characters, a '-' included."""
    length = draw(st.integers(1, 11))
    minus = length > 1 and draw(st.booleans())
    digits = length - minus
    value = draw(st.integers(10 ** (digits - 1) if digits > 1 else 0, 10**digits - 1))
    return "-" * minus + str(value)


@st.composite
def table_texts(draw):
    """The text of a table: equal-length rows of integers with random
    whitespace around every token, or one flaw: an entry from
    ``flawed_entries``, a row of another length (empty included), or a
    trailing comma."""
    n_rows, n_cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    numbers = st.sampled_from([
        st.integers(-3, 30).map(str),
        st.integers(-3, 30).map(str),
        st.integers(-(10**19), 10**19).map(str),
        integers_of_each_length(),
        st.one_of(edge_integers, integers_of_each_length()),
    ])
    entry = draw(numbers)
    rows = [[draw(entry) for _ in range(n_cols)] for _ in range(n_rows)]
    flaw = draw(st.sampled_from([None, None, None, "entry", "row", "comma"]))
    if flaw == "entry":
        rows[draw(st.integers(0, n_rows - 1))][draw(st.integers(0, n_cols - 1))] = draw(flawed_entries)
    elif flaw == "row":
        rows[draw(st.integers(0, n_rows - 1))] = draw(st.lists(entry, max_size=5))
    comma = lambda: draw(json_ws) + "," + draw(json_ws)
    trailing = comma() if flaw == "comma" else ""
    body = comma().join("[" + draw(json_ws) + comma().join(row) + draw(json_ws) + "]" for row in rows)
    return "[" + draw(json_ws) + body + trailing + draw(json_ws) + "]"


@st.composite
def spec_texts(draw, depth: int = 0):
    """The text of a spec-like object: a "table" key, at times a list of
    such objects as direct_product factors, and keys that hold a table or
    the string "table" but are not "table" (non-ASCII ones included)."""
    fields = [("kind", '"table"'), ("table", draw(table_texts()))]
    for key in draw(st.lists(st.sampled_from(["mytable", "Table", "tables", "name", "gens", "é", "表"]), max_size=2)):
        fields.append((key, draw(st.one_of(table_texts(), st.sampled_from(['"table"', '"é"', '[["a", 1]]', "null"])))))
    if depth < 2 and draw(st.booleans()):
        factors = draw(st.lists(spec_texts(depth + 1), min_size=1, max_size=2))
        fields.append(("factors", "[" + draw(json_ws) + ", ".join(factors) + "]"))
    fields = draw(st.permutations(fields))
    texts = [json.dumps(k, ensure_ascii=draw(st.booleans())) + draw(json_ws) + ":" + draw(json_ws) + v for k, v in fields]
    return "{" + draw(json_ws) + ("," + draw(json_ws)).join(texts) + draw(json_ws) + "}"


def as_lists(value, key=None):
    """``value`` with its arrays as lists; only a "table" key holds one,
    and it is a read-only int32 array."""
    if isinstance(value, np.ndarray):
        assert key == "table" and value.ndim == 2 and value.dtype == np.int32
        assert not value.flags.writeable
        return value.tolist()
    if isinstance(value, dict):
        return {k: as_lists(v, k) for k, v in value.items()}
    if isinstance(value, list):
        return [as_lists(v) for v in value]
    return value


def reads_what_json_loads_reads(text):
    try:
        expected = json.loads(text)
    except ValueError as exc:
        with pytest.raises(type(exc)) as raised:
            spec_from_json(text)
        assert str(raised.value) == str(exc)
        return
    assert as_lists(spec_from_json(text)) == expected


class TestSpecFromJson:
    @settings(max_examples=400, deadline=None)
    @given(st.one_of(spec_texts(), table_texts()))
    def test_reads_what_json_loads_reads(self, text):
        reads_what_json_loads_reads(text)

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(spec_texts(), table_texts()), st.integers(1, 8))
    def test_reads_what_json_loads_reads_in_blocks_of_a_few_bytes(self, text, block):
        # a block ends at the first row end past its first few bytes, so
        # every drawn table of two or more rows is read in several blocks
        with mock.patch.object(specs, "_READ_BLOCK", block):
            reads_what_json_loads_reads(text)

    @pytest.mark.parametrize("indent", [None, 0, 2, "\t"])
    @pytest.mark.parametrize("separators", [None, (",", ":"), (" , ", " :\r\n")])
    def test_integer_rows_come_back_as_one_array(self, indent, separators):
        G = dihedral(5)
        spec = {"kind": "direct_product", "factors": [group_to_spec(G), {"kind": "cyclic", "n": 2}]}
        read = spec_from_json(json.dumps(spec, indent=indent, separators=separators))
        table = read["factors"][0]["table"]
        assert isinstance(table, np.ndarray) and np.array_equal(table, G.table)
        assert np.array_equal(group_from_spec(read).table, direct_product(G, cyclic(2)).table)

    @pytest.mark.parametrize("indent", [None, 0, 2, "\t"])
    @pytest.mark.parametrize("separators", [None, (",", ":"), (" , ", " :\r\n")])
    def test_a_table_of_several_blocks_reads_back_equal(self, indent, separators):
        # order 320 in every layout is more than four blocks of text, read
        # at the real block size
        G = relabel(dihedral(160, cap=320), random.Random(3).sample(range(320), 320))
        text = json.dumps(group_to_spec(G), indent=indent, separators=separators)
        assert len(text) > 4 * specs._READ_BLOCK
        table = spec_from_json(text)["table"]
        assert isinstance(table, np.ndarray) and table.dtype == np.int32
        assert np.array_equal(table, G.table)

    def test_integers_of_up_to_8_digits_read_as_an_array_and_longer_ones_as_lists(self):
        for digits in range(1, 12):
            for sign in ("", "-"):
                text = f'{{"table": [[0, {sign}{"9" * digits}], [{sign}1{"0" * (digits - 1)}, 7]]}}'
                read = spec_from_json(text)
                assert as_lists(read) == json.loads(text)
                assert isinstance(read["table"], np.ndarray) == (digits <= 8)

    @pytest.mark.parametrize("entry", FLAWED_ENTRIES)
    @pytest.mark.parametrize("block", [1, specs._READ_BLOCK])
    def test_each_flawed_entry_is_read_as_json_reads_it(self, entry, block):
        # alone, and at the start and the end of a later block
        with mock.patch.object(specs, "_READ_BLOCK", block):
            for table in (f"[[{entry}]]", f"[[0, 1], [{entry}, 0]]", f"[[0, 1], [1, {entry}]]"):
                reads_what_json_loads_reads('{"table": ' + table + "}")

    @pytest.mark.parametrize("table", [
        "[[1, 2]5, [3, 4]]", "[[1, 2], 5[3, 4]]", "[[1, 2] 5, [3, 4]]", "[[1, 2], [3, 4]5]",
        "[[1, 2], [3, 4] 5]", "[[1, 2],, [3, 4]]", "[[1, 2] [3, 4]]", "[[1, 2], [3 4, 5]]",
    ])
    @pytest.mark.parametrize("block", [1, 6, specs._READ_BLOCK])
    def test_a_number_or_comma_out_of_place_is_left_to_json(self, table, block):
        # with a block of a byte or a row, each flaw opens or closes a block
        with mock.patch.object(specs, "_READ_BLOCK", block):
            reads_what_json_loads_reads('{"table": ' + table + "}")

    def test_minus_zero_and_a_non_ascii_name_still_read_as_an_array(self):
        spec = dict(group_to_spec(dihedral(3)), name="Dé₃")
        text = json.dumps(spec, ensure_ascii=False).replace("[0, ", "[-0, ")
        assert '"table": [[-0, 1, ' in text
        read = spec_from_json(text)
        assert isinstance(read["table"], np.ndarray) and read["name"] == "Dé₃"
        H = group_from_spec(read)
        assert np.array_equal(H.table, dihedral(3).table) and H.gens == dihedral(3).gens

    def test_square_and_cap_checks_keep_their_messages(self):
        text = '{"kind": "table", "table": [[0, 1, 2], [1, 0, 2]], "gens": [["a", 1]]}'
        with pytest.raises(ValueError, match=re.escape("row 0 has length 3, expected 2")):
            group_from_spec(spec_from_json(text))
        with pytest.raises(CapExceeded, match="order 2 exceeds cap 1"):
            group_from_spec(spec_from_json(text), cap=1)

    def test_deep_nesting_is_a_value_error(self):
        with pytest.raises(ValueError, match="nested too deeply"):
            spec_from_json("[" * 100_000 + "]" * 100_000)
        # with a "table" key the text goes through the Python scanner, which
        # reaches fewer levels; either way the error is the same
        with pytest.raises(ValueError, match="nested too deeply"):
            spec_from_json('{"table": 1, "x": ' + "[" * 5_000 + "]" * 5_000 + "}")

    def test_a_200_deep_product_reads_again(self):
        # 400 levels of nesting: more than the Python scanner reaches, and a
        # text with no "table" key goes to json.loads as it is
        spec = {"kind": "cyclic", "n": 2}
        for _ in range(200):
            spec = {"kind": "direct_product", "factors": [spec, {"kind": "cyclic", "n": 1}]}
        text = json.dumps(spec)
        assert spec_from_json(text) == json.loads(text) == spec
        G = group_from_spec(spec_from_json(text))
        assert (G.order, len(G.factors)) == (2, 201)

    def test_an_escaped_table_key_builds_the_same_group(self):
        plain = json.dumps(group_to_spec(dihedral(4)))
        assert plain.count('"table"') == 2  # the kind and the key
        H = group_from_spec(spec_from_json(plain))
        # the key escaped, then the kind too: the rows come back as lists,
        # through the Python scanner and then through json.loads itself
        key_escaped = plain.replace('"table":', '"\\u0074able":')
        both_escaped = key_escaped.replace('"table"', '"\\u0074able"')
        assert '"table"' not in both_escaped
        for text in (key_escaped, both_escaped):
            read = spec_from_json(text)
            assert read == json.loads(text) and isinstance(read["table"], list)
            G = group_from_spec(read)
            assert np.array_equal(G.table, H.table) and G.gens == H.gens and G.name == H.name
