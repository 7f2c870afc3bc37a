"""The four benchmark workloads: seeded inputs, the timed call of each job,
and the independent checks of its result.

A workload's ``setup`` generates every input from the seed (spec files
and texts are written under the run's work directory, because the CLI
reads them) and does all untimed construction.  Each ``Job`` then has a
timed ``run`` and an untimed ``check`` that raises ``WrongResult`` or
returns a small summary, compared for the default seed against the
values recorded in ``expected.json``.  ``cross_check`` compares jobs of
one pass with each other.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import itertools
import json
import math
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

import refcheck

from groupwidths import cli, finite_groups, nilprod, pal_width
from groupwidths.free_words import MonoidWord

# the package rebinds the name ``decompose`` to the function
decompose_mod = importlib.import_module("groupwidths.decompose")

CAP = "1024"  # passed explicitly on every CLI call; the environment cap is unset


class WrongResult(Exception):
    """A job returned, but its result failed an independent check."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise WrongResult(message)


@dataclass
class Job:
    key: str  # stable across seeds; names the recorded result
    run: Callable[[], Any]  # the timed call
    check: Callable[[Any], dict]  # untimed; raises WrongResult


class CliResult(NamedTuple):
    code: int
    stdout: str
    stderr: str


def cli_call(argv: list[str]) -> Callable[[], CliResult]:
    """Run ``groupwidths.cli.main`` in-process with stdout kept in memory."""

    def run() -> CliResult:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)  # looked up per call, so tracing sees it
        return CliResult(code, out.getvalue(), err.getvalue())

    return run


def cli_report(result: CliResult) -> dict:
    expect(result.code == 0, f"exit code {result.code}: {result.stderr.strip()[:200]}")
    report = json.loads(result.stdout)
    failed = [k for k, v in report["verification"].items() if v is not True]
    expect(not failed, f"verification flags false: {failed}")
    return report


def log_ladder(n: int, lo: float, hi: float) -> list[float]:
    """n sizes at the midpoints of n equal slices of [log lo, log hi]: a
    log-uniform mix whose cost is the same for every seed."""
    return [lo * (hi / lo) ** ((i + 0.5) / n) for i in range(n)]


class Workload:
    name = ""

    def __init__(self) -> None:
        self.jobs: list[Job] = []
        self.inputs: list[bytes] = []  # every input the program receives, in job order

    def setup(self, rng: random.Random, workdir: str) -> None:
        raise NotImplementedError

    def cross_check(self, summaries: dict[str, dict]) -> list[tuple[str, str]]:
        return []

    def inputs_sha256(self) -> str:
        h = hashlib.sha256()
        for data in self.inputs:
            h.update(len(data).to_bytes(8, "big"))
            h.update(data)
        return h.hexdigest()

    def write_input(self, workdir: str, name: str, obj) -> str:
        data = json.dumps(obj).encode("utf-8")
        path = os.path.join(workdir, name)
        with open(path, "wb") as fh:
            fh.write(data)
        self.inputs.append(data)
        return path


def check_width_layers(layers: list[int], width: int, order: int) -> None:
    expect(layers[0] == 1, f"layers start at {layers[0]}, not 1")
    expect(all(a < b for a, b in zip(layers, layers[1:])), f"layers not increasing: {layers}")
    expect(layers[-1] == order, f"layers end at {layers[-1]}, order is {order}")
    expect(width == len(layers) - 1, f"width {width} but {len(layers)} layers")


def check_notions(summaries: dict[str, dict]) -> list[tuple[str, str]]:
    """Group-notion width never exceeds word-notion width."""
    bad = []
    for key, s in summaries.items():
        if key.endswith(":group"):
            word = summaries.get(key[: -len("group")] + "word")
            if word is not None and s["width"] > word["width"]:
                bad.append((key, f"group width {s['width']} > word width {word['width']}"))
    return bad


# ---------------------------------------------------------------------------
# pw_ladder: table construction and verification through the CLI
# ---------------------------------------------------------------------------


def cyc(n: int) -> dict:
    return {"kind": "cyclic", "n": n}


def dih(m: int) -> dict:
    return {"kind": "dihedral", "n": m}


S3 = {"kind": "sym3_fink"}


def dp(*factors: dict) -> dict:
    return {"kind": "direct_product", "factors": list(factors)}


def spec_order(spec: dict) -> int:
    kind = spec["kind"]
    if kind == "cyclic":
        return spec["n"]
    if kind == "dihedral":
        return 2 * spec["n"]
    if kind == "sym3_fink":
        return 6
    return math.prod(spec_order(f) for f in spec["factors"])


# (key, spec, abelian, as an explicit relabeled table).  Orders run from 64
# to 1024; those up to 512 take the full associativity check, those above
# the spot check.
PW_LADDER = [
    ("C64", cyc(64), True, False),
    ("D36", dih(36), False, False),
    ("T-S3xC12", dp(S3, cyc(12)), False, True),
    ("C4xC4xC6", dp(cyc(4), cyc(4), cyc(6)), True, False),
    ("S3xC16", dp(S3, cyc(16)), False, False),
    ("C128", cyc(128), True, False),
    ("T-D60", dih(60), False, True),
    ("D80", dih(80), False, False),
    ("S3xD16", dp(S3, dih(16)), False, False),
    ("C4xC6xC8", dp(cyc(4), cyc(6), cyc(8)), True, False),
    ("T-C2xD64", dp(cyc(2), dih(64)), False, True),
    ("C384", cyc(384), True, False),
    ("C8xC8xC8", dp(cyc(8), cyc(8), cyc(8)), True, False),
    ("S3xD50", dp(S3, dih(50)), False, False),
    ("T-D384", dih(384), False, True),
    ("C1024", cyc(1024), True, False),
]

NILPROD_LADDER = [[[2], [2]], [[3], [3]], [[4], [4]], [[4], [2], [2]], [[6], [6]], [[8], [8]]]


def relabeled_table_spec(spec: dict, rng: random.Random) -> dict:
    G = finite_groups.group_from_spec(spec, cap=4096)
    perm = list(range(G.order))
    rng.shuffle(perm)
    table = [[0] * G.order for _ in range(G.order)]
    for a, row in enumerate(G.table):
        new_row = table[perm[a]]
        for b, ab in enumerate(row):
            new_row[perm[b]] = perm[ab]
    return {"kind": "table", "name": G.name, "table": table,
            "gens": [[label, perm[g]] for label, g in G.gens]}


def shuffled_factors(spec: dict, rng: random.Random) -> dict:
    if spec["kind"] != "direct_product":
        return spec
    factors = list(spec["factors"])
    rng.shuffle(factors)
    return dp(*factors)


def nilprod_order(moduli: list[list[int]]) -> int:
    order = math.prod(m for mod in moduli for m in mod)
    for i, j in itertools.combinations(range(len(moduli)), 2):
        for mu in moduli[i]:
            for mv in moduli[j]:
                order *= math.gcd(mu, mv)
    return order


class PwLadder(Workload):
    name = "pw_ladder"

    def setup(self, rng: random.Random, workdir: str) -> None:
        for key, spec, abelian, as_table in PW_LADDER:
            order = spec_order(spec)
            spec = relabeled_table_spec(spec, rng) if as_table else shuffled_factors(spec, rng)
            path = self.write_input(workdir, f"{key}.json", spec)
            for notion in ("word", "group"):
                argv = ["pw", path, "--notion", notion, "--cap", CAP]
                self.jobs.append(Job(f"{key}:{notion}", cli_call(argv),
                                     self._pw_check(order, abelian, notion)))
        for moduli in NILPROD_LADDER:
            key = "nilprod-" + "-".join("x".join(map(str, m)) for m in moduli)
            path = self.write_input(workdir, f"{key}.json", [{"moduli": m} for m in moduli])
            argv = ["nilprod", path, "--cap", CAP]
            self.jobs.append(Job(key, cli_call(argv), self._nilprod_check(moduli)))

    @staticmethod
    def _pw_check(order: int, abelian: bool, notion: str):
        def check(result: CliResult) -> dict:
            report = cli_report(result)
            r = report["result"]
            expect(report["input"]["order"] == order,
                   f"order {report['input']['order']}, expected {order}")
            check_width_layers(r["layers"], r["width"], order)
            if abelian and notion == "group":
                expect(r["width"] == 1, f"abelian group-notion width {r['width']}")
            return {"width": r["width"], "layers": r["layers"],
                    "palindrome_count": r["palindrome_count"]}

        return check

    @staticmethod
    def _nilprod_check(moduli: list[list[int]]):
        order = nilprod_order(moduli)

        def check(result: CliResult) -> dict:
            report = cli_report(result)
            r = report["result"]
            expect(report["input"]["order"] == order,
                   f"order {report['input']['order']}, expected {order}")
            expect(r["lower"] <= r["exact"] <= r["upper"], f"sandwich fails: {r}")
            return r

        return check

    def cross_check(self, summaries: dict[str, dict]) -> list[tuple[str, str]]:
        return check_notions(summaries)


# ---------------------------------------------------------------------------
# width_oracle: palindromic_width on prebuilt nonabelian direct products
# ---------------------------------------------------------------------------

FACTOR_ORDERS = {"S3": 6, "D4": 8, "D5": 10, "D6": 12, "H27": 27, "C2": 2, "C3": 3, "C4": 4}
GROUP_CAP = 1300
# Nonabelian products, orders 216-1296, by number of S3 factors k: the
# reachable pairs number |R| = 3^k * order, so k = 0 is sparse and k >= 2
# dense, up to |R| = 23,328 for S3^3 x C4.  Orders 301-512 are left out:
# their O(n^3) verification would dominate set-up.  S3^4 (|R| = 104,976)
# is left out too: its single 1.5 s job swamped the rest of the pass.
WIDTH_PRODUCTS = [
    ("D4", "H27"), ("D5", "D4", "C2", "C4"), ("D6", "D6", "C2", "C4"),
    ("S3", "D5", "C4"), ("S3", "C2", "C3", "C4", "C4"), ("S3", "D6", "D6"),
    ("S3", "H27", "C2", "C4"),
    ("S3", "S3", "C2", "C3"), ("S3", "S3", "D5", "C3"), ("S3", "S3", "D4", "C2", "C2"),
    ("S3", "S3", "S3", "C3"), ("S3", "S3", "S3", "C4"),
]


def build_factor(name: str):
    if name == "S3":
        return finite_groups.sym3_fink()
    if name == "H27":
        return nilprod.nilprod2_multi([[3], [3]]).group
    if name[0] == "D":
        return finite_groups.dihedral(int(name[1:]))
    return finite_groups.cyclic(int(name[1:]))


def build_product(names: tuple[str, ...]):
    """Direct product built as (left half) x (right half), so intermediate
    orders stay small and cheap to verify."""
    half = max(range(1, len(names)),
               key=lambda k: min(math.prod(FACTOR_ORDERS[n] for n in names[:k]),
                                 math.prod(FACTOR_ORDERS[n] for n in names[k:])))

    def fold(part):
        G = build_factor(part[0])
        for n in part[1:]:
            G = finite_groups.direct_product(G, build_factor(n), cap=GROUP_CAP)
        return G

    return finite_groups.direct_product(fold(names[:half]), fold(names[half:]), cap=GROUP_CAP)


class WidthOracle(Workload):
    name = "width_oracle"

    def setup(self, rng: random.Random, workdir: str) -> None:
        for names in WIDTH_PRODUCTS:
            # the seed orders the factors, which relabels elements and generators
            ordered = tuple(rng.sample(names, len(names)))
            G = build_product(ordered)
            self.inputs.append(json.dumps(ordered).encode("utf-8"))
            for notion in ("word", "group"):
                run = (lambda G=G, notion=notion: pal_width.palindromic_width(G, notion))
                order = math.prod(FACTOR_ORDERS[n] for n in names)
                self.jobs.append(Job(f"{'x'.join(names)}:{notion}", run,
                                     self._check(order, G.identity)))

    @staticmethod
    def _check(order: int, identity: int):
        def check(report) -> dict:
            check_width_layers(report.layers, report.width, order)
            expect(len(report.lengths) == order, "lengths do not cover the group")
            expect(report.lengths[identity] == 0, "identity has nonzero length")
            expect(max(report.lengths.values()) == report.width, "width is not the max length")
            return {"width": report.width, "layers": report.layers,
                    "palindrome_count": len(report.palindromes)}

        return check

    def cross_check(self, summaries: dict[str, dict]) -> list[tuple[str, str]]:
        return check_notions(summaries)


# ---------------------------------------------------------------------------
# qh_text: parsing, delta and certification through the CLI
# ---------------------------------------------------------------------------

# top group -> (spec file or None for the default S3, order, tops in [K, K])
QH_TOPS = {
    "S3": (None, 6, ["1", "c", "c^-1"]),
    "C2": (cyc(2), 2, ["1"]),
    "D4": (dih(4), 8, ["1", "r*r"]),
}
Q_JOBS = 24
DERIVED_JOBS = 12


def random_reduced(rng: random.Random, letters: int) -> tuple[tuple[int, int], ...]:
    """A reduced word in x1, x2 with the given letter count."""
    out = []
    gen = rng.choice((1, 2))
    while letters > 0:
        size = min(letters, rng.choice((1, 1, 2, 3, 4)))
        out.append((gen, size * rng.choice((1, -1))))
        letters -= size
        gen = 3 - gen
    return tuple(out)


class QhText(Workload):
    name = "qh_text"

    def setup(self, rng: random.Random, workdir: str) -> None:
        top_paths = {name: self.write_input(workdir, f"top-{name}.json", spec)
                     for name, (spec, _, _) in QH_TOPS.items() if spec is not None}
        tops = list(QH_TOPS)
        q_tops = [tops[i % 3] for i in range(Q_JOBS)]
        rng.shuffle(q_tops)
        for i, j in enumerate(log_ladder(Q_JOBS, 10, 300)):
            # q_j: x2^-3j x1^-3j (x2 x1)^3j at the identity coordinate, delta 6j
            j = round(j)
            word = ((2, -3 * j), (1, -3 * j)) + ((2, 1), (1, 1)) * (3 * j)
            coords = [word] + [()] * (QH_TOPS[q_tops[i]][1] - 1)
            self._add(f"q{i}", q_tops[i], coords, "1", top_paths)
        for i in range(DERIVED_JOBS):
            top = tops[i % 3]
            _, order, derived_tops = QH_TOPS[top]
            # half the coordinates carry a product of two commutators of 8-letter words
            busy = set(rng.sample(range(order), (order + 1) // 2))
            coords = []
            for c in range(order):
                word: tuple = ()
                for _ in range(2 if c in busy else 0):
                    u, v = random_reduced(rng, 8), random_reduced(rng, 8)
                    word += refcheck.inverse(u) + refcheck.inverse(v) + u + v
                coords.append(word)
            self._add(f"derived{i}", top, coords, rng.choice(derived_tops), top_paths)

    def _add(self, key, top, coords, top_text, top_paths) -> None:
        order = QH_TOPS[top][1]
        text = "[" + "; ".join(refcheck.format_syllables(w) for w in coords) + "] " + top_text
        self.inputs.append(text.encode("utf-8"))
        argv = ["qh", text, "--cap", CAP]
        if top in top_paths:
            argv += ["--top", top_paths[top]]
        reduced = tuple(refcheck.reduce_syllables(w) for w in coords)
        expected_delta = sum(refcheck.ql(w) for w in reduced)
        self.jobs.append(Job(key, cli_call(argv), self._check(reduced, top_text, order, expected_delta)))

    @staticmethod
    def _check(reduced, top_text: str, order: int, delta: int):
        bound = refcheck.cw_lower_bound(delta, order)

        def check(result: CliResult) -> dict:
            r = cli_report(result)["result"]
            expect(r["delta"] == delta, f"delta {r['delta']}, expected {delta}")
            expect(r["top_order"] == order, f"top order {r['top_order']}, expected {order}")
            coords, top = refcheck.parse_wreath_text(r["element"])
            expect(coords == reduced, "printed element differs from the reduced input")
            expect(top == top_text, f"printed top {top!r}, expected {top_text!r}")
            cert = r["certificate"]
            if bound is None:
                expect(cert is None, f"certificate {cert} where none is implied")
            else:
                expect(cert is not None and cert["delta"] == delta
                       and cert["commutator_length_at_least"] == bound,
                       f"certificate {cert}, expected bound {bound}")
            return {"delta": delta, "bound": bound}

        return check


# ---------------------------------------------------------------------------
# decompose_lib: decompose() on in-memory elements of F_2 wr S3
# ---------------------------------------------------------------------------

DENSE_JOBS = 30
SPARSE_JOBS = 10
POWER_JOBS = 2  # of the sparse jobs: a pure x-power and trivial top, one factor


class DecomposeLib(Workload):
    name = "decompose_lib"

    def setup(self, rng: random.Random, workdir: str) -> None:
        self.ctx = decompose_mod.s3_wreath_context()
        elements = []
        for scale in log_ladder(DENSE_JOBS, 1e2, 1e4):
            # six coordinate lengths within a factor 1.25 of the scale, summing to 6 * scale
            weights = [1.25 ** rng.uniform(-1, 1) for _ in refcheck.S3_ELEMENTS]
            lengths = [round(6 * scale * w / sum(weights)) for w in weights]
            coords = {p: random_reduced(rng, n) for p, n in zip(refcheck.S3_ELEMENTS, lengths)}
            elements.append((coords, rng.choice(refcheck.S3_ELEMENTS)))
        for i, letters in enumerate(log_ladder(SPARSE_JOBS, 1e2, 1e4)):
            p = rng.choice(refcheck.S3_ELEMENTS)
            if i < POWER_JOBS:
                elements.append(({p: ((1, round(letters)),)}, refcheck.E))
            else:
                elements.append(({p: random_reduced(rng, round(letters))},
                                 rng.choice(refcheck.S3_ELEMENTS)))
        for i, (coords, top) in enumerate(elements):
            letters = refcheck.wreath_letters(coords, top)
            self.inputs.append(" ".join(letters).encode("utf-8"))
            g = self.ctx.eval_word(MonoidWord(tuple(letters)))
            expected = refcheck.eval_letters([letters])
            run = (lambda g=g: decompose_mod.decompose(g, self.ctx))
            self.jobs.append(Job(f"e{i}", run, self._check(expected)))

    @staticmethod
    def _check(expected):
        def check(cert) -> dict:
            words = [f.letters for f in cert.factors]
            expect(cert.factor_count == len(words) <= 20, f"{cert.factor_count} factors")
            expect(all(w == w[::-1] for w in words), "a factor is not a letter palindrome")
            expect(refcheck.eval_letters(words) == expected, "factors do not multiply to the target")
            return {"factors": len(words), "letters": sum(map(len, words))}

        return check


WORKLOADS = {w.name: w for w in (PwLadder, WidthOracle, QhText, DecomposeLib)}
