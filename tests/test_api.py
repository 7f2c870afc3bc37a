"""The package's public API: what ``groupwidths`` exports, and the
README's library sketch."""

import ast
import importlib
import importlib.util
import json
import random
import re
import sys
import types
from pathlib import Path

import pytest

import groupwidths
from groupwidths.finite_groups import cyclic, direct_product, sym3_fink
from groupwidths.pal_width import NOTIONS, palindrome_elements, palindromic_width, reachable_pairs

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def perfbench_module(name: str, monkeypatch) -> types.ModuleType:
    """A module of the benchmark, loaded from its file without writing
    bytecode next to it, and bound in ``sys.modules`` for one test only
    (the benchmark's modules import each other by their bare names)."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_all_names_resolve_and_none_is_a_submodule():
    assert len(set(groupwidths.__all__)) == len(groupwidths.__all__)
    for name in groupwidths.__all__:
        value = getattr(groupwidths, name)
        assert not isinstance(value, types.ModuleType), name


# specs.group_to_spec is the spec writer README documents, for saving a
# group built in Python as a "table" spec; the commands only read specs,
# so nothing in the package calls it
READ_ONLY_BY_USERS = {"specs.group_to_spec"}


def package_reads() -> tuple[dict, set[str]]:
    """The parsed modules of src/, scripts/ and perfbench/, and every name
    their code reads: a name or an attribute that is not assigned to, or,
    in the benchmark's tracer, which patches what it traces by name, a part
    after the first of a "module.name" string."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for tree in ("src", "scripts", "perfbench") for path in sorted((ROOT / tree).rglob("*.py"))}
    read = set()
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif path.name == "tracing.py" and isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.update(node.value.split(".")[1:])
    return trees, read


def unread_exports() -> list[str]:
    """Every "module.name" of a groupwidths module's ``__all__`` that no
    code in src/, scripts/ or perfbench/ reads besides its definition and
    its ``__all__`` entry."""
    trees, read = package_reads()
    unread = []
    for path, tree in trees.items():
        if path.parent.name != "groupwidths":
            continue
        # the package's own __all__ is the union of these lists, built by a
        # comprehension rather than written out
        for node in tree.body:
            if (isinstance(node, ast.Assign) and isinstance(node.value, ast.List)
                    and [getattr(t, "id", None) for t in node.targets] == ["__all__"]):
                names = ast.literal_eval(node.value)
                unread += [f"{path.stem}.{name}" for name in names if name not in read]
    return unread


def unread_methods() -> list[str]:
    """Every "module.Class.method" of a public method (properties and
    static methods included) of a class in a groupwidths module whose name
    no code in src/, scripts/ or perfbench/ reads.  A read of another
    class's attribute of the same name counts too, so the test misses such
    a method but names none wrongly."""
    trees, read = package_reads()
    return [f"{path.stem}.{cls.name}.{node.name}"
            for path, tree in trees.items() if path.parent.name == "groupwidths"
            for cls in tree.body if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_") and node.name not in read]


def test_every_export_is_read_outside_the_tests():
    # a name that only tests read belongs in tests/ (oracle.py or
    # conftest.py), not in the package's API
    assert sorted(unread_exports()) == sorted(READ_ONLY_BY_USERS)


def test_every_public_method_is_read_outside_the_tests():
    # as for exports: a method that only tests call belongs in tests/
    assert unread_methods() == []


def test_readme_library_sketch_runs():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library sketch\n\n```python\n(.*?)```", text, re.S)
    namespace: dict = {}
    exec(block.group(1), namespace)
    assert namespace["cert"].factor_count == 1


def test_specs_owns_the_json_code():
    # finite_groups keeps one binding, group_from_spec, which perfbench reads
    from groupwidths import finite_groups, specs

    for name in ("spec_from_json", "group_to_spec", "json", "re"):
        assert not hasattr(finite_groups, name), name
    assert finite_groups.group_from_spec is specs.group_from_spec
    assert "group_from_spec" not in finite_groups.__all__


def test_decompose_exports_the_command_and_its_certificate():
    # each factor's layout is private to decompose; derived_part_palindrome
    # stays because the benchmark's tracer patches it by name
    decompose = importlib.import_module("groupwidths.decompose")
    assert decompose.__all__ == [
        "InvariantViolation",
        "MAX_FACTORS",
        "MAX_FACTOR_LETTERS",
        "S3WreathContext",
        "s3_wreath_context",
        "DecompositionCertificate",
        "split_abelian_commutator",
        "derived_part_palindrome",
        "decompose",
    ]


def test_free_words_exports_no_letter_word_reduction():
    # a free word comes in as syllables, arrays or text; ql stays, taking a
    # FreeWord only, because the benchmark's tracer patches it by name
    free_words = importlib.import_module("groupwidths.free_words")
    assert free_words.__all__ == [
        "MonoidWord",
        "FreeWord",
        "is_word_palindrome",
        "ql",
        "free_commutator",
        "format_monoid_word",
        "parse_free_word",
        "format_free_word",
    ]
    for name in ("reduce_word", "_letter_to_syllable"):
        assert not hasattr(free_words, name), name


def test_benchmark_traced_names_resolve(monkeypatch):
    # the benchmark's tracer patches these names by string; one deleted
    # from the library would fail only a traced benchmark run
    tracing = perfbench_module("tracing", monkeypatch)
    for name, (module_name, path) in tracing.TRACED.items():
        target = importlib.import_module(f"groupwidths.{module_name}")
        for attr in path.split("."):
            target = getattr(target, attr)
        assert callable(target), name
    G = sym3_fink()
    reach = reachable_pairs(G)
    assert reach.pairs.shape == (G.order * len(reach.defect), 2)
    for counter, amount in tracing.WORK["pal_width.reachable_pairs"]:
        assert amount((G,), reach) == len(reach.pairs), counter
    # every width counter, on the results of a two-factor product
    product = direct_product(G, cyclic(4))
    for notion in NOTIONS:
        for name, call in (("pal_width.palindromic_width", palindromic_width),
                           ("pal_width.palindrome_elements", palindrome_elements)):
            result = call(product, notion)
            for counter, amount in tracing.WORK[name]:
                assert amount((product, notion), result) > 0, (counter, notion)


@pytest.mark.parametrize("name", ["pw_ladder", "width_oracle", "qh_text", "decompose_lib"])
def test_benchmark_workloads_pass_their_checks(name, tmp_path, monkeypatch):
    # one benchmark pass at the recorded seed, in-process: the workloads call
    # library names that no other test reaches this way; decompose_lib runs
    # its first ten jobs only, the rest cost seconds and call nothing new
    perfbench_module("refcheck", monkeypatch)
    workloads = perfbench_module("workloads", monkeypatch)
    recorded = json.loads((ROOT / "perfbench" / "expected.json").read_text())[name]
    wl = workloads.WORKLOADS[name]()
    wl.setup(random.Random(0), str(tmp_path))
    assert wl.inputs_sha256() == recorded["inputs_sha256"]
    jobs = wl.jobs[:10] if name == "decompose_lib" else wl.jobs
    summaries = {job.key: job.check(job.run()) for job in jobs}
    assert wl.cross_check(summaries) == []
    assert summaries == {key: recorded["results"][key] for key in summaries}
