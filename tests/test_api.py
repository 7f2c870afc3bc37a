"""The package's public API: what ``groupwidths`` exports, and the
README's library sketch."""

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
