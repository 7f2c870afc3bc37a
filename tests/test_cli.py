"""End-to-end CLI: JSON reports, exit codes, round trips, determinism."""

import contextlib
import hashlib
import io
import json
import re
import subprocess
import sys
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupwidths import cli, specs
from groupwidths.finite_groups import direct_product, cyclic, sym3_fink
from groupwidths.pal_width import WidthReport
from groupwidths.specs import group_from_spec, group_to_spec
from groupwidths.wreath import WreathGroup, format_wreath_element, q_sequence

from conftest import relabel


def run_cli(*args, env=None):
    cmd = [sys.executable, "-m", "groupwidths.cli", *args]
    return subprocess.run(cmd, capture_output=True, text=True, env=env)


def report_of(proc):
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    report.pop("wall_time_s")
    return report


def write_spec(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestPw:
    def test_cyclic2(self, tmp_path):
        spec = write_spec(tmp_path, "c2.json", {"kind": "cyclic", "n": 2})
        report = report_of(run_cli("pw", spec, "--notion", "word"))
        assert report["result"]["width"] == 1
        assert all(report["verification"].values())

    def test_verification_flags_can_fail(self, tmp_path, monkeypatch, capsys):
        # C5 = <a>, ids a^k = k: one length array breaks each flag, a^2
        # longer than its inverse a^3, or the generators a, a^-1 longer than 1
        spec = write_spec(tmp_path, "c5.json", {"kind": "cyclic", "n": 5})
        broken = {"inverses_have_equal_length": [0, 1, 2, 1, 1],
                  "generators_have_length_le_1": [0, 2, 1, 1, 2]}
        for flag, length in broken.items():
            monkeypatch.setattr(cli, "palindromic_width", lambda G, notion: WidthReport(notion, length))
            assert cli.main(["pw", spec]) == 0
            verification = json.loads(capsys.readouterr().out)["verification"]
            assert [name for name, ok in verification.items() if not ok] == [flag]

    def test_z4_squared_both_notions(self, tmp_path):
        spec = write_spec(
            tmp_path,
            "z44.json",
            {"kind": "direct_product", "factors": [{"kind": "cyclic", "n": 4}, {"kind": "cyclic", "n": 4}]},
        )
        assert report_of(run_cli("pw", spec, "--notion", "word"))["result"]["width"] == 2
        assert report_of(run_cli("pw", spec, "--notion", "group"))["result"]["width"] == 1

    def test_lengths_flag(self, tmp_path):
        spec = write_spec(tmp_path, "c4.json", {"kind": "cyclic", "n": 4})
        report = report_of(run_cli("pw", spec, "--lengths"))
        assert report["result"]["lengths"]["0"] == 0

    def test_table_spec_round_trip(self, tmp_path):
        original = {"kind": "dihedral", "n": 4}
        G = group_from_spec(original)
        table_spec = group_to_spec(G)
        p1 = write_spec(tmp_path, "orig.json", original)
        p2 = write_spec(tmp_path, "table.json", table_spec)
        r1, r2 = report_of(run_cli("pw", p1)), report_of(run_cli("pw", p2))
        assert r1["result"] == r2["result"]
        # and the table form re-serializes to itself
        assert group_to_spec(group_from_spec(table_spec)) == table_spec

    def test_deterministic(self, tmp_path):
        spec = write_spec(tmp_path, "d4.json", {"kind": "dihedral", "n": 4})
        assert report_of(run_cli("pw", spec)) == report_of(run_cli("pw", spec))


# one spec per family: cyclic, dihedral, S3 and a direct product
RELABEL_SPECS = {
    "C6": {"kind": "cyclic", "n": 6},
    "D5": {"kind": "dihedral", "n": 5},
    "S3": {"kind": "sym3_fink"},
    "C2xD3": {"kind": "direct_product", "factors": [{"kind": "cyclic", "n": 2}, {"kind": "dihedral", "n": 3}]},
}


@pytest.fixture(scope="module")
def spec_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("relabel")


def pw_result(path, notion):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["pw", str(path), "--notion", notion, "--lengths"]) == 0
    return json.loads(out.getvalue())["result"]


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(sorted(RELABEL_SPECS)), data=st.data())
def test_pw_is_invariant_under_relabelling(spec_dir, name, data):
    # renaming element ids by a permutation changes no width and no layer
    # size, and the lengths move with the ids
    spec = RELABEL_SPECS[name]
    G = group_from_spec(spec)
    perm = data.draw(st.permutations(range(G.order)))
    original, renamed = spec_dir / "original.json", spec_dir / "renamed.json"
    original.write_text(json.dumps(spec))
    renamed.write_text(json.dumps(group_to_spec(relabel(G, perm))))
    for notion in ("word", "group"):
        old, new = pw_result(original, notion), pw_result(renamed, notion)
        assert old.pop("lengths") == {str(g): new["lengths"].pop(str(perm[g])) for g in G.elements()}
        assert new.pop("lengths") == {}
        assert new == old


PERMUTED_FACTORS = [{"kind": "cyclic", "n": m} for m in (2, 3, 4)]
PERMUTED_FACTORS += [{"kind": "dihedral", "n": m} for m in (2, 3, 4)] + [{"kind": "sym3_fink"}]


@settings(max_examples=25, deadline=None)
@given(factors=st.lists(st.sampled_from(PERMUTED_FACTORS), min_size=2, max_size=3), data=st.data())
def test_pw_is_invariant_under_permuting_factors(spec_dir, factors, data):
    # ids are mixed-radix in the factor order, so permuting the factors of
    # a direct_product spec permutes the ids: no width, layer size or
    # palindrome count changes, and the lengths move with the ids
    perm = data.draw(st.permutations(range(len(factors))))
    orders = [group_from_spec(f).order for f in factors]
    moved = np.arange(prod(orders)).reshape([orders[i] for i in perm]).transpose(np.argsort(perm)).ravel()
    original, permuted = spec_dir / "original.json", spec_dir / "permuted.json"
    original.write_text(json.dumps({"kind": "direct_product", "factors": factors}))
    permuted.write_text(json.dumps({"kind": "direct_product", "factors": [factors[i] for i in perm]}))
    for notion in ("word", "group"):
        old, new = pw_result(original, notion), pw_result(permuted, notion)
        assert old.pop("lengths") == {str(g): new["lengths"].pop(str(h)) for g, h in enumerate(moved.tolist())}
        assert new.pop("lengths") == {}
        assert new == old


@pytest.fixture(scope="module")
def W():
    return WreathGroup(2, sym3_fink())


class TestQh:
    def test_q1_no_certificate(self, W):
        text = format_wreath_element(q_sequence(W, 1))
        report = report_of(run_cli("qh", text))
        assert report["result"]["delta"] == 6
        assert report["result"]["certificate"] is None

    def test_q60_certifies_four(self, W):
        text = format_wreath_element(q_sequence(W, 60))
        report = report_of(run_cli("qh", text))
        assert report["result"]["delta"] == 360
        assert report["result"]["certificate"]["commutator_length_at_least"] == 4
        assert report["result"]["in_derived_subgroup"] is True
        assert all(report["verification"].values())

    def test_no_certificate_outside_derived_subgroup(self):
        # delta 140 would certify 2, but the exponent sums are 70
        text = "[" + " ".join(["x1 x2"] * 70) + "; 1; 1; 1; 1; 1] 1"
        report = report_of(run_cli("qh", text))
        assert report["result"]["delta"] == 140
        assert report["result"]["in_derived_subgroup"] is False
        assert report["result"]["certificate"] is None

    @pytest.mark.parametrize(
        "text, member, certified, tests",
        [
            ("q60", True, True, 1),
            ("q1", True, False, 1),  # delta 6 carries no bound
            ("[x1 x2; 1; 1; 1; 1; 1] 1", False, False, 1),
            ("[1; 1; 1; 1; 1; 1] s1", False, False, 1),  # the top is off [S3, S3]
            # delta 140 would certify 2: the certificate tests membership,
            # and, finding none, leaves the report to test it again
            ("[" + " ".join(["x1 x2"] * 70) + "; 1; 1; 1; 1; 1] 1", False, False, 2),
        ],
    )
    def test_membership_is_tested_once(self, W, monkeypatch, capsys, text, member, certified, tests):
        wreath = sys.modules["groupwidths.wreath"]
        calls = []

        def spy(g):
            calls.append(g)
            return real(g)

        real = wreath.in_derived_subgroup
        monkeypatch.setattr(wreath, "in_derived_subgroup", spy)
        monkeypatch.setattr(cli, "in_derived_subgroup", spy)
        if text.startswith("q"):
            text = format_wreath_element(q_sequence(W, int(text[1:])))
        assert cli.main(["qh", text]) == cli.EXIT_OK
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["in_derived_subgroup"] is member
        assert (result["certificate"] is not None) is certified
        assert len(calls) == tests

    def test_identity(self, W):
        report = report_of(run_cli("qh", format_wreath_element(W.identity())))
        assert report["result"]["delta"] == 0
        assert report["result"]["certificate"] is None

    def test_element_round_trip(self, W):
        text = format_wreath_element(q_sequence(W, 10))
        echoed = report_of(run_cli("qh", text))["result"]["element"]
        assert echoed == text
        assert report_of(run_cli("qh", echoed)) == report_of(run_cli("qh", text))

    def test_custom_top(self, W, tmp_path):
        spec = write_spec(tmp_path, "c2.json", {"kind": "cyclic", "n": 2})
        report = report_of(run_cli("qh", "[x1^4; 1] 1", "--top", spec))
        assert report["result"]["top_order"] == 2
        assert report["result"]["delta"] == 1

    def test_rank_is_read_from_the_coordinates_only(self, tmp_path):
        # a top label shaped like a free generator does not raise the rank
        spec = write_spec(tmp_path, "x5.json", {"kind": "table", "table": [[0, 1], [1, 0]], "gens": [["x5", 1]]})
        for text in ("[x1 x2; 1] x5", "[x1 x2; 1] 1"):
            assert report_of(run_cli("qh", text, "--top", spec))["input"]["rank"] == 2

    @pytest.mark.parametrize(
        "coordinate,rank",
        [("1", 2), ("x1", 2), ("y^-1 x", 2), ("x5^0", 5), ("x4 x4^-1 x1", 4), ("[x1,[x7,x7]]", 7),
         ("[x2,x3] x010^0", 10)],
    )
    def test_the_inferred_rank_counts_every_index_written(self, coordinate, rank, capsys):
        # a zero exponent, a cancelled syllable and a commutator argument
        # count, and the rank is at least 2
        assert cli.main(["qh", f"[1; 1; {coordinate}; 1; 1; 1] 1"]) == 0
        assert json.loads(capsys.readouterr().out)["input"]["rank"] == rank


class TestDecompose:
    def test_identity(self):
        report = report_of(run_cli("decompose", "[1; 1; 1; 1; 1; 1] 1"))
        assert report["result"]["factor_count"] == 0

    def test_commutator_fixture(self):
        report = report_of(run_cli("decompose", "[ [x,y]; 1; 1; 1; 1; 1 ] 1"))
        assert report["result"]["factor_count"] == 1
        assert all(f["palindrome"] for f in report["result"]["factors"])
        assert all(report["verification"].values())

    def test_general_element(self):
        report = report_of(run_cli("decompose", "[x1^2; x2^-1; 1; [x,y]; 1; x1] s1*s2"))
        assert 0 < report["result"]["factor_count"] <= 20
        assert all(report["verification"].values())
        target = report["result"]["target"]
        assert report_of(run_cli("decompose", target))["result"] == report["result"]


class TestInputDigest:
    def test_pw_and_nilprod_digest_the_files_bytes(self, tmp_path, capsys):
        # the readers hash the file's bytes and free them before parsing
        inputs = [
            ("pw", group_to_spec(direct_product(sym3_fink(), cyclic(2)))),
            ("pw", {"kind": "cyclic", "n": 4}),
            ("nilprod", [{"moduli": [2]}, {"moduli": [4]}]),
        ]
        for i, (command, payload) in enumerate(inputs):
            path = write_spec(tmp_path, f"in{i}.json", payload)
            assert cli.main([command, path]) == 0
            digest = json.loads(capsys.readouterr().out)["input_digest"]
            assert digest == hashlib.sha256((tmp_path / f"in{i}.json").read_bytes()).hexdigest()


class TestNilprod:
    def test_z2_z2(self, tmp_path):
        path = write_spec(tmp_path, "np.json", [{"moduli": [2]}, {"moduli": [2]}])
        report = report_of(run_cli("nilprod", path))
        result = report["result"]
        assert (result["lower"], result["upper"], result["exact"]) == (1, 8, 2)
        assert result["branch"] == "i"
        assert all(report["verification"].values())

    def test_no_exact(self, tmp_path):
        path = write_spec(tmp_path, "np.json", [{"moduli": [2]}, {"moduli": [3]}])
        result = report_of(run_cli("nilprod", path, "--no-exact"))["result"]
        assert result["exact"] is None and result["branch"] == "ii"


class TestExitCodes:
    def test_parse_error_is_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli("pw", str(bad)).returncode == 2
        assert run_cli("qh", "[oops] 1").returncode == 2
        assert run_cli("decompose", "[1; 1] 1").returncode == 2
        # JSON values that are not integers, or ragged rows, never pass
        # through int() or crash
        non_integer_specs = [
            {"kind": "table", "table": [[0, 1.9], [1, 0]], "gens": [["a", 1]]},
            {"kind": "table", "table": [[0, True], [True, 0]], "gens": [["a", 1]]},
            {"kind": "table", "table": [["0", "1"], ["1", "0"]], "gens": [["a", 1]]},
            {"kind": "table", "table": [[0, 1], [1]], "gens": [["a", 1]]},
            {"kind": "table", "table": [[0, 1], [1, 0]], "gens": [["a", 1.5]]},
            {"kind": "table", "table": [[0, 1], [1, 0]], "gens": [["a", True]]},
            {"kind": "cyclic", "n": 2.7},
            {"kind": "cyclic", "n": [3]},
            {"kind": "dihedral", "n": True},
        ]
        for spec in non_integer_specs:
            proc = run_cli("pw", write_spec(tmp_path, "bad_spec.json", spec))
            assert proc.returncode == 2, (spec, proc.stderr)
            assert "Traceback" not in proc.stderr
        # nilprod factor lists have one shape, moduli are positive JSON
        # integers, and factors are labeled a..z
        shape = 'each factor spec must be {"moduli": [m1, m2, ...]}'
        bad_nilprod_specs = [
            ([{"moduli": [2.5]}, {"moduli": [2]}], "modulus must be an integer, got 2.5"),
            ([{"moduli": ["3"]}, {"moduli": [2]}], "modulus must be an integer, got '3'"),
            ([{"moduli": [True]}, {"moduli": [2]}], "modulus must be an integer, got True"),
            ([{"moduli": [0]}, {"moduli": [2]}], "moduli must be positive integers, got [0]"),
            ([{"moduli": []}, {"moduli": [2]}], "moduli must be positive integers, got []"),
            ([{"moduli": 3}, {"moduli": [2]}], shape),
            ([5, {"moduli": [2]}], shape),
            ({"factors": 5}, "factor specs must be a list"),
            ("abc", "factor specs must be a list"),
            ([], "at least one factor required"),
            ([{"moduli": [1]}] * 27, "at most 26 factors, got 27"),
        ]
        for spec, message in bad_nilprod_specs:
            proc = run_cli("nilprod", write_spec(tmp_path, "bad_nilprod.json", spec))
            assert (proc.returncode, proc.stderr) == (2, f"error: {message}\n"), spec

    @pytest.mark.parametrize(
        "args,index",
        [
            (("decompose", "[x3^0; 1; 1; 1; 1; 1] 1"), 3),
            (("decompose", "[[x3,x3]; 1; 1; 1; 1; 1] 1"), 3),
            (("decompose", "[[x1,[x3,x3]] x1; 1; 1; 1; 1; 1] 1"), 3),
            (("qh", "--rank", "2", "[[x5,x5]; 1; 1; 1; 1; 1] 1"), 5),
            (("qh", "--rank", "2", "[x5^0; 1; 1; 1; 1; 1] 1"), 5),
        ],
    )
    def test_index_beyond_the_rank_is_2_and_named(self, args, index):
        # decompose works at rank 2; an index is checked even where it
        # has exponent 0 or sits in a commutator that cancels
        proc = run_cli(*args)
        assert proc.returncode == 2, proc.stderr
        assert f"generator index {index} out of range" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "command,text,atom",
        [
            ("qh", "[x\u0661^\u0663 x\u0662; 1; 1; 1; 1; 1] 1", "x\u0661^\u0663"),
            ("qh", "[x1^\uff13; 1; 1; 1; 1; 1] 1", "x1^\uff13"),
            ("decompose", "[x1 x\u0968; 1; 1; 1; 1; 1] 1", "x\u0968"),
        ],
    )
    def test_non_ascii_digits_are_2_and_named(self, command, text, atom, capsys):
        # Arabic-Indic, fullwidth and Devanagari digits are no index or exponent
        assert cli.main([command, text]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"not a syllable: {atom!r}" in captured.err

    def test_a_newline_inside_a_syllable_is_2_and_named(self):
        proc = run_cli("qh", "[x1\n x2; 1; 1; 1; 1; 1] 1")
        assert proc.returncode == 2, proc.stdout
        assert proc.stdout == ""
        assert proc.stderr == "error: not a syllable: 'x1\\n'\n"

    @pytest.mark.parametrize(
        "args",
        [
            ("qh", "[x99999999999999999999; 1; 1; 1; 1; 1] 1"),
            ("qh", "--rank", str(2**63), "[x2; 1; 1; 1; 1; 1] 1"),
        ],
    )
    def test_a_rank_past_int64_is_2(self, args, capsys):
        # generator indices are int64, so a rank past it is an input error
        assert cli.main(list(args)) == 2
        assert "is past 2**63 - 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args,message",
        [
            (("qh", "[x99999999999999999999; 1; 1; 1; 1; 1] 1"), "rank 99999999999999999999 is past 2**63 - 1"),
            (("qh", "[x1; [x2,x99999999999999999999]; 1; 1; 1; 1] 1"), "rank 99999999999999999999 is past 2**63 - 1"),
            (("qh", "--rank", str(2**63), "[x2; 1; 1; 1; 1; 1] 1"), f"rank {2**63} is past 2**63 - 1"),
            (("qh", "--rank", str(2**63), "[1; 1; 1; 1; 1; 1] 1"), f"rank {2**63} is past 2**63 - 1"),
        ],
    )
    def test_a_rank_past_int64_is_named_in_full(self, args, message, capsys):
        assert cli.main(list(args)) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize(
        "text,message",
        [
            ("[z7; 1; [x1,x2; 1; 1; 1] 1", "not a syllable: 'z7'"),
            ("[x1; [x1,x2; 1; z7; 1; 1] 1", "unbalanced brackets in '[x1,x2'"),
            ("[1; x1 [x1 x2]; x0; 1; 1; 1] 1", "malformed commutator expression: '[x1 x2]'"),
            ("[x0; x1^; 1; 1; 1; 1] 1", "generator index 0 out of range"),
            ("[x1 x1^; x0; 1; 1; 1; 1] 1", "not a syllable: 'x1^'"),
            ("[x1; x2 x; 1; 1; 1; x3 y^2] 1", "not a syllable: 'y^2'"),
        ],
    )
    def test_the_first_fault_in_text_order_is_named(self, text, message, capsys):
        # every coordinate is read before any word is built, and the first
        # fault in the text is the one reported, with or without a rank
        for rank in ([], ["--rank", "3"]):
            assert cli.main(["qh", *rank, text]) == 2
            assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_the_inferred_rank_is_checked_after_every_coordinate(self, capsys):
        # without --rank the rank is the largest index in all coordinates,
        # so a fault in any coordinate comes first
        assert cli.main(["qh", "[x99999999999999999999; z7; 1; 1; 1; 1] 1"]) == 2
        assert capsys.readouterr() == ("", "error: not a syllable: 'z7'\n")

    @pytest.mark.parametrize("rank", [[], ["--rank", "2"]])
    @pytest.mark.parametrize("text,count", [("[1; 1] 1", 2), ("[x1; 1; 1; 1; 1; 1; z7] 1", 7), ("[] 1", 1)])
    def test_a_wrong_coordinate_count_is_named(self, rank, text, count, capsys):
        # the count is checked before any coordinate is read
        assert cli.main(["qh", *rank, text]) == 2
        assert capsys.readouterr() == ("", f"error: expected 6 base coordinates, got {count}\n")

    def test_bad_generator_label_is_2_and_named(self, tmp_path, capsys):
        from groupwidths import cli

        for label in (None, [1, 2], "a*b"):
            spec = {"kind": "table", "table": [[0, 1], [1, 0]], "gens": [[label, 1]]}
            path = write_spec(tmp_path, "labels.json", spec)
            assert cli.main(["pw", path]) == 2
            assert f"generator label {label!r}" in capsys.readouterr().err
            assert cli.main(["qh", "--top", path, "[1; 1] 1"]) == 2
            assert f"generator label {label!r}" in capsys.readouterr().err

    def test_missing_spec_field_is_2_and_named(self, tmp_path, capsys):
        from groupwidths import cli

        missing = [
            ({"kind": "cyclic"}, "n"),
            ({"kind": "dihedral"}, "n"),
            ({"kind": "table", "gens": [["a", 1]]}, "table"),
            ({"kind": "table", "table": [[0, 1], [1, 0]]}, "gens"),
        ]
        for spec, field in missing:
            with pytest.raises(ValueError, match=f"needs the field '{field}'"):
                group_from_spec(spec)
            assert cli.main(["pw", write_spec(tmp_path, "missing.json", spec)]) == 2
            assert f"needs the field '{field}'" in capsys.readouterr().err

    def test_key_error_is_not_an_input_error(self, tmp_path, monkeypatch):
        # a KeyError from inside the library is a bug; exit 2 would hide it
        from groupwidths import cli

        def broken(spec, cap):
            raise KeyError("internal")

        monkeypatch.setattr(specs, "group_from_spec", broken)
        spec = write_spec(tmp_path, "c3.json", {"kind": "cyclic", "n": 3})
        with pytest.raises(KeyError, match="internal"):
            cli.main(["pw", spec])

    def test_non_list_factors_is_2(self, tmp_path, capsys):
        from groupwidths import cli

        for factors in (5, None, "ab", {"kind": "cyclic", "n": 2}):
            spec = write_spec(tmp_path, "dp.json", {"kind": "direct_product", "factors": factors})
            assert cli.main(["pw", spec]) == 2
            assert "factors must be a list" in capsys.readouterr().err

    def test_labels_running_out_is_2(self, tmp_path, capsys):
        from groupwidths import cli

        c2 = {"kind": "table", "table": [[0, 1], [1, 0]], "gens": [[l, 1] for l in "abcdefghijklmnopqrstuvwxyz"]}
        spec = write_spec(tmp_path, "dp.json", {"kind": "direct_product", "factors": [c2, c2]})
        assert cli.main(["pw", spec]) == 2
        assert "no fresh lowercase letter" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["pw"], ["qh", "[1; 1] 1", "--top"], ["nilprod"]])
    def test_deep_nesting_is_2_and_named(self, tmp_path, command):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        proc = run_cli(*command, str(path))
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr == "error: JSON nested too deeply to read\n"

    def test_a_200_deep_product_spec_is_read(self, tmp_path, capsys):
        # 400 levels of JSON nesting, read by json.loads as it is
        spec = {"kind": "cyclic", "n": 2}
        for _ in range(200):
            spec = {"kind": "direct_product", "factors": [spec, {"kind": "cyclic", "n": 1}]}
        assert cli.main(["qh", "--top", write_spec(tmp_path, "deep.json", spec), "[x1^3; 1] 1"]) == 0
        assert json.loads(capsys.readouterr().out)["result"]["top_order"] == 2

    @pytest.mark.parametrize("notion", ["word", "group"])
    @pytest.mark.parametrize("shape", ["flat", "deep"])
    def test_pw_on_a_product_with_many_trivial_factors(self, tmp_path, shape, notion):
        # C2 x C1^70 as one flat factor list, and the 200-deep nesting of
        # C2 x C1 above: order-1 factors are dropped, so no array grows an
        # axis per factor
        c1, spec = {"kind": "cyclic", "n": 1}, {"kind": "cyclic", "n": 2}
        if shape == "flat":
            spec = {"kind": "direct_product", "factors": [spec] + [c1] * 70}
        else:
            for _ in range(200):
                spec = {"kind": "direct_product", "factors": [spec, c1]}
        proc = run_cli("pw", write_spec(tmp_path, "dp.json", spec), "--notion", notion)
        assert "Traceback" not in proc.stderr
        report = report_of(proc)
        assert report["input"]["order"] == 2
        assert report["result"]["width"] == 1

    def test_table_entry_past_int64_is_2_and_named(self, tmp_path, capsys):
        spec = {"kind": "table", "table": [[0, 10**30], [1, 0]], "gens": [["a", 1]]}
        assert cli.main(["pw", write_spec(tmp_path, "big.json", spec)]) == 2
        assert capsys.readouterr().err == f"error: table entry {10**30} out of range\n"

    def test_a_negative_table_entry_is_2_and_named(self, tmp_path, capsys):
        spec = {"kind": "table", "table": [[0, 1], [1, -1]], "gens": [["a", 1]]}
        assert cli.main(["pw", write_spec(tmp_path, "neg.json", spec)]) == 2
        assert capsys.readouterr().err == "error: table entry -1 out of range\n"

    def test_missing_file_is_2(self):
        assert run_cli("pw", "/nonexistent/spec.json").returncode == 2

    def test_cap_is_3(self, tmp_path):
        spec = write_spec(tmp_path, "c9.json", {"kind": "cyclic", "n": 9})
        assert run_cli("pw", spec, "--cap", "4").returncode == 3

    def test_malformed_env_cap_is_2(self, tmp_path):
        import os

        spec = write_spec(tmp_path, "c9.json", {"kind": "cyclic", "n": 9})
        env = dict(os.environ, GROUPWIDTHS_CAP="abc")
        for args in (("qh", "[1; 1; 1; 1; 1; 1] 1"), ("pw", spec)):
            proc = run_cli(*args, env=env)
            assert proc.returncode == 2, proc.stderr
            assert "Traceback" not in proc.stderr
            assert "GROUPWIDTHS_CAP" in proc.stderr
        # an explicit flag never reads the environment
        assert run_cli("pw", spec, "--cap", "512", env=env).returncode == 0

    def test_env_cap(self, tmp_path):
        import os

        spec = write_spec(tmp_path, "c9.json", {"kind": "cyclic", "n": 9})
        env = dict(os.environ, GROUPWIDTHS_CAP="4")
        assert run_cli("pw", spec, env=env).returncode == 3
        # explicit flag overrides the environment
        assert run_cli("pw", spec, "--cap", "512", env=env).returncode == 0


class TestInProcess:
    def test_env_cap_is_read_on_every_call(self, tmp_path, monkeypatch, capsys):
        # the parser is built once per process; the cap is not frozen in it
        from groupwidths import cli

        spec = write_spec(tmp_path, "c9.json", {"kind": "cyclic", "n": 9})
        monkeypatch.setenv("GROUPWIDTHS_CAP", "4")
        assert cli.main(["pw", spec]) == 3
        monkeypatch.setenv("GROUPWIDTHS_CAP", "512")
        assert cli.main(["pw", spec]) == 0
        monkeypatch.setenv("GROUPWIDTHS_CAP", "abc")
        assert cli.main(["pw", spec]) == 2
        monkeypatch.delenv("GROUPWIDTHS_CAP")
        assert cli.main(["pw", spec]) == 0
        assert cli.build_parser() is cli.build_parser()
        capsys.readouterr()

    def test_cap_below_one_is_2(self, tmp_path, monkeypatch, capsys):
        specs = {
            "pw": write_spec(tmp_path, "c3.json", {"kind": "cyclic", "n": 3}),
            "nilprod": write_spec(tmp_path, "np.json", [{"moduli": [2]}, {"moduli": [2]}]),
        }
        for command, spec in specs.items():
            for value in ("0", "-5"):
                assert cli.main([command, spec, "--cap", value]) == 2
                assert f"--cap must be at least 1, got {value}" in capsys.readouterr().err
                monkeypatch.setenv("GROUPWIDTHS_CAP", value)
                assert cli.main([command, spec]) == 2
                assert f"GROUPWIDTHS_CAP must be at least 1, got {value}" in capsys.readouterr().err
                monkeypatch.delenv("GROUPWIDTHS_CAP")
            assert cli.main([command, spec, "--cap", "1"]) == 3
            capsys.readouterr()

    def test_pair_space_over_four_million_states(self, tmp_path, capsys):
        # the order cap alone bounds pw: 2048^2 pair states run under --cap 4096
        c2048 = {"kind": "cyclic", "n": 2048}
        product = {"kind": "direct_product", "factors": [c2048, {"kind": "cyclic", "n": 2}]}
        runs = [(c2048, "word"), (c2048, "group"), (product, "group")]
        for spec, notion in runs:
            path = write_spec(tmp_path, "big.json", spec)
            assert cli.main(["pw", path, "--notion", notion, "--cap", "4096"]) == 0
            assert json.loads(capsys.readouterr().out)["result"]["width"] == 1


class TestDirectProductTables:
    S3_5 = {"kind": "direct_product", "factors": [{"kind": "sym3_fink"}] * 5}

    def test_pw_builds_no_product_table(self, tmp_path, capsys, monkeypatch):
        built = []

        def recording(path, cap):
            G, digest = specs.read_group(path, cap)
            built.append(G)
            return G, digest

        monkeypatch.setattr(cli, "read_group", recording)
        path = write_spec(tmp_path, "s3_5.json", self.S3_5)
        expected = {"word": [1, 1458, 3888, 6318, 7533, 7776], "group": [1, 7776]}
        for notion, layers in expected.items():
            assert cli.main(["pw", path, "--notion", notion, "--cap", "7776"]) == 0
            result = json.loads(capsys.readouterr().out)["result"]
            assert (result["layers"], result["width"]) == (layers, len(layers) - 1)
        assert [G.order for G in built] == [7776, 7776]
        assert all(len(G.factors) == 5 and "table" not in vars(G) for G in built)

    def test_qh_on_a_product_top_equals_its_table_twin(self, tmp_path, capsys):
        spec = {"kind": "direct_product", "factors": [{"kind": "sym3_fink"}, {"kind": "cyclic", "n": 2}]}
        G = group_from_spec(spec)
        twin_spec = group_to_spec(G)
        twin = group_from_spec(twin_spec)
        assert (twin.name, twin.gens, twin.factors) == (G.name, G.gens, ())
        assert np.array_equal(twin.table, G.table)
        coords = ["x1 x2^-1", "1", "x2^3 x1", "[x1, x2]", "1", "x1^-2"] + ["x2"] * 6
        texts = ["[" + "; ".join(coords) + "] c*a", format_wreath_element(q_sequence(WreathGroup(2, G), 3))]
        for text in texts:
            outputs = []
            for top in (spec, twin_spec):
                assert cli.main(["qh", text, "--top", write_spec(tmp_path, "top.json", top)]) == 0
                out = capsys.readouterr().out
                assert json.loads(out)["input"]["top"] == "S3xC2"
                outputs.append(re.sub(r'"wall_time_s": [^,}]+', "", out))
            assert outputs[0] == outputs[1]

    def test_unmeetable_allocation_is_3(self, tmp_path):
        # a table of 10^14 int32 entries is 364 TiB, more than the 128 TiB
        # user address space: the allocation fails at once, touching nothing
        spec = write_spec(tmp_path, "c1e7.json", {"kind": "cyclic", "n": 10**7})
        proc = run_cli("pw", spec, "--cap", str(10**7))
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ") and "allocate" in proc.stderr


class TestJsonOutput:
    @pytest.mark.parametrize("pretty", [[], ["--pretty"]])
    def test_stdout_is_what_the_pure_python_encoder_writes(self, tmp_path, monkeypatch, capsys, pretty):
        # the report goes out through json.dumps, whose compact output takes
        # the C encoder; json.JSONEncoder.iterencode is the pure-Python one
        reports = []
        emit = cli._emit
        monkeypatch.setattr(cli, "_emit", lambda report, flag: (reports.append(report), emit(report, flag)))
        top = write_spec(tmp_path, "top.json", {"kind": "table", "name": "Z/2 \u00e9\u2603",
                                                "table": [[0, 1], [1, 0]], "gens": [["\u00e9", 1]]})
        d4 = write_spec(tmp_path, "d4.json", {"kind": "dihedral", "n": 4})
        nil = write_spec(tmp_path, "nil.json", [{"moduli": [2, 2]}, {"moduli": [4]}])
        commands = [
            ["pw", d4, "--lengths"],
            ["pw", top, "--notion", "group"],
            ["qh", q_text(60, 6)],
            ["qh", f"[x1^{2**70} x2^-3; [x,y]] \u00e9", "--top", top],
            ["nilprod", nil],
            ["decompose", "[ [x,y]; x1 x2^2; 1; 1; 1; 1 ] s1"],
        ]
        for argv in commands:
            assert cli.main(pretty + argv) == 0
            encoder = json.JSONEncoder(sort_keys=True, indent=2 if pretty else None)
            assert capsys.readouterr().out == "".join(encoder.iterencode(reports[-1])) + "\n", argv
        assert len(reports) == len(commands)


class TestPretty:
    def test_pretty_is_indented_same_payload(self, tmp_path):
        spec = write_spec(tmp_path, "c3.json", {"kind": "cyclic", "n": 3})
        plain = run_cli("pw", spec)
        pretty = run_cli("--pretty", "pw", spec)
        assert pretty.stdout.count("\n") > plain.stdout.count("\n")
        a, b = json.loads(plain.stdout), json.loads(pretty.stdout)
        a.pop("wall_time_s"), b.pop("wall_time_s")
        assert a == b


# qh reports recorded before free words became syllable arrays: sha256 of
# stdout with the wall_time_s value replaced by 0.  q_1..q_12 under three
# tops, and elements with nested commutators and exponents past 2**31 and
# 2**63 (zero exponents, cancelling atoms and rank 3 among them)
QH_TOPS = {"S3": None, "C2": {"kind": "cyclic", "n": 2}, "D4": {"kind": "dihedral", "n": 4}}
QH_ORDERS = {"S3": 6, "C2": 2, "D4": 8}


def q_text(j: int, order: int) -> str:
    word = f"x2^-{3 * j} x1^-{3 * j} " + " ".join(["x2 x1"] * (3 * j))
    return "[" + "; ".join([word] + ["1"] * (order - 1)) + "] 1"


QH_Q_REPORTS = {
    ("S3", 1): "0294e67982405f3fc263f518fbd805065ff0475c3d0f960ac93e03fc2765456d",
    ("S3", 2): "e392a0c5856ca680089e731cb79c6026da065b19176d333847d32d1a446978fe",
    ("S3", 3): "04ed75246777cc64bb6ce63d0c1a341fc90339b44c89dbb87ca67688f9ea6045",
    ("S3", 4): "6bc69097b69ac7e4674a8b9734aeaf32c2e0721c36af3a303d707234cfa9fe6f",
    ("S3", 5): "f020968b8b8b8affec283d2a719e54bd7cf38fec3ed05c2bcef14a6e68896987",
    ("S3", 6): "064c3e723c5e7e705704c228154dff4bd19d07bf5e62836bf06154368b4d70a4",
    ("S3", 7): "84ceba3c2aae9927fd2d4bdeb356917b27d4f601a9da8327437dd3328c88700d",
    ("S3", 8): "1734c2b0dfd4006df858b085c2f54c98c52ea1261916f3885cdab73208e26304",
    ("S3", 9): "b1dee74e3b77ce4af1e6bef5a43b0a5a1f5bf47e13d614d3072df694defd3867",
    ("S3", 10): "c7977a1f4de51f9b87c845990e0b62840c3ded8bbe198d75c033508c54d91171",
    ("S3", 11): "ac0173b6f31f6535021a895462af0c653471cb8e292f4212763c7f0a4c5f19c4",
    ("S3", 12): "635690c095772c8f42e61a26558da98410193d2b04d85a5edecfc778960f23d7",
    ("C2", 1): "2e5c92d00f0f0d88cc05a8c92c5855c0ecef5f59c04dcfc2c42f5e06b710bedb",
    ("C2", 2): "8cbae7aeedd17d3f191a23255900cd0383b055539f40390fb586248b49a95516",
    ("C2", 3): "40cb19ed2cd359dbe272eb6f6745b261a329e2b18a2ceb10c05147935a06b251",
    ("C2", 4): "64613bc88194f7832bc673c02000a3c2f083cde48617d3bc2ea0365b5f6991db",
    ("C2", 5): "1a0a618354de38b5728af7e2efa3c2347c0ad9ad1fa8f8c3158eb0ca45c52ec4",
    ("C2", 6): "3f968a8ffcef64cfc10d1b4220ca5af0a77c63b223775ecce8243b3682a47437",
    ("C2", 7): "ff7dc008bab68eb875f945ed7904efa545f5093f72c1ddf619c45330294e7631",
    ("C2", 8): "886a1e1fc490a8001aaa794764b9416e09ac009b3e06f1507d362e9ab1836b1c",
    ("C2", 9): "0bd862e2cbe711aa8940c4a7e066a5b64890c7a963b6b526073c55c6a9e46737",
    ("C2", 10): "28c9c3b80d1fcb108ccbda5be615e907b27bcbf749530006a3b67365e3c805ab",
    ("C2", 11): "f6b6b25990670f1310ca98284b4f232dedc6366d522b584b2112e8347a787587",
    ("C2", 12): "12a3042593dfe6c3cdbd65e258c171278f00e4c2ecfd3bedd2abcd787f356298",
    ("D4", 1): "bdf65d82d56d01d0ba810cdc5d6638eaa6b5e65b3223823ab6efbcf206eeae03",
    ("D4", 2): "db52190488331d098b6d02c778407f90d53ccb299c6ff397a7f7fde64c922ea4",
    ("D4", 3): "37ee19e9745c6380e4e92700808486b4ba37a7dd88d23054c7585249f95d273f",
    ("D4", 4): "3fddb81b838959f3931a91834f2a188cc2be73baf7f45c6b7fca6b7f85bfaa57",
    ("D4", 5): "82cf0847bfd8aaefd8edeea768332815d8a800451098a9f4f901d1ed929859e6",
    ("D4", 6): "f391ba253fb353e4b356c13ce98c9eeca2c0e315b9404acfc2de18329558707b",
    ("D4", 7): "bca4c498c27a6e1cefd19b1e1176dc69d3ed403f362884dc073385f82dc6a539",
    ("D4", 8): "94c8cc588f157f15e9896878a2b33880bdbbd51adacac97763cf0d99b0275bcb",
    ("D4", 9): "bab41d1dc448a34473cb35768db4afa6f41b1fff32a6d066631af7598cc62d67",
    ("D4", 10): "7691df13209aaf8a58a9ab8793d8270f82f2b610159eea2d92ed8bd51487c2de",
    ("D4", 11): "3fe46290dc4e0dc0b8903c5924ff4a877e3b10c60ab141a8065d30bf6298d493",
    ("D4", 12): "6d16380f3412ebe5d857b1d8eba0300d360adbdeb5a0fb2f6342e392cd145f24",
}
QH_RANDOM_REPORTS = {
    (
        "S3",
        (
            "[[x1^2,x1^100000000000000000000] x1^0 x2^0 x1^2147483647 "
            "[x2^2147483648,[x2,[x1^100000000000000000000,x1^2]]]; 1; x2^2147483647; "
            "x1^2147483648 x1^100000000000000000000 "
            "[x1^100000000000000000000,[[x1,x2^0],[x2^100000000000000000000,x2^-9223372036854775808]]]"
            " [x2^-3,[x2^0,x2^2]] x1^100000000000000000000; x1^-3; x2^-2147483648 "
            "[[x1^2147483648,x1^0],x2^0] x1] s1*s2"
        ),
    ): "d8c3d664f2790153834c4882a44e896a544fcffb43194d24ded7107a42feb8b0",
    (
        "C2",
        "[[[x2^2147483648,x1^0],x2^2147483648] x1^0 x2^-9223372036854775808; 1] a",
    ): "e0c9befbcf14035e452755d9dff49ed4beb7519579905db3e36be7939051c25c",
    (
        "D4",
        (
            "[[x2^0,x1^100000000000000000000] x1^-2147483648 "
            "[x1^-9223372036854775808,x2^9223372036854775809] "
            "[x1^-9223372036854775808,[x2,[x1^-9223372036854775808,x1^-3]]]; x1^4294967301; "
            "[[[x1^-2147483648,x2^2],[x2^-2147483648,x1^2147483648]],x2^2] "
            "[[x1^2147483648,x1^100000000000000000000],x1^-2147483648]; x1; 1; "
            "[x1^2147483647,x2^2]; x2^2147483647 x1^100000000000000000000; x2^2] r*r"
        ),
    ): "6de2b81bdafa653c469a7ac2f56212a5e49955903ed1ca14d03f6fe557ddf0ad",
    (
        "S3",
        (
            "[x2^-3 [x2^2147483647,x1^100000000000000000000] x1^2147483648; [x1^-3,x1] "
            "x1^9223372036854775809 x2^-3 "
            "[[x1^2147483647,x1^4294967301],[x1^-1,x2^-2147483648]] x1^-3; 1; "
            "[x1^0,x2^100000000000000000000] x1^4294967301; "
            "[[x2,x1^100000000000000000000],[[x2^-3,x1^-9223372036854775808],[x1^-3,x2^0]]]; "
            "1] s1"
        ),
    ): "775fc3c3785e474628de15501b7aad09a484c56038967032de4504d26f0ba973",
    (
        "C2",
        (
            "[x2^9223372036854775809 x1^0 "
            "[[[x1^-1,x1],x1^2147483647],x1^100000000000000000000]; "
            "[[x1^9223372036854775809,x1^100000000000000000000],x1^2147483648] x2^4294967301 "
            "x1^2147483647 x2^-3 x2^2147483648] 1"
        ),
    ): "abbdd3d021e0576bad9eb18ba92d65d461f40b63f48561e6138ddfc9e107b049",
    (
        "D4",
        (
            "[x1^0 x1^2147483648; [x2^-3,[x2^-2147483648,x1^2]] x1^2147483647 [x1^-1,x1^2] "
            "[x2^-3,x1^-9223372036854775808] x1^-1; x1^-9223372036854775808 "
            "[x2^100000000000000000000,x1^2147483647] x1^2 x2^-2147483648; 1; 1; 1; 1; x1^2 "
            "x1^-9223372036854775808 x1^2 [x1^2147483648,x1^4294967301] x1] 1"
        ),
    ): "064c72cfa4f9baeaec4697927c76e0116396fc030311a5a6fb37791e86f473eb",
    (
        "S3",
        (
            "[1; x2^2 [[x3^4294967301,x1^0],x2^9223372036854775809]; x2^2147483648 "
            "x2^-2147483648 x3^0; [x1^9223372036854775809,x3^0] x1^100000000000000000000 "
            "x3^-9223372036854775808 x3; x3^2147483648 x2^9223372036854775809 "
            "x3^9223372036854775809 x2^-9223372036854775808; x3^2147483648 x2^0] s1"
        ),
    ): "d99c06a946294d916a87bc62c09f1457d115dc716275e3c925d643863a40e8fc",
    (
        "C2",
        "[x1^4294967301; 1] a",
    ): "e4b8f2e2d689b6e08da667ae155f615eee257c6634dbe9126c3dad4e9dd4cc8c",
    (
        "D4",
        (
            "[[[x1,x3],x2^2147483648]; x2^2147483647 x2^-3 x1 x2^2; 1; 1; x3^-1; "
            "x3^100000000000000000000 x3^100000000000000000000 x1^2147483647 x2^0 "
            "[x2^2,x2^-9223372036854775808]; x3^4294967301; 1] r*r"
        ),
    ): "e8802c52a7b3337c6dc69aa85dd2f94fb183e113c4709693bd74e1b1f500165d",
    (
        "S3",
        (
            "[1; x3^2; x2^2147483648 x2^-1; x1^-1 x1^4294967301 x1^-3 x1; "
            "[[x2^0,x2^2147483648],x1] x1^-3 x1^2147483648 "
            "[[x3^-9223372036854775808,[x1^-1,x3^2]],x2^-9223372036854775808]; x1^-1 "
            "x3^9223372036854775809] s1*s2"
        ),
    ): "6ab833c44f6a5c3eda610828c4b1d81f55a3b9adeb86246ea6847a2915708b9f",
}

QH_GOLDEN = [
    pytest.param(top, q_text(j, QH_ORDERS[top]), digest, id=f"{top}-q{j}")
    for (top, j), digest in QH_Q_REPORTS.items()
] + [
    pytest.param(top, text, digest, id=f"{top}-random{i}")
    for i, ((top, text), digest) in enumerate(QH_RANDOM_REPORTS.items())
]


@pytest.mark.parametrize("top, text, digest", QH_GOLDEN)
def test_qh_report_matches_the_recorded_bytes(top, text, digest, tmp_path, capsys):
    argv = ["qh", "--", text]
    if QH_TOPS[top] is not None:
        argv[1:1] = ["--top", write_spec(tmp_path, "top.json", QH_TOPS[top])]
    assert cli.main(argv) == 0
    body = re.sub(r'"wall_time_s": [0-9.e-]+', '"wall_time_s": 0', capsys.readouterr().out)
    assert hashlib.sha256(body.encode()).hexdigest() == digest
