"""End-to-end CLI: JSON reports, exit codes, round trips, determinism."""

import json
import subprocess
import sys

import pytest

from groupwidths.finite_groups import direct_product, cyclic, group_from_spec, group_to_spec, sym3_fink
from groupwidths.wreath import WreathGroup, format_wreath_element, q_sequence


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
        # nilprod moduli are JSON integers, and factors are labeled a..z
        bad_nilprod_specs = [
            [{"moduli": [2.5]}, {"moduli": [2]}],
            [{"moduli": ["3"]}, {"moduli": [2]}],
            [{"moduli": [True]}, {"moduli": [2]}],
            [{"moduli": 3}, {"moduli": [2]}],
            {"factors": 5},
            [{"moduli": [1]}] * 27,
        ]
        for spec in bad_nilprod_specs:
            proc = run_cli("nilprod", write_spec(tmp_path, "bad_nilprod.json", spec))
            assert proc.returncode == 2, (spec, proc.stderr)
            assert "Traceback" not in proc.stderr

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

        monkeypatch.setattr(cli, "group_from_spec", broken)
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


class TestPretty:
    def test_pretty_is_indented_same_payload(self, tmp_path):
        spec = write_spec(tmp_path, "c3.json", {"kind": "cyclic", "n": 3})
        plain = run_cli("pw", spec)
        pretty = run_cli("--pretty", "pw", spec)
        assert pretty.stdout.count("\n") > plain.stdout.count("\n")
        a, b = json.loads(plain.stdout), json.loads(pretty.stdout)
        a.pop("wall_time_s"), b.pop("wall_time_s")
        assert a == b
