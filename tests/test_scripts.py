"""The survey scripts run end to end on small arguments, so that an API
change that breaks them fails here."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name: str, *args: str) -> str:
    proc = subprocess.run([sys.executable, str(SCRIPTS / name), *args], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cw_lower_bounds():
    out = run_script("cw_lower_bounds.py", "--max-j", "200")
    assert out.splitlines()[-1].endswith("reaches 12 by j = 200")


def test_width_survey():
    # --products sends direct products through palindrome_elements
    out = run_script("width_survey.py", "--max-cyclic", "4", "--max-dihedral", "3", "--products")
    lines = out.splitlines()
    assert "(2){2,2}         |G|=8    [1 <= 2 <= 8]  branch i (3*sum(m)=6)" in lines
    assert "C2xC4        |G|=8    pw(word)=2  pw(group)=1  |P_word|=6   |P_group|=8" in lines


def test_code_lines():
    lines = run_script("code_lines.py").splitlines()
    counts = {name: int(count) for name, count in map(str.split, lines)}
    total = counts.pop("total")
    assert "nilprod.py" in counts and "__init__.py" in counts
    assert total == sum(counts.values()) > 0


def test_code_lines_skips_blanks_comments_and_docstrings(tmp_path):
    (tmp_path / "m.py").write_text(
        '"""Module\ndocstring."""\n\n# a comment\n'
        'def f(x):\n    """Doc."""\n    s = """not a\n    docstring"""  # trailing\n'
        '    return (x,\n            s)\n'
    )
    assert run_script("code_lines.py", str(tmp_path)).split() == ["m.py", "5", "total", "5"]
