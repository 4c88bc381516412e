"""The README's Python examples run as written, in order, in one namespace."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks(text):
    return re.findall(r"^```python\n(.*?)^```$", text, flags=re.DOTALL | re.MULTILINE)


def test_readme_examples_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    blocks = python_blocks(README.read_text(encoding="utf-8"))
    assert len(blocks) == 2  # writing a program, then simulating it
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)

    rounds = 20 * 20 * 101  # every node of the lattice at t = 0, 0.1, ..., 10
    assert namespace["sim"].rounds_executed == rounds
    lines = (tmp_path / "trace.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "time,node_id,x,y,value"
    assert len(lines) == 1 + rounds
