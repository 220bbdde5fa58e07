"""Every python block of README.md runs as written."""

import re
from pathlib import Path

import pytest

from maximin.linmodel import ScenarioSpec, generate

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                    flags=re.M | re.S)


def _write_grouped_csv(path):
    """A grouped data.csv (group, x1..xp, y) for the blocks that read one."""
    dataset, _ = generate(ScenarioSpec(p=3, G=3, n=50, seed=0))
    lines = ["group," + ",".join(f"x{j + 1}" for j in range(dataset.p)) + ",y"]
    for label, (X, y) in zip(dataset.labels, dataset.groups):
        lines += [",".join([label, *map(repr, row), repr(value)])
                  for row, value in zip(X.tolist(), y.tolist())]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_the_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("number", range(1, len(BLOCKS) + 1))
def test_a_readme_block_runs(number, tmp_path, monkeypatch):
    _write_grouped_csv(tmp_path / "data.csv")
    monkeypatch.chdir(tmp_path)
    code = compile(BLOCKS[number - 1], f"README.md python block {number}", "exec")
    exec(code, {"__name__": "readme"})
