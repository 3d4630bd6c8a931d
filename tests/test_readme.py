"""The README's code runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_block_runs(tmp_path, monkeypatch, capsys):
    # The block's asserts are its claims: Picard after S sweeps equals the
    # rollout, and the naive gradient equals the exact one bit for bit.
    library = README.read_text().split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    exec(compile(block, f"{README}:Library", "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out.strip()
