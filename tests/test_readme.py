"""The README's code runs as written."""

import re
import shlex
from pathlib import Path

from parseq.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_block_runs(tmp_path, monkeypatch, capsys):
    # The block's asserts are its claims: Picard after S sweeps equals the
    # rollout, and the naive gradient equals the exact one bit for bit.
    library = README.read_text().split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    exec(compile(block, f"{README}:Library", "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out.strip()


def test_command_examples_parse():
    # Every ``parseq`` line of the ```sh blocks, "\" continuations joined.
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["parseq"]:
                commands.append(words[1:])
    assert len(commands) >= 6
    parser = build_parser()
    for words in commands:
        parser.parse_args(words)
