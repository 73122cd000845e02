"""Run README.md's examples, so the documentation tracks the API and the CLI."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from pyrafuse.cli import main
from test_segy import _build_segy

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
# (info string, body) of each fenced block, in order
FENCES = re.findall(r"^```(\w*)\n(.*?)^```$", TEXT, re.M | re.S)
BLOCKS = [body for lang, body in FENCES if lang == "python"]
SH_BLOCKS = [body for lang, body in FENCES if lang == "sh"]
# the model file of "Synthetic model files": the bare block that sets nt
SPEC = next(body for lang, body in FENCES if not lang and "nt =" in body)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_block_runs(source):
    exec(compile(source, str(README), "exec"), {"__name__": "readme"})


def _commands(block: str) -> list[list[str]]:
    """The argument lists of ``block``'s pyrafuse commands, in order: joins
    backslash continuations and unrolls ``for i in ...; do ... done``."""
    lines = [line.strip() for line in block.replace("\\\n", " ").splitlines()]
    lines = [line for line in lines if line and not line.startswith("#")]
    commands, i = [], 0
    while i < len(lines):
        loop = re.fullmatch(r"for (\w+) in ([^;]+); do", lines[i])
        if loop is None:
            commands.append(lines[i])
            i += 1
            continue
        end = lines.index("done", i)
        name, values = loop.group(1), loop.group(2).split()
        commands += [body.replace(f"${name}", v) for v in values for body in lines[i + 1 : end]]
        i = end + 1
    argvs = [shlex.split(command) for command in commands]
    assert all(argv[0] == "pyrafuse" for argv in argvs)
    return [argv[1:] for argv in argvs]


def _payload(path: Path) -> bytes:
    blob = path.read_bytes()
    return blob[blob.index(b"\n\n") + 2 :]


def test_cli_walkthrough_runs(tmp_path, monkeypatch, capsys):
    # the walkthrough is the sh block after the installation one
    commands = _commands(SH_BLOCKS[1])
    assert len(commands) == 19
    monkeypatch.chdir(tmp_path)
    (tmp_path / "model.spec").write_text(SPEC)
    traces = np.random.default_rng(5).standard_normal((32, 6))
    (tmp_path / "line.sgy").write_bytes(_build_segy(traces, [1] * 6, range(1, 7)))
    for argv in commands:
        assert main(argv) == 0, argv
    assert capsys.readouterr().out.startswith("magic=PFGRID1\n")  # from info
    assert _payload(tmp_path / "fused.pfg") == _payload(tmp_path / "fused-manual.pfg")
