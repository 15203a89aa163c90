"""The demos and the README's code stay runnable: each runs within seconds."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from rankcp.cli import main

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", sorted(path.name for path in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo, tmp_path):
    # in a scratch directory: envelope_shapes.py writes its table to the cwd
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        env=env, capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    # in order and in one namespace, as a reader pastes them; a function the
    # README uses that is renamed or deleted fails here
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, flags=re.DOTALL | re.MULTILINE)
    assert len(blocks) == 3
    monkeypatch.chdir(tmp_path)
    namespace = {}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)


def test_readme_cli_commands_run(tmp_path, monkeypatch):
    # the README's rankcp commands, in order and in one directory, as a reader
    # runs them; a flag the README uses that is renamed or removed fails here
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```bash\n(.*?)^```", text, flags=re.DOTALL | re.MULTILINE)
    lines = [line for block in blocks for line in block.replace("\\\n", " ").splitlines()]
    commands = [shlex.split(line) for line in lines if line.startswith("rankcp ")]
    assert [argv[1] for argv in commands] == [
        "synth", "simulate-envelope", "predict", "evaluate", "experiment"]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv[1:]) == 0, argv
