"""The README's examples run: every command of its "Command line" section
through the CLI, and the "Library quick start" Python blocks."""

import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from casimir_plates.cli import run
from casimir_plates.dispersion import material_preset

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _section(title: str) -> str:
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start : end if end >= 0 else None]


def _blocks(title: str, lang: str) -> list[str]:
    return re.findall(rf"```{lang}\n(.*?)```", _section(title), flags=re.S)


def _commands() -> list[str]:
    """The section's ``casimir-plates ...`` lines, continuation lines joined."""
    text = "".join(_blocks("Command line", "sh")).replace("\\\n", " ")
    return [" ".join(ln.split()) for ln in text.splitlines() if ln.strip().startswith("casimir-plates ")]


def test_the_sections_hold_examples():
    assert len(_commands()) == 9
    assert len(_blocks("Library quick start", "python")) == 2


@pytest.mark.parametrize("command", _commands())
def test_command_line_example_exits_zero(command, tmp_path, monkeypatch, capsys):
    # mydata.csv: the Au preset sampled at 20 points per decade, wide enough
    # for the README's 200 nm / 300 K cell without a fallback
    au = material_preset("Au")
    zeta = np.geomspace(1e11, 1e19, 161)
    rows = [f"{z:.9e},{e:.9e}" for z, e in zip(zeta, au.eps(zeta))]
    (tmp_path / "mydata.csv").write_text("\n".join(["zeta_rad_per_s,eps", *rows]) + "\n")
    monkeypatch.chdir(tmp_path)
    assert run(shlex.split(command)[1:]) == 0, capsys.readouterr().err


def test_library_quick_start_runs(capsys):
    namespace: dict = {}
    for block in _blocks("Library quick start", "python"):
        exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["result"].pressure < 0.0
    assert capsys.readouterr().out
