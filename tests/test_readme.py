"""Every ``liecurv`` example in the README's CLI section runs and prints a
strict JSON report, so a removed or renamed flag cannot leave the docs stale."""

import json
import shlex
from pathlib import Path

import pytest

from liecurv.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _cli_examples() -> list[str]:
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [" ".join(line.split()) for line in lines if line.strip().startswith("liecurv ")]


def _reject_constant(token):
    raise ValueError(f"report holds {token}, which is not strict JSON")


EXAMPLES = _cli_examples()


def test_readme_cli_section_has_examples():
    assert len(EXAMPLES) >= 7, EXAMPLES


@pytest.mark.parametrize("line", EXAMPLES)
def test_readme_cli_example_runs(line, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # examples may write files such as scan.csv
    monkeypatch.delenv("LIECURV_SEED", raising=False)
    code = main(shlex.split(line, comments=True)[1:])
    out = capsys.readouterr().out
    assert code in (0, 1), line
    assert isinstance(json.loads(out, parse_constant=_reject_constant), dict), line
