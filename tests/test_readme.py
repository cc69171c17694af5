"""The ```python blocks of README.md run as written, and each ```json block
is a spec that `approx` takes and echoes."""

import json
import re
from pathlib import Path

import pytest

from ordinfluence import cli

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```$", TEXT, re.DOTALL | re.MULTILINE)
SPECS = re.findall(r"^```json\n(.*?)^```$", TEXT, re.DOTALL | re.MULTILINE)


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 4


@pytest.mark.parametrize("source", BLOCKS,
                         ids=["block-%d" % i for i in range(len(BLOCKS))])
def test_readme_block_runs(source):
    exec(compile(source, str(README), "exec"), {"__name__": "readme"})


def test_readme_has_a_json_spec_of_every_kind():
    kinds = [json.loads(text)["kind"] for text in SPECS]
    assert set(kinds) == {"orderstat-polynomial", "plain-polynomial",
                          "set-function", "multiplicative", "power-product",
                          "builtin"}


@pytest.mark.parametrize("text", SPECS,
                         ids=["spec-%d" % i for i in range(len(SPECS))])
def test_readme_spec_approximates(text, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(text, encoding="utf-8")
    assert cli.main(["approx", str(path), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["spec"] == json.loads(text)
