"""The README's library example runs, and it documents every exported name."""

import pathlib
import re
import subprocess
import sys
import types

import json

import pytest

import osnrgame
from osnrgame.scenario import scenario_from_dict

from helpers import subprocess_env

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def test_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README, re.DOTALL)
    assert len(blocks) == 1
    # a fresh interpreter, so only the public import path is used
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", blocks[0]],
        env=subprocess_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout.startswith("True ")


def test_every_exported_name_is_documented():
    exported = sorted(
        name for name, value in vars(osnrgame).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert len(exported) <= 15
    assert [name for name in exported if f"`{name}" not in README] == []


def test_minimal_scenario_validates_and_loads():
    jsonschema = pytest.importorskip("jsonschema")
    block = re.search(r"Minimal scenario.*?```json\n(.*?)```", README, re.DOTALL).group(1)
    doc = json.loads(block)
    jsonschema.Draft202012Validator(json.loads((ROOT / "scenario.schema.json").read_text())
                                    ).validate(doc)
    assert scenario_from_dict(doc).size == 2
