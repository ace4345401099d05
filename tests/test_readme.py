"""The README's examples run as written: its Python blocks execute and its
JSON configs obey the config schema."""

import json
import re
from pathlib import Path

import pytest

from sbrl import cli

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"```python\n(.*?)```", TEXT, re.S)
CONFIGS = [cfg for cfg in map(json.loads, re.findall(r"```json\n(.*?)```", TEXT, re.S))
           if isinstance(cfg, dict) and "system" in cfg]


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index):
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"),
         {"__name__": "readme"})


def test_readme_has_config_examples():
    assert CONFIGS


@pytest.mark.parametrize("index", range(len(CONFIGS)))
def test_readme_config_obeys_the_schema(index):
    assert cli.validate_config(CONFIGS[index]) == []
