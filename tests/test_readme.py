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


SHIPPED = [Path(cli.__file__).with_name(f"example{n}.json") for n in (1, 2)]


@pytest.mark.parametrize("cfg", SHIPPED + [c for c in CONFIGS
                                           if "certificate" in c],
                         ids=lambda c: c.name if isinstance(c, Path)
                         else c["certificate"]["kind"])
def test_shipped_and_readme_certificates_take_exact_paths(tmp_path,
                                                          monkeypatch, cfg):
    # every config system declares its parts and every config storage is
    # quadratic or separable, so no config run takes the sphere-sampled
    # G_beta lower bound
    from sbrl import certify
    reached = []
    monkeypatch.setattr(certify, "_sphere_sup",
                        lambda *args: reached.append(args))
    if isinstance(cfg, Path):
        path = cfg
    else:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
    assert cli.main(["certify", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 0
    assert reached == []
