"""Each narrative demo, and the README's Quick start, runs to completion against the library in src/;
each channel config in the README loads.

Scripts run with ResourceWarning as an error; a warning raised during
garbage collection is only printed, so stderr is checked for it as well.
"""
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from lownoise.channels import channel_from_config, channel_to_config

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_script(args, tmp_path):
    # TMPDIR keeps the files a script writes inside the test's own directory
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, "-W", "error::ResourceWarning", *args],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "ResourceWarning" not in proc.stderr, proc.stderr
    return proc


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    run_script([str(demo)], tmp_path)


def test_readme_quick_start_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    proc = run_script(["-c", code], tmp_path)
    assert proc.stdout.strip()


README_CONFIGS = re.findall(r"```json\n(.*?)```", (ROOT / "README.md").read_text(encoding="utf-8"), re.S)


@pytest.mark.parametrize("text", README_CONFIGS, ids=lambda text: json.loads(text)["builder"])
def test_readme_channel_config_loads_and_round_trips(text):
    cfg = channel_to_config(channel_from_config(json.loads(text)))
    assert channel_to_config(channel_from_config(cfg)) == cfg


def test_readme_explicit_config_is_the_channel_of_the_config_above_it():
    configs = [json.loads(text) for text in README_CONFIGS]
    assert [cfg["builder"] for cfg in configs] == ["sqrt-completion", "explicit"]
    assert channel_to_config(channel_from_config(configs[1])) == channel_to_config(channel_from_config(configs[0]))
