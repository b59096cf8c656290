"""Each walkthrough in demos/ runs to completion against the current API."""
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import cli_env

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_all_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    res = subprocess.run([sys.executable, str(demo)], capture_output=True, cwd=tmp_path,
                         env=cli_env(), timeout=600)
    assert res.returncode == 0, res.stderr.decode(errors="replace")
