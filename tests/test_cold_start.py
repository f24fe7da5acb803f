"""scipy stays off the import path of commands that integrate no oscillator.

Each case runs in a fresh interpreter, because this test process has
long since imported scipy through other tests.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quakespec
from quakespec.cli import main
from conftest import DEMO_DIR

SRC_DIR = str(Path(quakespec.__file__).resolve().parent.parent)

# Runs cli.main on argv (or only imports when argv is empty), then
# prints the exit code and the scipy modules loaded as the last line.
PROBE = """
import json, sys
import quakespec, quakespec.cli
code = quakespec.cli.main(sys.argv[1:]) if sys.argv[1:] else 0
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps({"code": code, "scipy": loaded}))
"""


def fresh_cli(*argv, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC_DIR, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv], cwd=cwd,
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["code"] == 0, proc.stderr
    return result["scipy"]


@pytest.fixture(scope="module")
def demo_table(tmp_path_factory):
    out = tmp_path_factory.mktemp("table") / "parameters.csv"
    assert main(["batch", str(DEMO_DIR), "--out", str(out)]) == 0
    return out


def test_import_loads_no_scipy(tmp_path):
    assert fresh_cli(cwd=tmp_path) == []


@pytest.mark.parametrize("command", ["version", "correlate", "map", "synth"])
def test_command_loads_no_scipy(command, demo_table, tmp_path):
    argv = {
        "version": ["--version"],
        "correlate": ["correlate", str(demo_table), "--out-dir", "reports"],
        "map": ["map", str(demo_table), str(DEMO_DIR), "--param", "t_cen",
                "--out", "map.geojson"],
        "synth": ["synth", "--kind", "sine", "--out", "sine.csv"],
    }[command]
    assert fresh_cli(*argv, cwd=tmp_path) == []


def test_analyze_loads_scipy_signal(tmp_path):
    # Shows that the probe does see scipy when a command needs it.
    loaded = fresh_cli("analyze", str(DEMO_DIR / "wf" / "r01.csv"),
                       "--out", "r01.json", cwd=tmp_path)
    assert "scipy.signal" in loaded


def test_batch_threads_race_on_first_import(tmp_path):
    # Both worker threads reach the deferred scipy import at once.
    tables = []
    for jobs in (1, 2):
        out = tmp_path / f"p{jobs}.csv"
        fresh_cli("batch", str(DEMO_DIR), "--out", str(out),
                  "--jobs", str(jobs), cwd=tmp_path)
        tables.append(out.read_bytes())
    assert tables[0] == tables[1]
