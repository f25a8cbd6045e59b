"""The CI workflow's steps, run in the tier-1 suite.

Each CLI step of ``.github/workflows/tests.yml`` runs as a ``bash -e``
script in a fresh directory, with the package taken from ``src`` and the
``diskpoly`` console command spelled ``python -m diskpoly.cli``; each must
exit 0, and every ``*.json`` file it writes must parse as JSON, with no
NaN or Infinity constant.  The three benchmark steps are not run, since
together they take about 12 s: each is checked to name a workload of
``BENCHMARK.json`` and to use only options that ``bench/run.py --help``
lists.
"""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"

STEPS = [step["run"] for job in yaml.safe_load(WORKFLOW.read_text())["jobs"].values()
         for step in job["steps"] if "run" in step]
SETUP = ["pip install -e '.[test]'", "python -m pytest -q"]
BENCH = [run for run in STEPS if run.startswith("python3 bench/run.py ")]
CLI = [run for run in STEPS if run not in SETUP and run not in BENCH]


def test_every_step_is_classified():
    # a step that is neither setup nor a bench run is run below as a CLI step
    assert [run for run in STEPS if run in SETUP] == SETUP
    assert len(BENCH) == 3 and len(CLI) == 12
    assert all("diskpoly" in run for run in CLI)


def _no_constant(name):
    """``parse_constant`` for json.loads: NaN and Infinity are not JSON."""
    raise ValueError(f"not JSON: {name}")


@pytest.mark.parametrize("run", CLI, ids=[f"step{i}" for i in range(len(CLI))])
def test_cli_step_exits_0(run, tmp_path):
    # the interpreter running the tests is the script's ``python``
    path = os.pathsep.join([str(Path(sys.executable).parent), os.environ.get("PATH", "")])
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PATH=path)
    script = run.replace("diskpoly ", "python -m diskpoly.cli ")
    proc = subprocess.run(["bash", "-e", "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    # every report a step writes is JSON: no NaN or Infinity constants
    for path in tmp_path.glob("*.json"):
        json.loads(path.read_text(), parse_constant=_no_constant)

def test_bench_steps_name_workloads_with_listed_options():
    workloads = {w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
    usage = subprocess.run([sys.executable, "bench/run.py", "--help"], cwd=ROOT,
                           capture_output=True, text=True, check=True, timeout=60).stdout
    options = set(re.findall(r"--[a-z][a-z-]*", usage))
    named = set()
    for run in BENCH:
        words = shlex.split(run)
        assert {w for w in words if w.startswith("--")} <= options, run
        named.add(words[words.index("--workload") + 1])
    assert named == workloads
