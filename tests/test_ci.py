"""The CI workflow's wiring: its checks live in ``ci/*.sh``, which run here too.

The workflow is read as text (no YAML parser is a dependency).  The cheap
scripts run against this checkout through a PATH shim for the console
script; ``ci/unrun.sh``, ``ci/figure_goldens.sh``, ``ci/bench_smoke.sh``
and ``ci/mutants.sh`` are left to ``ci/run_local.sh``: the unrun-statement
gate runs this suite itself, and the last two take about 30 s and 25 s.  The
mutation catalogue's entries are only read here.
"""

import importlib.util
import os
import re
import shutil
import subprocess
import sys

import pytest

from helpers import ROOT

CI = ROOT / "ci"
WORKFLOW = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
RUN_LOCAL = (CI / "run_local.sh").read_text(encoding="utf-8")


def workflow_scripts() -> list[str]:
    """The ``ci/`` scripts the workflow's steps call, in step order."""
    return re.findall(r"^ +run: bash ci/(\w+)\.sh$", WORKFLOW, re.M)


def local_scripts() -> list[str]:
    """The ``ci/`` scripts ``ci/run_local.sh`` runs, in its order."""
    (names,) = re.findall(r"^for script in ([\w ]+); do$", RUN_LOCAL, re.M)
    return names.split()


def test_workflow_calls_every_ci_script_in_the_order_run_local_runs_them():
    scripts = sorted(path.stem for path in CI.glob("*.sh") if path.name != "run_local.sh")
    assert workflow_scripts() == local_scripts()
    assert sorted(workflow_scripts()) == scripts
    # each check is a script: no step runs a block of its own
    assert "run: |" not in WORKFLOW
    assert WORKFLOW.count("ci/") == len(scripts)


def test_checkout_fetches_the_parent_commit_for_the_value_diff():
    # in CI the working tree is HEAD, so ci/value_diff.sh compares it with HEAD^
    (checkout,) = re.findall(r"^ +- uses: actions/checkout@v4\n((?: {8}.*\n)*)", WORKFLOW, re.M)
    assert re.search(r"^ +with:\n(?: +#.*\n)* +fetch-depth: 2$", checkout, re.M)
    assert "HEAD^" in (CI / "value_diff.sh").read_text(encoding="utf-8")


def test_every_catalogued_mutant_matches_the_source_once():
    spec = importlib.util.spec_from_file_location("mutants", CI / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    assert mutants.MUTANTS
    assert mutants.catalogue_problems() == []


def test_every_ci_script_stops_at_its_first_failure():
    for path in CI.glob("*.sh"):
        assert "\nset -euo pipefail\n" in path.read_text(encoding="utf-8"), path.name


@pytest.fixture(scope="module")
def shim_env(tmp_path_factory):
    """The environment of ``ci/run_local.sh``: ``unruh-lab`` runs this checkout's source."""
    if shutil.which("bash") is None:
        pytest.skip("the ci/ scripts need bash")
    shim = tmp_path_factory.mktemp("shim")
    console = shim / "unruh-lab"
    console.write_text(f'#!/usr/bin/env bash\nexec "{sys.executable}" -m unruh_lab "$@"\n')
    console.chmod(0o755)
    # `python` in the scripts is this interpreter too
    (shim / "python").symlink_to(sys.executable)
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PATH=f"{shim}{os.pathsep}{os.environ['PATH']}", PYTHONPATH=path)


@pytest.mark.parametrize("script", ["verify_quick", "point_columns"])
def test_cheap_ci_scripts_pass_on_this_checkout(shim_env, script, tmp_path):
    done = subprocess.run(
        ["bash", str(CI / f"{script}.sh")], env=shim_env, cwd=tmp_path,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr


def test_every_listed_unrun_statement_is_a_statement_of_the_source():
    # the gate itself traces the whole suite and is left to ci/run_local.sh
    spec = importlib.util.spec_from_file_location("unrun", CI / "unrun.py")
    unrun = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(unrun)
    assert unrun.UNRUN and all(unrun.UNRUN.values())
    for path, scope, source in unrun.UNRUN:
        found = [(s, text) for s, _, text, _ in unrun.statements(ROOT / path)]
        assert found.count((scope, source)) == 1, (path, scope, source)
