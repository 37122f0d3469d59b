"""The CI workflow's wiring: its checks live in ``ci/*.sh``, none of which runs here.

The workflow is read as text (no YAML parser is a dependency).  The
scripts are left to ``ci/run_local.sh``: the unrun-statement gate runs this
suite itself and fails if any statement of ``src/`` goes unrun, the value
diff sweeps two trees, and the bench smoke run and the mutation catalogue
take about 20 s and 110 s on a 2-core machine.  Here the catalogue's entries
are only read, and the gate's statement parser runs on a small source.  The
checks that need only the package, the golden figure digests, the ``verify
--quick`` verdicts, the point columns and ``python -m unruh_lab``, are
tier-1 tests of their own.
"""

import importlib.util
import re

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
    # and no other step runs a ci/ file (a comment may name one)
    run_lines = re.findall(r"^ +run: .*$", WORKFLOW, re.M)
    assert sum("ci/" in line for line in run_lines) == len(scripts)


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


def test_unrun_gate_counts_statements_by_their_own_lines(tmp_path):
    # the gate itself traces the whole suite and is left to ci/run_local.sh
    spec = importlib.util.spec_from_file_location("unrun", CI / "unrun.py")
    unrun = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(unrun)
    module = tmp_path / "module.py"
    module.write_text(
        '"""Module docstring."""\n'
        "\n"
        "\n"
        "def f(x):\n"
        '    """Docstring."""\n'
        "    return max(\n"
        "        x,\n"
        "        1,\n"
        "    )\n"
        "\n"
        "\n"
        "if f(\n"
        "    0\n"
        "):\n"
        "    y = 1\n",
        encoding="utf-8",
    )
    # the def's header but not its docstring, every line of the call, the
    # if's header lines but not its body
    assert unrun.statements(module) == [
        (4, range(4, 5)), (6, range(6, 10)), (12, range(12, 15)), (15, range(15, 16))
    ]
    module.write_text('"""Only a docstring."""\n', encoding="utf-8")
    assert unrun.statements(module) == []
