"""The package's layering and export list, read from its source with ``ast``, and the
README's list of its modules."""

import ast
import re
from pathlib import Path

import unruh_lab
from unruh_lab import measures

from helpers import ROOT


def package_imports(module) -> list[tuple[str, list[str]]]:
    """(module, names) of each ``from`` import of the package in ``module``'s source."""
    tree = ast.parse(Path(module.__file__).read_text())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert all(a.name.split(".")[0] != "unruh_lab" for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            name = node.module or ""
            if node.level > 0 or name.split(".")[0] == "unruh_lab":
                name = name.removeprefix("unruh_lab").lstrip(".")
                found.append((name, [a.asname or a.name for a in node.names]))
    return found


class TestLayering:
    def test_measures_imports_only_fock_and_errors(self):
        # entropies of matrices; the channel measures belong to the sweep
        assert {module for module, _ in package_imports(measures)} == {"errors", "fock"}


class TestExports:
    def test_every_exported_name_resolves_once(self):
        assert len(unruh_lab.__all__) == len(set(unruh_lab.__all__))
        for name in unruh_lab.__all__:
            assert hasattr(unruh_lab, name), name

    def test_exports_are_the_public_imports(self):
        imported = {
            name
            for _, names in package_imports(unruh_lab)
            for name in names
            if not name.startswith("_")
        }
        assert set(unruh_lab.__all__) == imported


def test_readme_package_layout_names_every_module_once():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"^## Package layout\n\n```\n(.*?)^```$", readme, re.M | re.S)
    listed = re.findall(r"^  (\w+)\.py ", block, re.M)
    package = Path(unruh_lab.__file__).parent
    modules = [path.stem for path in package.glob("*.py") if not path.stem.startswith("__")]
    assert sorted(listed) == sorted(modules)
