"""The package namespace is exactly the public names of its submodules.

``specmeasure/__init__.py`` re-exports each submodule's ``__all__``, no more
and no less, and every error class; a name listed public in a submodule but
missing from the package (or the reverse) fails here.
"""

import ast
import importlib
from pathlib import Path

import specmeasure
from specmeasure import errors

SUBMODULES = ("geometry", "model", "spectral", "measure", "verify")


def package_imports() -> dict[str, set[str]]:
    """The names ``__init__.py`` imports, keyed by submodule."""
    tree = ast.parse(Path(specmeasure.__file__).read_text())
    names: dict[str, set[str]] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names.setdefault(node.module, set()).update(a.name for a in node.names)
    return names


def test_package_reexports_each_submodule_all():
    names = package_imports()
    assert set(names) == {"errors", *SUBMODULES}
    for module in SUBMODULES:
        mod = importlib.import_module(f"specmeasure.{module}")
        assert names[module] == set(mod.__all__), module
        for name in mod.__all__:
            assert getattr(specmeasure, name) is getattr(mod, name)


def test_package_exports_every_error():
    defined = {name for name, obj in vars(errors).items()
               if isinstance(obj, type) and issubclass(obj, errors.SpecmeasureError)}
    assert package_imports()["errors"] == defined
