"""The package namespace is exactly the public names of its submodules.

``specmeasure/__init__.py`` re-exports each submodule's ``__all__``, no more
and no less, and every error class; a name listed public in a submodule but
missing from the package (or the reverse) fails here.  ``PUBLIC`` pins
the names themselves, so any change to the public surface shows in its diff.
"""

import ast
import importlib
from pathlib import Path

import specmeasure
from specmeasure import errors

SUBMODULES = ("geometry", "model", "spectral", "measure", "verify")

PUBLIC = {
    "errors": [
        "ClassificationUnstableError", "ConfigurationError", "H1Violation",
        "H2Violation", "H3Violation", "InconsistencyError",
        "InvalidEigenpairError", "IterationLimitError",
        "NearSingularSystemError", "NonFiniteResultError", "NormalizationError",
        "PositivityViolationError", "SingularNodeError", "SpecmeasureError",
        "TooLargeError", "UnsupportedMeasureError",
    ],
    "geometry": [
        "Ball", "Box", "Cylinder", "GradeSpec", "Grid", "Interval", "Product",
        "Segment", "build_grid", "distance_to_target", "volume",
    ],
    "model": [
        "ArgmaxComponent", "ArgmaxSet", "CoefficientField",
        "IntegrabilityResult", "Kernel", "Problem", "build_problem",
        "check_recip_integrability", "constant_coefficient", "constant_kernel",
        "coordinate_linear", "custom_coefficient", "custom_kernel",
        "detect_argmax_set", "gaussian_kernel", "radial_power",
    ],
    "spectral": [
        "LambdaPEstimate", "PerronPair", "RegimeReport", "assemble_full",
        "assemble_ktilde", "classify_regime", "estimate_lambda_p", "perron",
    ],
    "measure": [
        "DiscreteMeasure", "build_singular_solution", "cantor_approximant",
        "density_at", "kernel_moment", "normalize", "span_combination",
    ],
    "verify": [
        "ResidualReport", "default_test_functions", "pointwise_residual",
        "refinement_study", "weak_residual",
    ],
}


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


def test_public_names_are_pinned():
    assert {module: sorted(names) for module, names in package_imports().items()} \
        == PUBLIC
    for module in SUBMODULES:
        mod = importlib.import_module(f"specmeasure.{module}")
        assert sorted(mod.__all__) == PUBLIC[module], module
