"""The package's export list: each module's ``__all__``, republished once."""

import re

import presnov
from conftest import ROOT
from presnov import decomposition, dsl, equilibria, errors, fields, quadrature, radial, sampling

# The import order of presnov/__init__.py.
MODULES = (errors, fields, dsl, quadrature, decomposition, radial, equilibria, sampling)


def test_the_package_exports_every_module_list_in_import_order():
    assert presnov.__all__ == ["__version__", *(name for m in MODULES for name in m.__all__)]
    assert len(set(presnov.__all__)) == len(presnov.__all__)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(presnov, name) is getattr(module, name)


def test_readme_entry_points_are_exported():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    table = readme.split("Key entry points", 1)[1].split("\n\n")[1]
    names = re.findall(r"`(\w+)`", table)
    assert table.startswith("| area |") and names
    assert set(names) <= set(presnov.__all__)


def test_the_split_exports_one_name_per_quantity():
    # H, grad H, the split, its check, the two parts as fields, and the
    # result types; every function takes a batch of points.
    assert decomposition.__all__ == [
        "DecompositionSample",
        "DecompositionSet",
        "VerificationReport",
        "potential_many",
        "gradient_potential_integral_many",
        "decompose_many",
        "verify_decomposition",
        "ConservativePart",
        "SphereInvariantPart",
    ]
    # The single-point copies of batch functions are gone, and the
    # finite-difference cross-check is a module function of decomposition.
    for name in (
        "compute_potential",
        "gradient_potential",
        "gradient_potential_integral",
        "decompose",
        "radial_component",
        "gradient_potential_many",
    ):
        assert not hasattr(presnov, name), name
    assert callable(decomposition.gradient_potential_many)
