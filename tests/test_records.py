"""The package's records: immutable named tuples, cheap to import.

Every record type is a ``typing.NamedTuple``; ``GridSpec``, the one
that checks its fields, does so in ``__new__`` and routes ``_make`` (and
so ``_replace``) through it.  Importing the package loads none of
``dataclasses``, ``inspect`` or ``fractions``, whose import would cost
more than thousands of evaluations, and a scalar evaluation loads only
the submodules it runs: each public name loads with its submodule on
first use.
"""

import inspect
import json
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import lambertw
from lambertw import (
    AccuracyReport,
    ApproximationRegion,
    Branch,
    GridSpec,
    RationalFit,
)

SRC = Path(__file__).resolve().parents[1] / "src"

RECORDS = [
    pytest.param(
        ApproximationRegion,
        dict(branch=Branch.PRINCIPAL, lower=0.0, upper=1.0, kind="rational-fit-2"),
        None,
        id="ApproximationRegion",
    ),
    pytest.param(
        RationalFit,
        dict(numerator=(1.0, 2.0), denominator=(1.0, 0.5), leading_factor_x=True),
        None,
        id="RationalFit",
    ),
    pytest.param(
        GridSpec,
        dict(kind="log", start=1.0, stop=10.0, count=5),
        dict(count=1),
        id="GridSpec",
    ),
    pytest.param(
        AccuracyReport,
        dict(
            branch=Branch.LOWER,
            stage="approximation",
            grid=GridSpec("linear", -0.3, -0.1, 2),
            samples=((-0.3, 6.5, "rational-fit-1"), (-0.1, 7.5, "rational-fit-1")),
        ),
        None,
        id="AccuracyReport",
    ),
]


@pytest.mark.parametrize("cls, fields, invalid", RECORDS)
def test_record_invariants(cls, fields, invalid):
    record = cls(**fields)
    for name in (*fields, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
    twin = cls(**fields)
    assert twin == record and hash(twin) == hash(record)
    assert record == tuple(fields.values())
    assert record._replace() == record
    if invalid is None:
        return
    with pytest.raises(ValueError) as from_constructor:
        cls(**{**fields, **invalid})
    for build in (lambda: record._replace(**invalid),
                  lambda: cls._make({**fields, **invalid}.values())):
        with pytest.raises(type(from_constructor.value)) as caught:
            build()
        assert str(caught.value) == str(from_constructor.value)


def _fresh(code: str) -> str:
    """The last line that ``code`` prints in a fresh isolated interpreter
    with this checkout's ``src`` first on the path."""
    script = f"import sys\nsys.path.insert(0, {str(SRC)!r})\n{code}\n"
    proc = subprocess.run([sys.executable, "-I", "-c", script], capture_output=True,
                          text=True, timeout=60, check=True)
    return proc.stdout.splitlines()[-1]


def _newly_loaded(code: str) -> set[str]:
    """Modules that ``code`` loads in a fresh isolated interpreter."""
    return set(_fresh("before = set(sys.modules)\n"
                      f"{code}\n"
                      "print(' '.join(sorted(set(sys.modules) - before)))").split())


_HEAVY = {"dataclasses", "inspect", "ast", "dis", "fractions", "decimal", "numpy"}


def test_import_loads_no_heavy_stdlib_module():
    loaded = _newly_loaded("import lambertw")
    assert "lambertw" in loaded
    assert not loaded & _HEAVY, sorted(loaded & _HEAVY)


@pytest.mark.parametrize("argv", [["0.5"], ["sweep", "--count", "3"], ["moyal-inverse", "0.2"],
                                  ["gh-inverse", "0.5", "2"], ["--help"]],
                         ids=["bare", "sweep", "moyal-inverse", "gh-inverse", "help"])
def test_no_cli_form_loads_argparse(argv):
    loaded = _newly_loaded(f"from lambertw.cli import run_cli\nrun_cli({argv!r})")
    assert "lambertw.cli" in loaded
    assert not loaded & (_HEAVY | {"argparse"}), sorted(loaded & (_HEAVY | {"argparse"}))


# The package's public names by defining submodule.
PUBLIC = {
    "accuracy": "AccuracyReport DELTA_CAP GridSpec STAGES accuracy_sweep default_panels"
                " delta_accuracy write_report",
    "api": "EvalResult RESIDUAL_TOL W0_REGIONS WM1_REGIONS dispatch_region lambert_w"
           " lambert_w0 lambert_w_approximation lambert_wm1 steps_to_converge",
    "approx": "ApproximationRegion BRANCH_POINT_COEFFICIENTS RationalFit W0_FIT_1 W0_FIT_2"
              " WM1_FIT asymptotic_series branch_point_series continued_log_recursion_wm1"
              " rational_fit_eval",
    "branches": "BRANCH_POINT_TOL Branch DomainError MINUS_INV_E SingularityError",
    "iteration": "SCHEMES defining_residual fritsch_step halley_step",
    "oracle": "reference_w",
    "physics": "GhRoots MOYAL_PEAK gaisser_hillas gh_inverse moyal moyal_inverse",
}
PUBLIC_NAMES = {name for names in PUBLIC.values() for name in names.split()}


@pytest.mark.parametrize("call", ["lambert_w0(0.5)", "lambert_w(-1, -0.1)"])
def test_scalar_call_loads_only_the_evaluation_modules(call):
    loaded = _newly_loaded(f"import lambertw\nlambertw.{call}")
    unused = {"lambertw.accuracy", "lambertw.oracle", "lambertw.physics", "lambertw.cli",
              "__future__"}
    assert "lambertw.api" in loaded
    assert not loaded & unused, sorted(loaded & unused)


def test_star_import_binds_each_public_name_from_its_submodule():
    star = json.loads(_fresh(
        "import importlib, json\n"
        "star = {}\n"
        "exec('from lambertw import *', star)\n"
        "del star['__builtins__']\n"
        f"public = {PUBLIC!r}\n"
        "print(json.dumps({'names': sorted(star), 'foreign': [\n"
        "    name for module, names in public.items() for name in names.split()\n"
        "    if star[name] is not getattr(importlib.import_module(f'lambertw.{module}'), name)]}))"))
    assert len(PUBLIC_NAMES) == 44
    assert set(star["names"]) == PUBLIC_NAMES
    assert star["foreign"] == []


def test_dir_lists_every_public_name_before_use():
    listed = set(_fresh("import lambertw\nprint(' '.join(dir(lambertw)))").split())
    assert set(lambertw.__all__) == PUBLIC_NAMES
    assert PUBLIC_NAMES <= listed


def test_type_hints_resolve_for_every_public_function_and_class():
    """Every annotation of the public API names something the module
    defines at run time, so ``typing.get_type_hints`` evaluates it (an
    annotation naming a TYPE_CHECKING-only import raises NameError)."""
    checked = []
    for name in lambertw.__all__:
        obj = getattr(lambertw, name)
        if inspect.isclass(obj):
            typing.get_type_hints(obj)
            for member in vars(obj).values():
                if inspect.isfunction(member):
                    typing.get_type_hints(member)
        elif inspect.isfunction(obj):
            typing.get_type_hints(obj)
        else:
            continue
        checked.append(name)
    assert "rational_fit_eval" in checked and len(checked) >= 30


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="^module 'lambertw' has no attribute 'no_such_name'$"):
        lambertw.no_such_name


def test_submodule_resolves_without_an_explicit_import():
    loaded = _newly_loaded("import lambertw\nassert lambertw.oracle.reference_w(0, 0.0) == 0.0")
    assert "lambertw.oracle" in loaded
    assert not loaded & {"lambertw.accuracy", "lambertw.physics"}, sorted(loaded)
