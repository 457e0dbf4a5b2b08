"""The package's records: immutable named tuples, cheap to import.

Every record type is a ``typing.NamedTuple``; the three that check their
fields do so in ``__new__`` and route ``_make`` (and so ``_replace``)
through it.  Importing the package loads none of ``dataclasses``,
``inspect`` or ``fractions``, whose import would cost more than
thousands of evaluations.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from lambertw import (
    AccuracyReport,
    ApproximationRegion,
    Branch,
    GaisserHillasParams,
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
        dict(denominator=(2.0, 1.0)),
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
    pytest.param(
        GaisserHillasParams,
        dict(X0=0.0, Xmax=700.0, lam=70.0),
        dict(lam=0.0),
        id="GaisserHillasParams",
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


def _newly_loaded(code: str) -> set[str]:
    """Modules that ``code`` loads in a fresh isolated interpreter with
    this checkout's ``src`` first on the path."""
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "before = set(sys.modules)\n"
        f"{code}\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    proc = subprocess.run([sys.executable, "-I", "-c", script], capture_output=True,
                          text=True, timeout=60, check=True)
    return set(proc.stdout.splitlines()[-1].split())


_HEAVY = {"dataclasses", "inspect", "ast", "dis", "fractions", "decimal", "numpy"}


def test_import_loads_no_heavy_stdlib_module():
    loaded = _newly_loaded("import lambertw")
    assert "lambertw" in loaded
    assert not loaded & _HEAVY, sorted(loaded & _HEAVY)


def test_bare_cli_call_loads_no_argparse():
    loaded = _newly_loaded("from lambertw.cli import run_cli\nrun_cli(['0.5'])")
    assert "lambertw.cli" in loaded
    assert not loaded & (_HEAVY | {"argparse"}), sorted(loaded & (_HEAVY | {"argparse"}))
