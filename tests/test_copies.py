"""The written-out copies in ``lambertw.api``, tied by their syntax.

``lambert_w_approximation`` writes each region's seed out in Horner
form, and ``_w0``, ``_wm1`` and the loop of ``_lambert_w_list`` write the
same arms out again, each followed by its z and one Fritsch step, whose
tail ``lambert_w`` and ``_wm1_log`` repeat.  ``tests/test_array.py``
ties their values on sampled inputs; here the parsed source ties every
copy to the others, so a copy that drifts fails whatever the inputs.
"""

import ast
import copy
from pathlib import Path

import pytest

from lambertw import api

FUNCTIONS = {node.name: node
             for node in ast.parse(Path(api.__file__).read_text(encoding="utf-8")).body
             if isinstance(node, ast.FunctionDef)}

# Each region's arm is the body of the test x < (the region's upper bound).
W0_ARMS = ("x < _W0_SERIES_END", "x < _W0_FIT1_END", "x < _W0_FIT2_END", "x < _INF")
WM1_ARMS = ("x < _WM1_SERIES_END", "x < _WM1_FIT_END", "x < 0.0")
# The functions that write the arms out, with the arms each one has.
SEEDED = {"lambert_w_approximation": W0_ARMS + WM1_ARMS, "_w0": W0_ARMS, "_wm1": WM1_ARMS,
          "_lambert_w_list": W0_ARMS + WM1_ARMS}
STEPPED = ("lambert_w", "_w0", "_wm1", "_wm1_log", "_lambert_w_list")


class _VToX(ast.NodeTransformer):
    """``_lambert_w_list`` names its x ``v``."""

    def visit_Name(self, node):
        return ast.Name("x", node.ctx) if node.id == "v" else node


def _assigned(statements, name):
    """The source of the value of the first ``name = ...`` in statements."""
    return next((ast.unparse(s.value) for s in statements if isinstance(s, ast.Assign)
                 and [ast.unparse(t) for t in s.targets] == [name]), None)


def _seed(arm):
    """The statements of an arm that make its seed w, as source: without
    its guards and early exits (each an ``if``) and its z, and with a
    ``return e`` read as ``w = e``."""
    seed = []
    for statement in arm:
        if isinstance(statement, ast.If) or _assigned([statement], "z"):
            continue
        source = ast.unparse(statement)
        if isinstance(statement, ast.Return):
            if source == "return w":
                continue
            source = "w = " + ast.unparse(statement.value)
        seed.append(source)
    return seed


def _arms(function):
    """Each region arm of a function: its test -> (seed, z).  The z is the
    arm's own, or else the first one after the arm's if/elif chain."""
    arms = {}

    def visit(body):
        for i, statement in enumerate(body):
            node = statement
            while isinstance(node, ast.If) and ast.unparse(node.test) in W0_ARMS + WM1_ARMS:
                arms[ast.unparse(node.test)] = (
                    _seed(node.body), _assigned(node.body, "z") or _assigned(body[i + 1:], "z"))
                node = node.orelse[0] if len(node.orelse) == 1 else None
            if node is statement:
                for field in ("body", "orelse"):
                    visit(getattr(statement, field, []))

    visit(function.body)
    return arms


ARMS = {name: _arms(_VToX().visit(copy.deepcopy(FUNCTIONS[name]))) for name in SEEDED}


def test_each_function_writes_out_its_arms():
    assert {name: sorted(arms) for name, arms in ARMS.items()} == {
        name: sorted(tests) for name, tests in SEEDED.items()}
    # Every arm of a kernel is stepped from a z; the approximation has none.
    assert all(z is None for _, z in ARMS["lambert_w_approximation"].values())
    assert all(z for name in ("_w0", "_wm1", "_lambert_w_list") for _, z in ARMS[name].values())


@pytest.mark.parametrize("test", W0_ARMS + WM1_ARMS)
def test_each_arm_has_one_seed_and_one_z(test):
    copies = {name: arms[test] for name, arms in ARMS.items() if test in arms}
    seeds = {name: seed for name, (seed, _) in copies.items()}
    assert all(seed == seeds["lambert_w_approximation"] for seed in seeds.values()), seeds
    zs = {name: z for name, (_, z) in copies.items() if z is not None}
    assert len(zs) == len(copies) - 1 and len(set(zs.values())) == 1, zs


def _tail(function):
    """The Fritsch step's u, q and update w + w*eps in a function, as source."""
    nodes = list(ast.walk(function))
    update = [ast.unparse(node) for node in nodes if isinstance(node, ast.BinOp)
              and ast.unparse(node).startswith("w + w * ")]
    statements = [node for node in nodes if isinstance(node, ast.Assign)]
    return _assigned(statements, "u"), _assigned(statements, "q"), *update


def test_every_fritsch_tail_is_the_same():
    tails = {name: _tail(FUNCTIONS[name]) for name in STEPPED}
    assert set(tails.values()) == {(
        "1.0 + w", "2.0 * u * (u + 2.0 / 3.0 * z)",
        "w + w * (z / u * ((q - z) / (q - 2.0 * z)))")}, tails
