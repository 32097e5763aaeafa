"""The flow is wired in one place.

Route → channel route → sign-off → Table 3 bound has a single
implementation, :func:`repro.bench.runner.run_flow`; the ``route``
command, the bench runner and the batch/service job runner all go
through it.  This test
parses every module under ``src/repro`` and fails if any other function
calls one of the flow's stages directly, so a second copy of the flow
cannot grow back unnoticed.
"""

import ast
from pathlib import Path

import repro

STAGES = frozenset({
    "make_engine", "route_channels", "sign_off",
    "critical_path_lower_bound_ps",
})
FLOW = "run_flow"
PACKAGE = Path(repro.__file__).resolve().parent


def stage_calls(source):
    """``(stage, enclosing function, line)`` for every call of a flow
    stage in ``source``, by bare name or attribute."""
    sites = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            callee = node.func
            name = getattr(callee, "id", getattr(callee, "attr", None))
            if name in STAGES:
                sites.append((name, function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return sites


def test_flow_stages_called_only_in_run_flow():
    stray = []
    called = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        for stage, function, line in stage_calls(path.read_text()):
            called.add(stage)
            if function != FLOW:
                where = path.relative_to(PACKAGE.parent)
                stray.append(f"{where}:{line} {stage}() in {function}")
    assert not stray, "flow stage called outside run_flow:\n" + "\n".join(
        stray
    )
    assert called == STAGES


def test_guard_flags_a_second_sign_off():
    source = (
        "def full_report(circuit, placement, result, channels):\n"
        "    return sign_off(circuit, placement, result, channels)\n"
    )
    assert stage_calls(source) == [("sign_off", "full_report", 2)]
