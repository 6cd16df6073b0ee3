"""Clock invariants."""

import ast
from pathlib import Path

import pytest

from repro.sim.clock import Clock


def test_starts_at_zero_by_default():
    assert Clock().now == 0.0


def test_starts_at_given_time():
    assert Clock(5.5).now == 5.5


def test_rejects_negative_start():
    with pytest.raises(ValueError):
        Clock(-1.0)


def test_advance_moves_forward():
    clock = Clock()
    clock.advance_to(3.0)
    assert clock.now == 3.0


def test_advance_to_same_time_is_allowed():
    clock = Clock(2.0)
    clock.advance_to(2.0)
    assert clock.now == 2.0


def test_advance_backwards_raises():
    clock = Clock(2.0)
    with pytest.raises(ValueError):
        clock.advance_to(1.0)


def test_repr_mentions_time():
    assert "1.5" in repr(Clock(1.5))


# -- write discipline -------------------------------------------------------
# ``Clock.now`` is a plain slot (a property cost a call per read), so
# nothing stops a stray ``clock.now = t`` at runtime. This scan is the
# guard instead: only clock.py itself may assign to a ``.now`` attribute.

SRC = Path(__file__).resolve().parents[2] / "src"


def _now_writes(tree):
    """(line, snippet) for every assignment to ``<expr>.now`` in ``tree``."""
    found = []

    def targets_of(node):
        if isinstance(node, ast.Assign):
            return node.targets
        if isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            return [node.target]
        if isinstance(node, ast.Delete):
            return node.targets
        if isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)):
            return [node.target]
        if isinstance(node, (ast.With, ast.AsyncWith)):
            return [item.optional_vars for item in node.items if item.optional_vars]
        return []

    def flatten(target):
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                yield from flatten(element)
        elif isinstance(target, ast.Starred):
            yield from flatten(target.value)
        else:
            yield target

    for node in ast.walk(tree):
        for target in targets_of(node):
            for leaf in flatten(target):
                if isinstance(leaf, ast.Attribute) and leaf.attr == "now":
                    found.append((leaf.lineno, ast.unparse(leaf)))
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("setattr", "delattr")
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and node.args[1].value == "now"
        ):
            found.append((node.lineno, ast.unparse(node)))
    return found


def test_only_clock_module_assigns_now():
    clock_module = SRC / "repro" / "sim" / "clock.py"
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path == clock_module:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for line, snippet in _now_writes(tree):
            offenders.append("%s:%d: %s" % (path.relative_to(SRC), line, snippet))
    assert offenders == [], "only Clock.advance_to may write .now:\n" + "\n".join(
        offenders
    )


def test_scan_flags_each_assignment_form():
    source = (
        "clock.now = 1.0\n"
        "self.loop.clock.now += 2\n"
        "a, (b, c.now) = x\n"
        "setattr(clock, 'now', 3)\n"
        "ok = clock.now\n"
        "clock.now == 4\n"
    )
    lines = [line for line, _ in _now_writes(ast.parse(source))]
    assert lines == [1, 2, 3, 4]


def test_clock_module_is_the_writer():
    tree = ast.parse((SRC / "repro" / "sim" / "clock.py").read_text("utf-8"))
    assert _now_writes(tree)  # the scan would catch clock.py's own writes
