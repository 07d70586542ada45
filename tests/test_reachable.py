"""Every public top-level function and class in ``src/netsar`` has a user,
and so does every public method and property of a public class.

A name counts as used when it appears as a name, an attribute or an
import in ``src/``, ``scripts/``, ``bench/`` outside its tests, or the
acceptance criteria; a method or property only when it appears there as
an attribute. Tests of a name do not count: code that only its own tests
reach is deleted or wired in.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# names kept without a caller, each for its reason
ALLOWED = {
    # ROADMAP item 3 wires it in through a scene height key
    "scene.set_height_profile",
}


def _public_definitions():
    for path in sorted((ROOT / "src" / "netsar").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield f"{path.stem}.{node.name}", node.name


def _public_members():
    for path in sorted((ROOT / "src" / "netsar").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                        yield f"{path.stem}.{node.name}.{member.name}", member.name


def _used_names():
    bench = ROOT / "bench"
    files = [
        *(ROOT / "src").rglob("*.py"),
        *(ROOT / "scripts").rglob("*.py"),
        *(p for p in bench.rglob("*.py") if "tests" not in p.relative_to(bench).parts),
        ROOT / "tests" / "test_acceptance.py",
    ]
    used, attributes = set(), set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rsplit(".", 1)[-1])
    return used | attributes, attributes


def test_every_public_name_in_src_has_a_user():
    used, _ = _used_names()
    unused = {qualified for qualified, name in _public_definitions() if name not in used}
    assert unused == ALLOWED


def test_every_public_method_and_property_is_used_as_an_attribute():
    _, attributes = _used_names()
    unused = {qualified for qualified, name in _public_members() if name not in attributes}
    assert unused == set()
