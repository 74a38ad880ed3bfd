"""The README states contracts only, and its claim ledger names the real criteria."""

import argparse
import ast
import re
from pathlib import Path

from ecml import cli

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
CRITERION = re.compile(r"test_criterion_\d\d\w*")


def _section(title):
    """The text under the ``## title`` heading, up to the next ``## `` heading."""
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start : None if end < 0 else end]


def _defined_criteria():
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    return {
        node.name for node in tree.body
        if isinstance(node, ast.FunctionDef) and CRITERION.fullmatch(node.name)
    }


def _module_constants(module):
    """Top-level ``NAME = literal`` assignments in the source of ``module`` (``ecml.x``)."""
    path = ROOT / "src" / Path(*module.split(".")).with_suffix(".py")
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {
        target.id: node.value.value
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
        for target in node.targets
        if isinstance(target, ast.Name)
    }


def test_under_170_lines():
    assert len(README.splitlines()) < 170


def test_no_private_names():
    # a private name is a mechanic, which its docstring states
    assert re.findall(r"(?<!\w)_[A-Za-z_]\w*", README) == []


def test_every_subcommand_named():
    parser = cli.build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    missing = [name for name in sub.choices if f"ecml {name} " not in README]
    assert missing == []


def test_exit_codes_stated():
    text = _section("Command line")
    for code, meaning in ((cli.EXIT_OK, "success"), (cli.EXIT_VALIDATION, "validation error"),
                          (cli.EXIT_NUMERICAL, "numerical failure")):
        assert f"{code} {meaning}" in text


def test_ledger_names_exactly_the_defined_criteria():
    named = set(CRITERION.findall(_section("Claim ledger")))
    assert named == _defined_criteria()
    assert len(named) >= 12


def test_determinism_constants_stated_with_value_and_module():
    # each constant the section names is stated as `NAME` (value ..., `ecml.module`), and
    # that module's own source assigns the value, so a moved constant fails
    text = _section("Determinism")
    stated = re.findall(r"`([A-Z][A-Z0-9_]+)`\**\s*\((\d+)[^()`]*`(ecml\.\w+)`\)", text)
    assert {name for name, _, _ in stated} == set(re.findall(r"`([A-Z][A-Z0-9_]+)`", text))
    assert {name for name, _, _ in stated} >= {"STATS_CHUNK", "ROW_BLOCK", "SCORE_CHUNK"}
    for name, value, module in stated:
        assert _module_constants(module).get(name) == int(value), (name, module)
