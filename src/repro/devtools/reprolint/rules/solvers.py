"""Solver-contract rules (RPL3xx) — cross-file project rules.

Both rules build a name-keyed inheritance graph over every scanned
source module, so ``class MySolver(GeneralSolver)`` in one file is
recognised as a (transitive) ``ComponentSolver``/``Solver`` subclass
even though the base is defined elsewhere.  Name resolution is textual
— good enough for a repo linter, and exactly as precise as the import
graph it polices.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.devtools.reprolint.model import SourceModule, Violation
from repro.devtools.reprolint.registry import ProjectRule, register
from repro.devtools.reprolint.scopes import (
    in_solvers_dir,
    in_src,
    repro_relative,
)

_ClassEntry = Tuple[SourceModule, ast.ClassDef, Tuple[str, ...]]


def _base_name(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Subscript):  # Generic[...] bases
        return _base_name(node.value)
    return None


def _class_index(modules: Sequence[SourceModule]) -> Dict[str, List[_ClassEntry]]:
    index: Dict[str, List[_ClassEntry]] = {}
    for module in modules:
        if not in_src(module.scope_key):
            continue
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                bases = tuple(
                    name
                    for name in (_base_name(base) for base in node.bases)
                    if name is not None
                )
                index.setdefault(node.name, []).append((module, node, bases))
    return index


def _inherits(
    class_name: str, root: str, index: Dict[str, List[_ClassEntry]]
) -> bool:
    """Transitive by-name subclass check (``root`` itself excluded)."""
    seen: Set[str] = set()
    frontier = [class_name]
    while frontier:
        current = frontier.pop()
        if current in seen:
            continue
        seen.add(current)
        for _module, _node, bases in index.get(current, ()):
            for base in bases:
                if base == root:
                    return True
                frontier.append(base)
    return False


@register
class ComponentSolverOverrideRule(ProjectRule):
    rule_id = "RPL301"
    name = "component-solver-overrides-solve"
    summary = "structural solvers subclassing ComponentSolver must not override _solve"
    rationale = (
        "ComponentSolver._solve is the engine entry point: it owns "
        "preprocessing, routing, (possibly parallel) dispatch, and the "
        "deterministic merge (PR 1).  A subclass overriding _solve "
        "bypasses the engine, so its outputs are no longer covered by "
        "the sequential-vs-parallel equivalence guarantee.  Implement "
        "strategy() (plus the routes/aggregate_details hooks) "
        "instead; pipelines with a genuinely different shape subclass "
        "Solver directly."
    )

    def check_project(
        self, modules: Sequence[SourceModule]
    ) -> Iterable[Violation]:
        index = _class_index(modules)
        for entries in index.values():
            for module, node, _bases in entries:
                if node.name == "ComponentSolver":
                    continue
                if not _inherits(node.name, "ComponentSolver", index):
                    continue
                for statement in node.body:
                    if (
                        isinstance(
                            statement, (ast.FunctionDef, ast.AsyncFunctionDef)
                        )
                        and statement.name == "_solve"
                    ):
                        yield module.violation(
                            self,
                            statement,
                            f"{node.name} subclasses ComponentSolver but "
                            "overrides _solve, bypassing the shared engine; "
                            "implement strategy() instead",
                        )


@register
class UnregisteredSolverRule(ProjectRule):
    rule_id = "RPL302"
    name = "unregistered-solver"
    summary = (
        "every concrete Solver subclass in solvers/ must be registered "
        "in solvers/registry.py"
    )
    rationale = (
        "The registry is the single dispatch surface for the CLI, the "
        "experiment harness, and the uniform jobs=/verify= parameter "
        "wiring; a solver class that defines a public ``name`` but "
        "never enters _FACTORIES is unreachable from every harness and "
        "silently escapes the cross-solver equivalence tests."
    )

    def check_project(
        self, modules: Sequence[SourceModule]
    ) -> Iterable[Violation]:
        registry_module = None
        for module in modules:
            if repro_relative(module.scope_key) == "solvers/registry.py":
                registry_module = module
                break
        if registry_module is None:
            # Registry not part of this scan (e.g. a single-file run):
            # the contract cannot be evaluated, so stay silent.
            return
        registered = self._registered_factories(registry_module)
        index = _class_index(modules)
        for module in modules:
            rel = repro_relative(module.scope_key)
            if rel is None or not in_solvers_dir(module.scope_key):
                continue
            if rel in ("solvers/base.py", "solvers/registry.py"):
                continue
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.ClassDef):
                    continue
                if node.name.startswith("_"):
                    continue
                if not _inherits(node.name, "Solver", index):
                    continue
                if not self._declares_registry_name(node):
                    continue  # abstract intermediate: no public name
                if node.name not in registered:
                    yield module.violation(
                        self,
                        node,
                        f"concrete solver {node.name} declares a registry "
                        "name but is missing from _FACTORIES in "
                        "solvers/registry.py",
                    )

    @staticmethod
    def _declares_registry_name(node: ast.ClassDef) -> bool:
        for statement in node.body:
            if isinstance(statement, ast.Assign):
                targets = [
                    t.id for t in statement.targets if isinstance(t, ast.Name)
                ]
                if "name" in targets and isinstance(statement.value, ast.Constant):
                    return isinstance(statement.value.value, str)
            elif isinstance(statement, ast.AnnAssign):
                if (
                    isinstance(statement.target, ast.Name)
                    and statement.target.id == "name"
                    and isinstance(statement.value, ast.Constant)
                    and isinstance(statement.value.value, str)
                ):
                    return True
        return False

    @staticmethod
    def _registered_factories(registry_module: SourceModule) -> Set[str]:
        """Class names reachable from _FACTORIES values (dict literal
        plus any later ``_FACTORIES[...] = Foo`` item assignments)."""
        names: Set[str] = set()

        def harvest(expression: ast.AST) -> None:
            for inner in ast.walk(expression):
                if isinstance(inner, ast.Name):
                    names.add(inner.id)
                elif isinstance(inner, ast.Attribute):
                    names.add(inner.attr)

        for node in ast.walk(registry_module.tree):
            if isinstance(node, ast.AnnAssign):
                targets = [node.target]
                value = node.value
            elif isinstance(node, ast.Assign):
                targets = list(node.targets)
                value = node.value
            else:
                continue
            for target in targets:
                if (
                    isinstance(target, ast.Name)
                    and target.id == "_FACTORIES"
                    and isinstance(value, ast.Dict)
                ):
                    for item in value.values:
                        harvest(item)
                elif (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "_FACTORIES"
                    and value is not None
                ):
                    harvest(value)
        return names
