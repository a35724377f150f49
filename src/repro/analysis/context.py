"""Shared module context and scope/class tracking for every rule visitor.

One :class:`ModuleContext` is built per file (path classification, import
alias map, source lines); each rule then runs its own
:class:`ContextVisitor` subclass over the tree.  The base visitor owns the
bookkeeping every rule needs — the enclosing class stack, the enclosing
function stack, and dotted-call-name resolution through import aliases — so a
rule is just the ``check_*`` hooks that encode its contract.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import PurePosixPath
from typing import Dict, List, Optional, Tuple

from .findings import Finding


def _build_alias_map(tree: ast.AST) -> Dict[str, str]:
    """Map local names to the fully-qualified names imports bound them to.

    ``import numpy as np`` → ``{"np": "numpy"}``; ``from time import time
    as now`` → ``{"now": "time.time"}``.  Relative imports keep a
    leading ``.`` so they never collide with stdlib module names.
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                aliases[local] = target
        elif isinstance(node, ast.ImportFrom):
            base = ("." * node.level) + (node.module or "")
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                aliases[local] = f"{base}.{alias.name}" if base else alias.name
    return aliases


@dataclass
class ModuleContext:
    """Everything a rule may need to know about the file under analysis."""

    path: str  # display path, posix-style, relative to the repo root
    source: str
    tree: ast.Module
    aliases: Dict[str, str] = field(default_factory=dict)

    @classmethod
    def from_source(cls, source: str, path: str) -> "ModuleContext":
        tree = ast.parse(source, filename=path)
        return cls(
            path=str(PurePosixPath(path)),
            source=source,
            tree=tree,
            aliases=_build_alias_map(tree),
        )

    @property
    def parts(self) -> Tuple[str, ...]:
        return PurePosixPath(self.path).parts

    @property
    def in_src(self) -> bool:
        """Library code (the ``src/`` tree) — where the strictest rules apply."""
        return "src" in self.parts

    def resolve_name(self, node: ast.AST) -> Optional[str]:
        """Dotted name of ``node`` with the root resolved through imports.

        Returns e.g. ``"numpy.random.shuffle"`` for ``np.random.shuffle`` or
        ``"time.time"`` for a bare ``time`` imported from ``time``.  ``None``
        when the expression is not a plain dotted name (a call result, a
        subscript, ...).
        """
        chain: List[str] = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self.aliases.get(node.id, node.id)
        chain.append(root)
        return ".".join(reversed(chain))


class ContextVisitor(ast.NodeVisitor):
    """Rule base: one visitor per rule, shared scope/class-context tracking.

    Subclasses set ``code`` and override the ``check_*`` hooks; the base
    keeps ``class_stack`` / ``func_stack`` current and collects findings.
    """

    code = "RPR000"

    def __init__(self, ctx: ModuleContext) -> None:
        self.ctx = ctx
        self.findings: List[Finding] = []
        self.class_stack: List[ast.ClassDef] = []
        self.func_stack: List[ast.AST] = []  # FunctionDef / AsyncFunctionDef / Lambda

    # -- reporting ------------------------------------------------------- #

    def report(self, node: ast.AST, message: str) -> None:
        self.findings.append(
            Finding(
                path=self.ctx.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0) + 1,
                code=self.code,
                message=message,
            )
        )

    # -- context helpers ------------------------------------------------- #

    @property
    def current_class(self) -> Optional[ast.ClassDef]:
        return self.class_stack[-1] if self.class_stack else None

    @property
    def current_function(self) -> Optional[ast.AST]:
        return self.func_stack[-1] if self.func_stack else None

    def enclosing_function_names(self) -> List[str]:
        return [
            node.name
            for node in self.func_stack
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]

    # -- structural visitors (keep the stacks honest) -------------------- #

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.check_classdef(node)
        self.class_stack.append(node)
        self.generic_visit(node)
        self.class_stack.pop()

    def _visit_function(self, node: ast.AST) -> None:
        self.check_functiondef(node)
        self.func_stack.append(node)
        self.generic_visit(node)
        self.func_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._visit_function(node)

    def visit_Call(self, node: ast.Call) -> None:
        self.check_call(node)
        self.generic_visit(node)

    # -- rule hooks ------------------------------------------------------ #

    def check_classdef(self, node: ast.ClassDef) -> None:  # pragma: no cover
        pass

    def check_functiondef(self, node: ast.AST) -> None:  # pragma: no cover
        pass

    def check_call(self, node: ast.Call) -> None:  # pragma: no cover
        pass

    # -- entry point ----------------------------------------------------- #

    def run(self) -> List[Finding]:
        self.visit(self.ctx.tree)
        self.finish()
        return self.findings

    def finish(self) -> None:
        """Hook for rules that need whole-module state before reporting."""
