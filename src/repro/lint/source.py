"""Parsed source files and the shared AST facts checkers query.

:class:`SourceFile` loads a file once and precomputes everything every
checker needs: the AST, its nodes listed once (checkers scan that list
instead of re-walking the tree), a child->parent map (for "is this
call wrapped in ``sorted(...)``" questions), an import-alias map that
resolves local names back to canonical dotted module paths
(``np.random.seed`` and ``from numpy import random; random.seed`` both
resolve to ``numpy.random.seed``), and the ``# repro-lint:
allow[rule-id]`` suppression pragmas extracted from comment tokens.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, List, Optional, Set

_PRAGMA = re.compile(r"#\s*repro-lint:\s*allow\[([^\]]*)\]")

#: Wildcard rule id accepted inside an allow pragma.
ALLOW_ALL = "*"


def parse_pragmas(text: str) -> Dict[int, FrozenSet[str]]:
    """Extract suppression pragmas from comment tokens.

    Returns ``line -> frozenset of rule ids`` (possibly containing
    :data:`ALLOW_ALL`).  Only real comment tokens are honoured, so a
    pragma spelled inside a string literal does not suppress anything.
    """
    pragmas: Dict[int, Set[str]] = {}
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(text).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return {}
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _PRAGMA.search(token.string)
        if match is None:
            continue
        rules = {
            rule.strip()
            for rule in match.group(1).split(",")
            if rule.strip()
        }
        if rules:
            pragmas.setdefault(token.start[0], set()).update(rules)
    return {line: frozenset(rules) for line, rules in pragmas.items()}


def build_import_aliases(nodes: Iterable[ast.AST]) -> Dict[str, str]:
    """Map local names to the canonical dotted path they import.

    ``import numpy as np`` maps ``np -> numpy``; ``import numpy.random``
    maps ``numpy -> numpy``; ``from numpy import random as r`` maps
    ``r -> numpy.random``; ``from time import perf_counter`` maps
    ``perf_counter -> time.perf_counter``.  Relative imports are skipped
    (they never denote the stdlib/numpy surfaces the checkers police).
    ``nodes`` is every node of the module (:attr:`SourceFile.nodes`).
    """
    aliases: Dict[str, str] = {}
    for node in nodes:
        if isinstance(node, ast.Import):
            for item in node.names:
                if item.asname is not None:
                    aliases[item.asname] = item.name
                else:
                    root = item.name.split(".")[0]
                    aliases[root] = root
        elif isinstance(node, ast.ImportFrom):
            if node.level != 0 or node.module is None:
                continue
            for item in node.names:
                local = item.asname or item.name
                aliases[local] = f"{node.module}.{item.name}"
    return aliases


def resolve_dotted(node: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    """Resolve an attribute chain or name to its canonical dotted path.

    Returns ``None`` when the chain does not bottom out in an imported
    name (e.g. ``self.rng.random`` — a local object, not a module).
    """
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    base = aliases.get(node.id)
    if base is None:
        return None
    parts.append(base)
    return ".".join(reversed(parts))


class SourceFile:
    """One parsed Python file plus the precomputed facts checkers use."""

    def __init__(self, display_path: str, text: str) -> None:
        self.display_path = display_path
        self.text = text
        self.parse_error: Optional[SyntaxError] = None
        try:
            self.tree: ast.Module = ast.parse(text, filename=display_path)
        except SyntaxError as exc:
            self.parse_error = exc
            self.tree = ast.Module(body=[], type_ignores=[])
        self.suppressions = parse_pragmas(text)

    @cached_property
    def nodes(self) -> List[ast.AST]:
        """Every node of the tree in ``ast.walk`` order (built once)."""
        return list(ast.walk(self.tree))

    @cached_property
    def aliases(self) -> Dict[str, str]:
        """Local name -> imported dotted path (see build_import_aliases)."""
        return build_import_aliases(self.nodes)

    @cached_property
    def parents(self) -> Dict[ast.AST, ast.AST]:
        """Child node -> parent node map (built lazily, once)."""
        return {
            child: parent
            for parent in self.nodes
            for child in ast.iter_child_nodes(parent)
        }

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Canonical dotted path of a name/attribute chain, if imported."""
        return resolve_dotted(node, self.aliases)

    def is_suppressed(self, rule_id: str, line: int) -> bool:
        """Whether a pragma on ``line`` (or the line above) allows the rule.

        Accepting the preceding line lets a pragma sit in a standalone
        comment directly above a long statement.
        """
        for candidate in (line, line - 1):
            rules = self.suppressions.get(candidate)
            if rules is not None and (rule_id in rules or ALLOW_ALL in rules):
                return True
        return False

    def path_parts(self) -> List[str]:
        """The display path split on ``/`` (for directory scoping)."""
        return self.display_path.split("/")
