"""RPR5xx — atomic-write lint.

Artifact persistence is crash-safe: write a tmp sibling, then
``os.replace`` it into place (``repro.core.snapshot.atomic_savez``), so a
reader sees the old file or the new one, never a half-written one.  The
writers do not fsync, so a power loss can still lose the new content.
A direct ``np.savez_compressed(path)`` anywhere else can leave a torn file
behind on crash, which the serving tier would then refuse (integrity digest
mismatch) or, worse, load partially.

RPR501  direct artifact write (``np.savez*`` et al.) outside the atomic
        helper — route through ``atomic_savez`` instead

Two match modes, both configured in checks.toml:

- ``atomic.write_calls`` — exact dotted call names (``np.savez``);
- ``atomic.write_attrs`` — attribute names matched on **any** receiver
  (``write_text`` flags ``path.write_text(...)`` and
  ``Path(x).write_text(...)`` alike), for writers whose receiver cannot
  be enumerated up front — route through ``atomic_write_text`` /
  ``atomic_write_json`` instead.

``atomic.allowed_in`` entries in checks.toml are ``path::function`` pairs
naming the helper implementation(s) themselves.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from ..base import Finding, Project, Rule, dotted_name


class AtomicWriteRule(Rule):
    name = "atomicwrite"
    codes = {
        "RPR501": "direct artifact write outside the atomic tmp+os.replace helper",
    }

    def run(self, project: Project) -> Iterable[Finding]:
        cfg = project.config
        write_calls = set(cfg.write_calls)
        write_attrs = set(cfg.write_attrs)
        if not write_calls and not write_attrs:
            return
        allowed: set[tuple[str, str]] = set()
        for entry in cfg.atomic_allowed_in:
            path, _, func = entry.partition("::")
            allowed.add((path, func))
        for sf in project.files_under(cfg.atomic_paths):
            if sf.tree is None:
                continue
            yield from self._check_file(sf, write_calls, write_attrs, allowed)

    def _check_file(self, sf, write_calls, write_attrs, allowed):
        func_stack: list[str] = []

        def walk(node: ast.AST) -> Iterable[Finding]:
            is_func = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            if is_func:
                func_stack.append(node.name)
            if isinstance(node, ast.Call):
                chain = dotted_name(node.func)
                dotted = ".".join(chain) if chain else ""
                attr = (
                    node.func.attr
                    if isinstance(node.func, ast.Attribute)
                    else ""
                )
                hit = None
                if dotted in write_calls:
                    hit = f"{dotted}()", "repro.core.snapshot.atomic_savez"
                elif attr in write_attrs:
                    hit = (
                        f".{attr}()",
                        "repro.core.snapshot.atomic_write_text/"
                        "atomic_write_json",
                    )
                if hit is not None:
                    in_allowed = any(
                        (sf.rel, fn) in allowed for fn in func_stack
                    )
                    if not in_allowed:
                        call, helper = hit
                        yield Finding(
                            file=sf.rel,
                            line=node.lineno,
                            code="RPR501",
                            message=f"direct {call} can leave a torn file on "
                            f"crash; route through {helper}",
                        )
            for child in ast.iter_child_nodes(node):
                yield from walk(child)
            if is_func:
                func_stack.pop()

        yield from walk(sf.tree)
