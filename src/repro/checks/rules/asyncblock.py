"""RPR3xx — asyncio-blocking detector.

The serving tier is a single-threaded asyncio event loop: one blocking
call inside an ``async def`` stalls every in-flight request and defeats
the deadline/circuit-breaker machinery.  Fold-in runs on the worker pool,
and the loop only awaits the replies (``ServingServer._fold``); other
heavy work leaves the loop for a thread.

RPR301  ``time.sleep`` inside ``async def`` — use ``await asyncio.sleep``
RPR302  blocking I/O call inside ``async def`` (sync sockets, subprocess,
        file reads/writes, ``os.replace``, ...; list in checks.toml)
RPR303  direct inference call (``.transform`` / ``.transform_many``) inside
        ``async def`` — fold in on the worker pool and await the replies

Only code lexically inside an ``async def`` is flagged; a nested synchronous
``def`` (e.g. a closure run on another thread) resets the context.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from ..base import Finding, Project, Rule, SourceFile, dotted_name

#: Attribute-call names that are blocking file I/O regardless of receiver.
_BLOCKING_ATTRS = {
    "read_text", "write_text", "read_bytes", "write_bytes",
}


class _AsyncVisitor(ast.NodeVisitor):
    def __init__(
        self, sf: SourceFile, blocking: set[str], inference: set[str]
    ) -> None:
        self.sf = sf
        self.blocking = blocking
        self.inference = inference
        self.findings: list[Finding] = []
        self.async_stack: list[bool] = [False]

    def _emit(self, node: ast.AST, code: str, message: str) -> None:
        self.findings.append(
            Finding(file=self.sf.rel, line=node.lineno, code=code, message=message)
        )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.async_stack.append(False)
        self.generic_visit(node)
        self.async_stack.pop()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self.async_stack.append(True)
        self.generic_visit(node)
        self.async_stack.pop()

    def visit_Call(self, node: ast.Call) -> None:
        if self.async_stack[-1]:
            chain = dotted_name(node.func)
            dotted = ".".join(chain) if chain else ""
            if dotted == "time.sleep":
                self._emit(
                    node,
                    "RPR301",
                    "time.sleep() inside async def blocks the event loop; "
                    "use `await asyncio.sleep(...)`",
                )
            elif dotted in self.blocking or (
                chain is not None
                and len(chain) >= 2
                and chain[-1] in _BLOCKING_ATTRS
            ):
                name = dotted if dotted in self.blocking else chain[-1]
                self._emit(
                    node,
                    "RPR302",
                    f"blocking call {name}() inside async def stalls every "
                    "in-flight request; move it to `loop.run_in_executor`",
                )
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in self.inference
            ):
                self._emit(
                    node,
                    "RPR303",
                    f"direct inference call .{node.func.attr}() inside async def; "
                    "fold in on the worker pool and await its replies "
                    "(see ServingServer._fold)",
                )
        self.generic_visit(node)


class AsyncBlockingRule(Rule):
    name = "asyncblock"
    codes = {
        "RPR301": "time.sleep inside async def",
        "RPR302": "blocking I/O call inside async def",
        "RPR303": "direct inference call inside async def",
    }

    def run(self, project: Project) -> Iterable[Finding]:
        cfg = project.config
        blocking = set(cfg.blocking_calls)
        inference = set(cfg.inference_calls)
        for sf in project.files_under(cfg.async_paths):
            if sf.tree is None:
                continue
            visitor = _AsyncVisitor(sf, blocking, inference)
            visitor.visit(sf.tree)
            yield from visitor.findings
