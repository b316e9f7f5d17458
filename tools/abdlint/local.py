"""Pass-1 per-file rules (DET001-DET004, PAR001, NUM001, INV001, SCN001,
OBS001).

These rules only need one file's AST; they are exactly the rules the
original single-file ``tools/abdlint.py`` enforced.  The cross-module
rules (ARCH001, DET005, REG001) live in :mod:`abdlint.arch`,
:mod:`abdlint.seedflow` and :mod:`abdlint.registry` and run over the
project symbol table built by :mod:`abdlint.project`.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, Sequence

from abdlint.findings import (
    RULES,
    FileKind,
    Finding,
    is_suppressed,
    suppressed_rules,
)

_WALL_CLOCK = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

_SET_METHODS = {"union", "intersection", "difference", "symmetric_difference"}
_SET_OPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
_ARRAY_ANNOTATION = re.compile(r"\bndarray\b|\bParameterMatrix\b")


class _Scope:
    """Names known to be sets / ndarrays in one lexical scope."""

    __slots__ = ("sets", "arrays")

    def __init__(self) -> None:
        self.sets: set[str] = set()
        self.arrays: set[str] = set()


class Linter(ast.NodeVisitor):
    def __init__(self, path: str, source: str, select: set[str]) -> None:
        self.path = path
        self.kind = FileKind.from_path(path)
        self.select = select
        self.suppressed = suppressed_rules(source)
        self.findings: list[Finding] = []
        self.aliases: dict[str, str] = {}
        self.scopes: list[_Scope] = [_Scope()]
        self.axis_stack: list[str] = []
        self.type_only_depth = 0

    # ------------------------------------------------------------------
    # bookkeeping
    def report(self, node: ast.AST, rule: str, message: str | None = None) -> None:
        if rule not in self.select:
            return
        lineno = getattr(node, "lineno", 0)
        if is_suppressed(self.suppressed, lineno, rule):
            return
        self.findings.append(
            Finding(
                path=self.path,
                line=lineno,
                col=getattr(node, "col_offset", 0),
                rule=rule,
                message=message or RULES[rule],
            )
        )

    def _lookup(self, name: str, table: str) -> bool:
        for scope in reversed(self.scopes):
            attrs: set[str] = getattr(scope, table)
            if name in attrs:
                return True
        return False

    def resolve_call(self, func: ast.expr) -> str | None:
        """Dotted path of a called name through the import table."""
        parts: list[str] = []
        node = func
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        base = self.aliases.get(node.id)
        if base is None:
            return None
        parts.append(base)
        return ".".join(reversed(parts))

    # ------------------------------------------------------------------
    # imports
    #: Module roots whose import means ad-hoc process fan-out (DET004).
    _POOL_MODULES = ("multiprocessing", "concurrent")

    def _check_pool_import(self, node: ast.AST, module: str) -> None:
        if self.kind.is_parallel:
            return
        if self.type_only_depth:
            return  # type-only import: no runtime fan-out possible
        if module.split(".")[0] in self._POOL_MODULES:
            self.report(
                node,
                "DET004",
                f"import of {module!r} outside repro.parallel; route process "
                "fan-out through repro.parallel (parallel_map / "
                "LocalTrainingPool) so reduction order stays deterministic",
            )

    def _check_shm_import(
        self, node: ast.AST, module: str, names: Sequence[str] = ()
    ) -> None:
        """PAR001: shared-memory segments only through the slab owners.

        Fires on any import form reaching ``multiprocessing.shared_memory``
        (the module itself, ``from multiprocessing import shared_memory``,
        or names out of it) anywhere except :mod:`repro.parallel` and
        ``repro/core/pool.py`` — a stray ``SharedMemory`` elsewhere would
        bypass the :class:`ParameterSlab` lifecycle (single-owner unlink,
        generation stamping) and can leak ``/dev/shm`` segments.
        """
        if self.kind.is_shm_owner or self.type_only_depth:
            return
        parts = module.split(".")
        if parts[0] != "multiprocessing":
            return
        touches_shm = "shared_memory" in parts or (
            module == "multiprocessing" and "shared_memory" in names
        )
        if touches_shm:
            self.report(
                node,
                "PAR001",
                f"import reaching multiprocessing.shared_memory ({module!r}) "
                "outside repro.parallel / repro.core.pool; go through "
                "ParameterSlab so segment creation, attach and unlink stay "
                "single-owner",
            )

    def visit_If(self, node: ast.If) -> None:
        test = node.test
        is_type_checking = (
            isinstance(test, ast.Name) and test.id == "TYPE_CHECKING"
        ) or (isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING")
        if is_type_checking:
            self.type_only_depth += 1
            for child in node.body:
                self.visit(child)
            self.type_only_depth -= 1
            for child in node.orelse:
                self.visit(child)
            return
        self.generic_visit(node)

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._check_pool_import(node, alias.name)
            self._check_shm_import(node, alias.name)
            if alias.asname:
                self.aliases[alias.asname] = alias.name
            else:
                root = alias.name.split(".")[0]
                self.aliases[root] = root
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module and node.level == 0:
            self._check_pool_import(node, node.module)
            self._check_shm_import(
                node, node.module, [alias.name for alias in node.names]
            )
            for alias in node.names:
                self.aliases[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
        self.generic_visit(node)

    # ------------------------------------------------------------------
    # scopes and type facts
    def _visit_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        scope = _Scope()
        args = node.args
        for arg in [
            *args.posonlyargs,
            *args.args,
            *args.kwonlyargs,
            args.vararg,
            args.kwarg,
        ]:
            if arg is None or arg.annotation is None:
                continue
            try:
                annotation = ast.unparse(arg.annotation)
            except Exception:
                continue
            if _ARRAY_ANNOTATION.search(annotation):
                scope.arrays.add(arg.arg)
        self.scopes.append(scope)
        self.generic_visit(node)
        self.scopes.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_Assign(self, node: ast.Assign) -> None:
        self._record_assignment(node.targets, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.target, ast.Name):
            try:
                annotation = ast.unparse(node.annotation)
            except Exception:
                annotation = ""
            scope = self.scopes[-1]
            if re.search(r"\b(set|frozenset)\b", annotation):
                scope.sets.add(node.target.id)
            elif _ARRAY_ANNOTATION.search(annotation):
                scope.arrays.add(node.target.id)
            elif node.value is not None:
                self._record_assignment([node.target], node.value)
        self.generic_visit(node)

    def _record_assignment(
        self, targets: Sequence[ast.expr], value: ast.expr
    ) -> None:
        scope = self.scopes[-1]
        is_set = self.is_set_expr(value)
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            if is_set:
                scope.sets.add(target.id)
            else:
                scope.sets.discard(target.id)

    def is_set_expr(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                return True
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _SET_METHODS
                and self.is_set_expr(func.value)
            ):
                return True
            return False
        if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_OPS):
            return self.is_set_expr(node.left) or self.is_set_expr(node.right)
        if isinstance(node, ast.Name):
            return self._lookup(node.id, "sets")
        return False

    def _is_array_expr(self, node: ast.expr) -> bool:
        return isinstance(node, ast.Name) and self._lookup(node.id, "arrays")

    def _is_nan_expr(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Attribute) and node.attr in ("nan", "NaN", "NAN"):
            base = node.value
            return isinstance(base, ast.Name) and self.aliases.get(base.id) in (
                "numpy",
                "math",
            )
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id == "float" and node.args:
                arg = node.args[0]
                return (
                    isinstance(arg, ast.Constant)
                    and isinstance(arg.value, str)
                    and arg.value.lower() == "nan"
                )
        return False

    # ------------------------------------------------------------------
    # DET001 / DET002 / OBS001
    def visit_Call(self, node: ast.Call) -> None:
        dotted = self.resolve_call(node.func)
        if dotted is not None:
            self._check_rng(node, dotted)
            self._check_clock(node, dotted)
        self._check_print(node)
        self.generic_visit(node)

    def _check_print(self, node: ast.Call) -> None:
        """OBS001: library code writes records, not stdout."""
        if not self.kind.in_src or self.kind.is_emission:
            return
        if self.kind.is_tests or self.kind.is_benchmarks:
            return
        func = node.func
        is_print = (isinstance(func, ast.Name) and func.id == "print") or (
            self.resolve_call(func) == "builtins.print"
        )
        if is_print:
            self.report(
                node,
                "OBS001",
                "print() in library code; route user-facing output "
                "through the CLI/report emission modules (cli.py, "
                "report.py, utils/reporting.py) or the trace/audit "
                "streams",
            )

    def _check_rng(self, node: ast.Call, dotted: str) -> None:
        if self.kind.is_seeding:
            return
        if dotted == "random" or dotted.startswith("random."):
            self.report(
                node,
                "DET001",
                f"stdlib RNG call {dotted}() uses global state; draw from a "
                "seeded np.random.Generator (repro.utils.seeding)",
            )
            return
        if dotted.startswith("numpy.random."):
            leaf = dotted.removeprefix("numpy.random.")
            if leaf == "default_rng" and (
                self.kind.is_tests or self.kind.is_benchmarks
            ):
                return  # ad-hoc seeded generators are fine in tests/benchmarks
            detail = (
                "bypasses the seed tree; use repro.utils.seeding "
                "(SeedSequenceFactory or seeded_generator)"
                if leaf in ("default_rng", "Generator", "SeedSequence", "PCG64")
                else "uses the global numpy RNG state"
            )
            self.report(node, "DET001", f"np.random.{leaf}() {detail}")

    def _check_clock(self, node: ast.Call, dotted: str) -> None:
        if self.kind.is_benchmarks:
            return
        if dotted in _WALL_CLOCK:
            self.report(
                node,
                "DET002",
                f"{dotted}() reads the wall clock; deterministic code must "
                "use simulation time (Simulator.now)",
            )

    # ------------------------------------------------------------------
    # DET003 / SCN001
    def _visit_for(self, node: ast.For | ast.AsyncFor) -> None:
        self._check_iteration(node.iter)
        axis = self._check_sweep(node, node.iter)
        self.generic_visit(node)
        if axis is not None:
            self.axis_stack.pop()

    visit_For = _visit_for
    visit_AsyncFor = _visit_for

    def _visit_comprehension(self, node: ast.AST) -> None:
        axes: list[str] = []
        for comp in getattr(node, "generators", []):
            self._check_iteration(comp.iter)
            axis = self._check_sweep(comp.iter, comp.iter)
            if axis is not None:
                axes.append(axis)
        self.generic_visit(node)
        del self.axis_stack[len(self.axis_stack) - len(axes) :]

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension

    def _check_iteration(self, iter_node: ast.expr) -> None:
        if self.is_set_expr(iter_node):
            self.report(
                iter_node,
                "DET003",
                "iterating a set in scheduling/fan-out code is "
                "hash-order-dependent; wrap in sorted(...) or keep an "
                "ordered container",
            )

    #: Iterable names that mark an experiment-grid axis (SCN001); a
    #: leading ``default_`` / ``paper_`` style prefix also matches
    #: (``DEFAULT_ATTACKS``, ``PAPER_FRACTIONS``).
    _SWEEP_AXES = {
        "attacks": "attacks",
        "defences": "defences",
        "defenses": "defences",
        "fractions": "fractions",
        "distributions": "distributions",
    }

    def _sweep_axis(self, node: ast.expr) -> str | None:
        """The canonical axis an iteration target names, if any."""
        while (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("sorted", "list", "tuple", "reversed", "enumerate")
            and node.args
        ):
            node = node.args[0]
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Name):
            name = node.id
        else:
            return None
        stem = name.lower().strip("_")
        for suffix, axis in self._SWEEP_AXES.items():
            if stem == suffix or stem.endswith(f"_{suffix}"):
                return axis
        return None

    def _check_sweep(self, node: ast.AST, iter_node: ast.expr) -> str | None:
        """SCN001: push the axis this loop sweeps; report on nesting a
        second, distinct axis.  Returns the pushed axis (for popping)."""
        axis = self._sweep_axis(iter_node)
        if axis is None:
            return None
        if (
            not (self.kind.is_tests or self.kind.is_benchmarks or self.kind.is_scenario)
            and any(outer != axis for outer in self.axis_stack)
        ):
            outer = next(o for o in self.axis_stack if o != axis)
            self.report(
                node,
                "SCN001",
                f"hand-rolled {outer} x {axis} sweep outside repro/scenario; "
                "describe the grid as a ScenarioSpec and run it through "
                "repro.scenario.ScenarioRunner",
            )
        self.axis_stack.append(axis)
        return axis

    # ------------------------------------------------------------------
    # NUM001 / INV001
    def visit_Compare(self, node: ast.Compare) -> None:
        comparators = [node.left, *node.comparators]
        if not self.kind.is_tests and any(
            isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops
        ):
            if any(self._is_nan_expr(c) for c in comparators):
                self.report(
                    node,
                    "NUM001",
                    "comparison against NaN is always False; use np.isnan",
                )
            elif any(self._is_array_expr(c) for c in comparators):
                self.report(
                    node,
                    "NUM001",
                    "bare ==/!= on a float ndarray; use np.array_equal for "
                    "bit-equality or np.isclose for tolerances",
                )
        if not (self.kind.is_invariants or self.kind.is_tests or self.kind.is_benchmarks):
            for side in comparators:
                if self._is_triple_product(side):
                    self.report(
                        node,
                        "INV001",
                        "hand-rolled 3f-vs-n bound; use "
                        "repro.check.invariants.require_fault_bound / "
                        "fault_bound_holds",
                    )
                    break
        self.generic_visit(node)

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if not (self.kind.is_invariants or self.kind.is_tests or self.kind.is_benchmarks):
            if self._is_two_f_plus_one(node):
                self.report(
                    node,
                    "INV001",
                    "hand-rolled quorum size 2f+1; use "
                    "repro.check.invariants.quorum_size",
                )
            elif self._is_floor_div_three(node):
                self.report(
                    node,
                    "INV001",
                    "hand-rolled //3 fault bound; use "
                    "repro.check.invariants.max_faulty",
                )
            elif self._is_echo_threshold(node):
                self.report(
                    node,
                    "INV001",
                    "hand-rolled (n+f+1)//2 echo threshold; use "
                    "repro.check.invariants.echo_quorum",
                )
        self.generic_visit(node)

    @staticmethod
    def _is_constant(node: ast.expr, value: int) -> bool:
        return isinstance(node, ast.Constant) and node.value == value

    def _is_scaled_name(self, node: ast.expr, factor: int) -> bool:
        """``factor * x`` or ``x * factor`` with a non-constant ``x``."""
        if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)):
            return False
        left, right = node.left, node.right
        if self._is_constant(left, factor) and not isinstance(right, ast.Constant):
            return True
        return self._is_constant(right, factor) and not isinstance(left, ast.Constant)

    def _is_two_f_plus_one(self, node: ast.BinOp) -> bool:
        if not isinstance(node.op, ast.Add):
            return False
        left, right = node.left, node.right
        return (
            self._is_constant(right, 1) and self._is_scaled_name(left, 2)
        ) or (self._is_constant(left, 1) and self._is_scaled_name(right, 2))

    def _is_floor_div_three(self, node: ast.BinOp) -> bool:
        return (
            isinstance(node.op, ast.FloorDiv)
            and self._is_constant(node.right, 3)
            and not isinstance(node.left, ast.Constant)
        )

    def _is_triple_product(self, node: ast.expr) -> bool:
        return self._is_scaled_name(node, 3)

    def _is_echo_threshold(self, node: ast.BinOp) -> bool:
        """``(n + f + 1) // 2``-shaped Bracha echo thresholds.

        Matches a floor-division by 2 whose dividend is a sum mixing at
        least two variables with at least one constant — the rounding
        off-by-ones there are exactly what
        :func:`repro.check.invariants.echo_quorum` centralises.  A plain
        two-variable midpoint ``(lo + hi) // 2`` carries no constant and
        stays legal.
        """
        if not (
            isinstance(node.op, ast.FloorDiv)
            and self._is_constant(node.right, 2)
            and isinstance(node.left, ast.BinOp)
            and isinstance(node.left.op, ast.Add)
        ):
            return False
        leaves: list[ast.expr] = []

        def flatten(expr: ast.expr) -> None:
            if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.Add):
                flatten(expr.left)
                flatten(expr.right)
            else:
                leaves.append(expr)

        flatten(node.left)
        n_const = sum(isinstance(leaf, ast.Constant) for leaf in leaves)
        return n_const >= 1 and len(leaves) - n_const >= 2


def lint_source(
    source: str, path: str = "<string>", select: Iterable[str] | None = None
) -> list[Finding]:
    """Run the pass-1 (file-local) rules over python ``source``.

    ``path`` drives the per-tree exemptions.  Project rules (ARCH001,
    DET005, REG001) need the symbol table — use
    :func:`abdlint.engine.lint_paths` for the full engine.
    """
    chosen = set(select) if select is not None else set(RULES)
    unknown = chosen - set(RULES)
    if unknown:
        raise ValueError(f"unknown rules: {sorted(unknown)}")
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Finding(
                path=path,
                line=exc.lineno or 0,
                col=(exc.offset or 1) - 1,
                rule="E999",
                message=f"syntax error: {exc.msg}",
            )
        ]
    linter = Linter(path, source, chosen)
    linter.visit(tree)
    return sorted(linter.findings, key=lambda f: (f.path, f.line, f.col, f.rule))
