"""In-memory spans around coldplate's public functions.

Each wrapper is installed at the module attribute its caller looks up at
call time (``fv.validate`` and ``studies.plate_mass`` are imported by name,
so they are wrapped where they are used, not in ``geometry``). A span is
``[span_id, parent_id, name, start_s, end_s, attrs]``; spans stay in memory
until the repetition ends and are then written out in one go.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import statistics
import threading
import time

# Names whose first call ends set-up: the first design-point call.
ENTRY_SPANS = frozenset({"fv.build_grid", "studies.evaluate_design"})
# The call that is one design point, per kind of evaluator.
POINT_SPAN = {"fv": "fv.solve", "network": "studies.evaluate_design"}

# Passes over an n-vector of float64 in one scipy ``cg`` iteration with a
# diagonal preconditioner: norm(r) 1, z = M r 3, dot(r, z) 2, p *= beta 2,
# p += z 3, q = A p 2 (p read, q written), dot(p, q) 2, x += alpha p 5,
# r -= alpha q 5.
_CG_VECTOR_PASSES = 25
# Flops per unknown outside the mat-vec in the same iteration.
_CG_VECTOR_FLOPS = 13


class Tracer:
    """Span recorder shared by every wrapper of one repetition."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.unmeasured: list[str] = []
        self.entry_monotonic: float | None = None
        self.entry_cpu: float | None = None
        self._ids = itertools.count(1)
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._entry_lock = threading.Lock()
        self.on_entry = None  # called once, at the first design-point call

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> list:
        if self.entry_monotonic is None and name in ENTRY_SPANS:
            with self._entry_lock:
                if self.entry_monotonic is None:
                    self.entry_monotonic = time.monotonic()
                    self.entry_cpu = time.process_time()
                    if self.on_entry is not None:
                        self.on_entry(self)
        stack = self._stack()
        # a pool thread's first span hangs off the span open in the main
        # thread (e.g. studies.run_sweep waiting on the pool)
        tail = stack[-1:] or self._main_stack[-1:]
        span = [next(self._ids), tail[0] if tail else 0, name, 0.0, 0.0, None]
        stack.append(span[0])
        span[3] = time.perf_counter()
        return span

    def close(self, span: list) -> None:
        span[4] = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def wrap(self, name: str, fn, attrs=None):
        """Wrap fn in a span; attrs(bound_args, result) -> dict is optional."""
        signature = inspect.signature(fn) if attrs else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if attrs is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[5] = attrs(bound.arguments, result)
            return result
        return wrapper

    def wrap_cg(self, cg):
        """Wrap scipy's cg; a callback counts iterations."""
        @functools.wraps(cg)
        def traced_cg(A, b, *args, callback=None, **kwargs):
            iterations = 0

            def count(xk):
                nonlocal iterations
                iterations += 1
                if callback is not None:
                    callback(xk)
            span = self.open("fv.cg")
            try:
                result = cg(A, b, *args, callback=count, **kwargs)
            finally:
                self.close(span)
            indices = getattr(A, "indices", None)
            data = getattr(A, "data", None)
            span[5] = {
                "iterations": iterations,
                "n": int(A.shape[0]),
                "nnz": int(getattr(A, "nnz", 0)),
                "index_bytes": indices.itemsize if indices is not None else 4,
                "value_bytes": data.itemsize if data is not None else 8,
            }
            return result
        return traced_cg

    def install(self, targets) -> None:
        """targets: (module, attribute, span name, attrs or None) tuples."""
        for module, attr, name, attrs in targets:
            fn = getattr(module, attr, None)
            if fn is None:
                self.unmeasured.append(f"{module.__name__}.{attr}")
                continue
            wrapped = (self.wrap_cg(fn) if name == "fv.cg"
                       else self.wrap(name, fn, attrs))
            setattr(module, attr, wrapped)

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("run_id,span_id,parent_id,name,start_s,end_s\n")
            for sid, parent, name, start, end, _ in self.spans:
                fh.write(f"{self.run_id},{sid},{parent},{name},"
                         f"{start!r},{end!r}\n")


def _solve_attrs(args, result):
    return {"t_max": result.t_max, "residual": result.residual,
            "energy_imbalance": result.energy_imbalance,
            "outer_iterations": result.iterations,
            "power": args["grid"].total_power,
            "v": args["flow"].inlet_velocity, "tol": args["tol"]}


def _optimize_attrs(args, result):
    return {"prune": bool(args["prune"]), "rows": len(result.rows),
            "feasible": sum(r.feasible for r in result.rows)}


def targets(coldplate, full: bool):
    """Wrapper placements. Without full, only what the end-to-end metrics
    need: the design-point spans and the first-call marker."""
    cli, fv, studies = coldplate.cli, coldplate.fv, coldplate.studies
    thermal, hydraulics = coldplate.thermal, coldplate.hydraulics
    points = [
        (fv, "build_grid", "fv.build_grid", None),
        (fv, "solve", "fv.solve", _solve_attrs),
        (studies, "evaluate_design", "studies.evaluate_design", None),
    ]
    if not full:
        return points
    return points + [
        (fv, "cg", "fv.cg", None),
        (fv, "write_structured_points", "fv.write_field", None),
        (fv, "validate", "geometry.validate", None),
        (thermal, "validate", "geometry.validate", None),
        (thermal, "solve_network", "thermal.solve_network", None),
        (hydraulics, "pressure_drop", "hydraulics.pressure_drop", None),
        (studies, "plate_mass", "geometry.plate_mass", None),
        (studies, "run_sweep", "studies.run_sweep", None),
        (studies, "optimize", "studies.optimize", _optimize_attrs),
        (cli, "parse_config", "cli.parse_config", None),
        (cli, "main", "cli.main", None),
    ]


def _self_time(spans, of) -> float:
    """Total duration of the spans in ``of`` minus the union of the
    intervals their child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {s[0]: [] for s in of}
    for span in spans:
        if span[1] in children:
            children[span[1]].append((span[3], span[4]))
    total = 0.0
    for sid, _, _, start, end, _ in of:
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children[sid]):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        total += (end - start) - covered
    return total


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-module metrics of one traced repetition. A layer that did not
    run reads 0."""
    by_name: dict[str, list[list]] = {}
    for span in tracer.spans:
        by_name.setdefault(span[2], []).append(span)

    def calls(name):
        return len(by_name.get(name, ()))

    def busy(name):
        return sum(s[4] - s[3] for s in by_name.get(name, ()))

    cg = by_name.get("fv.cg", [])
    solves = by_name.get("fv.solve", [])
    iterations = sum(s[5]["iterations"] for s in cg)
    first_pass = {}
    for s in sorted(cg, key=lambda s: s[3]):
        first_pass.setdefault(s[1], s[5]["iterations"])
    largest = max(cg, key=lambda s: s[5]["nnz"])[5] if cg else None
    flops = bytes_ = 0.0
    if largest is not None:
        n, nnz = largest["n"], largest["nnz"]
        ib, vb = largest["index_bytes"], largest["value_bytes"]
        flops = 2.0 * nnz + _CG_VECTOR_FLOPS * n
        bytes_ = ((vb + ib) * nnz + ib * (n + 1)
                  + _CG_VECTOR_PASSES * vb * n)

    optimize = by_name.get("studies.optimize", [])
    evals_under: dict[int, int] = {}
    for s in by_name.get("studies.evaluate_design", ()):
        evals_under[s[1]] = evals_under.get(s[1], 0) + 1
    pruned = sum(evals_under.get(s[0], 0) for s in optimize if s[5]["prune"])
    exhaustive = sum(evals_under.get(s[0], 0) for s in optimize
                     if not s[5]["prune"])
    rows = sum(s[5]["rows"] for s in optimize)
    network = by_name.get("thermal.solve_network", [])

    if solves and not cg and "coldplate.fv.cg" not in tracer.unmeasured:
        tracer.unmeasured.append("coldplate.fv.cg (not called by fv.solve)")

    return {
        "fv.cg_calls": calls("fv.cg"),
        "fv.cg_iterations": iterations,
        "fv.cg_iterations_first_pass": sum(first_pass.get(s[0], 0)
                                           for s in solves),
        "fv.cg_s": busy("fv.cg"),
        "fv.cg_s_per_iteration": busy("fv.cg") / iterations if iterations
        else 0.0,
        "fv.matrix_nnz": largest["nnz"] if largest else 0,
        "fv.unknowns": largest["n"] if largest else 0,
        "fv.outer_iterations": sum(s[5]["outer_iterations"] for s in solves),
        "fv.solve_s": busy("fv.solve"),
        "fv.solve_self_s": _self_time(tracer.spans, solves),
        "fv.build_grid_s": busy("fv.build_grid"),
        "fv.write_field_s": busy("fv.write_field"),
        "fv.cg_flops_computed": flops,
        "fv.cg_bytes_computed": bytes_,
        "fv.cg_ops_per_byte": flops / bytes_ if bytes_ else 0.0,
        "studies.run_sweep_s": busy("studies.run_sweep"),
        "studies.optimize_s": busy("studies.optimize"),
        "studies.evaluate_design_calls": calls("studies.evaluate_design"),
        "studies.prune_ratio": pruned / exhaustive if exhaustive else 0.0,
        "studies.feasible_ratio": (sum(s[5]["feasible"] for s in optimize)
                                   / rows if rows else 0.0),
        "thermal.solve_network_calls": len(network),
        "thermal.solve_network_s": busy("thermal.solve_network"),
        "thermal.solve_network_us_p50": (
            statistics.median(s[4] - s[3] for s in network) * 1e6
            if network else 0.0),
        "hydraulics.pressure_drop_calls": calls("hydraulics.pressure_drop"),
        "hydraulics.pressure_drop_s": busy("hydraulics.pressure_drop"),
        "geometry.validate_calls": calls("geometry.validate"),
        "geometry.validate_s": busy("geometry.validate"),
        "geometry.plate_mass_s": busy("geometry.plate_mass"),
        "cli.parse_config_s": busy("cli.parse_config"),
        "cli.main_s": busy("cli.main"),
        "trace.unmeasured_layers": len(tracer.unmeasured),
    }
