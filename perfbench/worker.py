"""One repetition of one workload, in a fresh process.

Usage: python3 worker.py SPEC_JSON. The spec names the workload, its
generated inputs, the mode and where to write the result:

- ``setup``: stop at the first design-point call and report its time;
- ``run``: run the workload, check its outputs, report times and gates;
- ``trace``: as ``run``, with a span around every public layer call.

The parent passes its clock reading from before it started this process, so
set-up covers the interpreter, ``import coldplate``, the presets and config
parsing.
"""

from __future__ import annotations

import json
import math
import os
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import coldplate  # noqa: E402
import coldplate.cli  # noqa: E402
import coldplate.fv  # noqa: E402
import coldplate.studies  # noqa: E402

import tracing  # noqa: E402

T_MAX_TOLERANCE_K = 1e-6
ENERGY_TOLERANCE = 1e-6  # of the imposed power
# cg stops on its recurrence residual; fv.solve reports the recomputed one,
# which may differ from it in the last digits
RESIDUAL_FACTOR = 2.0


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_json(text: str):
    return json.loads(text, parse_constant=_reject_constant)


class Gate:
    """Per-point pass/fail record; every failure carries its reason."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.outputs: dict = {}  # what references.json holds, as computed

    def point(self, label: str, reasons: list[str]) -> None:
        self.attempted += 1
        if reasons:
            self.failures.append(f"{label}: " + "; ".join(reasons))

    def extra(self, reason: str) -> None:
        """A failure that is not one point's, such as a wrong best design."""
        self.failures.append(reason)


def _check_solution(stats: dict | None, t_max: float, ref: float | None):
    if stats is None:
        return ["no fv.solve call recorded"]
    reasons = []
    if not math.isfinite(t_max):
        reasons.append(f"t_max {t_max} not finite")
    if t_max != stats["t_max"]:
        reasons.append(f"written t_max {t_max!r} != solved {stats['t_max']!r}")
    if not abs(stats["energy_imbalance"]) <= ENERGY_TOLERANCE * stats["power"]:
        reasons.append(f"energy imbalance {stats['energy_imbalance']:.3e} W "
                       f"of {stats['power']:.1f} W")
    if not stats["residual"] <= RESIDUAL_FACTOR * stats["tol"]:
        reasons.append(f"residual {stats['residual']:.3e}")
    if ref is not None and not abs(t_max - ref) <= T_MAX_TOLERANCE_K:
        reasons.append(f"t_max {t_max!r} misses reference {ref!r}")
    return reasons


def _monotonic_failures(pairs, strict: bool = True) -> set:
    """Velocities whose t_max is not below (strict) or rises above that of
    the next slower point (acceptance check C5)."""
    bad = set()
    ordered = sorted(pairs)
    for (v0, t0), (v1, t1) in zip(ordered, ordered[1:]):
        if not (t1 < t0 if strict else t1 <= t0):
            bad.add(v1)
    return bad


def _solve_stats(tracer) -> dict[float, dict]:
    return {s[5]["v"]: s[5] for s in tracer.spans
            if s[2] == "fv.solve" and s[5] is not None}


def _run_cli(argv: list[str]) -> tuple[int, str | None]:
    try:
        return coldplate.cli.main(argv), None
    except Exception:  # a crash is a failed point, not a crashed benchmark
        return -1, traceback.format_exc(limit=3)


def fv_primary(spec, tracer, gate, out: Path):
    refs = spec["references"] or {}
    written = []
    for i, v in enumerate(spec["velocities"]):
        d = out / f"point{i}"
        d.mkdir(parents=True)
        config = {"preset": spec["preset"], "flow": {"v_mps": v},
                  "solver": {"resolution_m": spec["resolution_m"],
                             "tol": spec["tol"]}}
        (d / "config.json").write_text(json.dumps(config))
        rc, crash = _run_cli(["solve-fv", "--config", str(d / "config.json"),
                              "--out", str(d)])
        written.append((v, d, rc, crash))
    stats = _solve_stats(tracer)
    t_by_v = {}
    for v, d, rc, crash in written:
        label = f"v={v}"
        if rc != 0:
            gate.point(label, [f"exit {rc}" + (f": {crash}" if crash else "")])
            continue
        try:
            result = strict_json((d / "result.json").read_text())
            cells = int((d / "result.csv").read_text().splitlines()[1]
                        .split(",")[-1])
            field_lines = (d / "field.txt").read_bytes().count(b"\n")
        except (OSError, ValueError, IndexError) as exc:
            gate.point(label, [f"unreadable output: {exc}"])
            continue
        t_max = result["t_max_C"]
        reasons = _check_solution(stats.get(v), t_max, refs.get(repr(v)))
        if field_lines != 10 + cells:
            reasons.append(f"field.txt has {field_lines} lines for "
                           f"{cells} cells")
        t_by_v[v] = (t_max, reasons)
    _gate_with_monotonic(gate, t_by_v)


def _gate_with_monotonic(gate, t_by_v):
    bad = _monotonic_failures((v, t) for v, (t, _) in t_by_v.items())
    for v, (t_max, reasons) in sorted(t_by_v.items()):
        gate.outputs[repr(v)] = t_max
        if v in bad:
            reasons.append("t_max does not fall as velocity rises")
        gate.point(f"v={v}", reasons)


def fv_secondary_sweep(spec, tracer, gate, out: Path):
    refs = spec["references"] or {}
    velocities = spec["velocities"]
    config = {"preset": spec["preset"],
              "solver": {"resolution_m": spec["resolution_m"]},
              "sweep": {"axis": "velocity", "values": velocities,
                        "evaluator": "fv"}}
    out.mkdir(parents=True)
    (out / "config.json").write_text(json.dumps(config))
    rc, crash = _run_cli(["sweep", "--config", str(out / "config.json"),
                          "--out", str(out)])
    if rc != 0:
        for v in velocities:
            gate.point(f"v={v}",
                       [f"exit {rc}" + (f": {crash}" if crash else "")])
        return
    try:
        rows = strict_json((out / "result.json").read_text())["rows"]
    except (OSError, ValueError, KeyError) as exc:
        for v in velocities:
            gate.point(f"v={v}", [f"unreadable result.json: {exc}"])
        return
    stats = _solve_stats(tracer)
    written = {row["v_mps"]: row["t_max_C"] for row in rows}
    t_by_v = {}
    for v in velocities:
        if v not in written:
            gate.point(f"v={v}", ["missing from result.json"])
            continue
        t_by_v[v] = (written[v], _check_solution(stats.get(v), written[v],
                                                 refs.get(repr(v))))
    _gate_with_monotonic(gate, t_by_v)


def network_optimize(spec, tracer, gate, out: Path):
    studies = coldplate.studies
    refs = spec["references"] or {}
    for preset, counts in spec["channel_counts"].items():
        problem = studies.DesignProblem(
            base=coldplate.geometry.PRESETS[preset](),
            materials=tuple(spec["materials"]),
            channel_counts=tuple(counts),
            cover_thicknesses=tuple(spec["covers_m"]),
            v_min=spec["v_min"], v_max=spec["v_max"], v_step=spec["v_step"])
        bests = {}
        for prune in (True, False):
            try:
                result = studies.optimize(problem, "network", prune=prune)
                doc = strict_json(json.dumps(result.to_json(),
                                             allow_nan=False))
            except Exception:  # a crash fails the call, not the benchmark
                gate.point(f"{preset} prune={prune}",
                           [traceback.format_exc(limit=3)])
                continue
            by_variant: dict[str, list] = {}
            for row in doc["rows"]:
                variant, _, _ = row["descriptor"].rpartition(",v=")
                by_variant.setdefault(variant, []).append(
                    (row["v_mps"], row["t_max_C"]))
            # a module with no upstream heat keeps its laminar t_max as
            # velocity rises, so the network check is only "never rises"
            for variant, pairs in by_variant.items():
                bad = _monotonic_failures(pairs, strict=False)
                for v, _ in pairs:
                    gate.point(f"{preset} {variant},v={v}",
                               ["t_max rises with velocity"]
                               if v in bad else [])
            bests[prune] = doc["best"]
        if len(bests) == 2 and bests[True] != bests[False]:
            gate.extra(f"{preset}: pruned best {bests[True]} != exhaustive "
                       f"best {bests[False]}")
        ref = refs.get(preset)
        best = bests.get(False)
        if best is not None:
            gate.outputs[preset] = {"descriptor": best["descriptor"],
                                    "t_max_C": best["t_max_C"]}
        if ref is not None and (
                best is None or best["descriptor"] != ref["descriptor"]
                or not abs(best["t_max_C"] - ref["t_max_C"])
                <= T_MAX_TOLERANCE_K):
            gate.extra(f"{preset}: best {best} misses reference {ref}")


WORKLOADS = {
    "fv-primary": ("fv", fv_primary),
    "fv-secondary-sweep": ("fv", fv_secondary_sweep),
    "network-optimize": ("network", network_optimize),
}


def _versions() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "numpy_blas": f"{blas.get('name')} {blas.get('version')}"}


def main(spec: dict) -> None:
    result_path = Path(spec["result_path"])
    kind, workload = WORKLOADS[spec["workload"]]
    tracer = tracing.Tracer(spec["run_id"])
    tracer.install(tracing.targets(coldplate, spec["mode"] == "trace"))

    if spec["mode"] == "setup":
        def stop(t):
            result_path.write_text(json.dumps(
                {"entry_monotonic": t.entry_monotonic}))
            os._exit(0)
        tracer.on_entry = stop

    gate = Gate()
    out = Path(spec["out_dir"])
    workload(spec, tracer, gate, out)
    end = time.monotonic()
    cpu_end = time.process_time()
    if tracer.entry_monotonic is None:
        raise SystemExit("workload made no design-point call")

    tts = end - tracer.entry_monotonic
    cpu = cpu_end - tracer.entry_cpu
    point = tracing.POINT_SPAN[kind]
    report = {
        "entry_monotonic": tracer.entry_monotonic,
        "time_to_solution_s": tts,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "point_s": [s[4] - s[3] for s in tracer.spans if s[2] == point],
        "attempted": gate.attempted,
        "failures": gate.failures,
        "outputs": gate.outputs,
        "versions": _versions(),
    }
    if spec["mode"] == "trace":
        layers = tracing.layer_metrics(tracer)
        layers["cli.output_bytes"] = sum(
            p.stat().st_size for p in out.rglob("*")
            if p.is_file() and p.name != "config.json")
        layers["process.cpu_per_wall"] = cpu / tts
        report["layers"] = layers
        report["unmeasured"] = tracer.unmeasured
        tracer.write_csv(spec["spans_path"])
    result_path.write_text(json.dumps(report))


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
