"""Run the CLI on a fixed matrix of cases and keep every output.

    python tests/cli_matrix.py OUT_DIR

Each case runs `python -m coldplate.cli ACTION --echo-config` in a fresh
process on the `src/` of the checkout this file lies in, with the case's
entries of ENVIRONMENTS added to the environment, and writes into
OUT_DIR/<case>/ its exit code (`exit_code`), stdout, stderr and whatever
the run wrote: result.json, result.csv, field.txt. Outputs are byte-stable
for a given config, so two checkouts compare with

    python A/tests/cli_matrix.py a && python B/tests/cli_matrix.py b
    diff -r a b

field.txt holds one value per line as "% .16e" (17 significant digits,
an exact round trip); up to commit 409ecd4 it held repr, so against such
a checkout its bytes differ while the float64 values it holds do not:
compare those files with np.loadtxt(path, skiprows=10).

The cases cover every action on both presets, including the ones that
end in an error, an FV solve of the primary plate at 2.9 m/s (3 outer
passes), and the small inline plate of `conftest.small_assembly`:
its FV solve, an FV optimize over 2 geometries and 3 velocities, an FV
shape sweep and a one-row FV solve on its rectangular variant, and a mesh
study whose last two sizes give the same grid. A network sweep, a network
optimize and an FV sweep run with a non-default coolant, die stack,
minor-loss K and solver tolerance, so a setting lost on its way to a
design point changes their outputs; an FV sweep whose `solver.max_iters`
binds, under a `solver.tol` below what CG's recurrence reaches in that
many iterations, ends in the solver's convergence error. The secondary plate's FV
velocity sweep runs a second time on a 2-thread pool.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from coldplate.cli import assembly_to_json  # noqa: E402
from conftest import small_assembly  # noqa: E402

# per preset: the FV cell size, and a mesh study whose coarsest size is the
# coarsest that still resolves both the channels and the cover
_FV = {"primary_side": (2e-3, [2.5e-3, 2e-3, 1.8e-3]),
       "secondary_side": (1.5e-3, [2e-3, 1.8e-3, 1.5e-3])}
# a non-default value for each setting of how a design point is evaluated
_SETTINGS = {
    "coolant": {"name": "glycol-25", "density": 1030.0,
                "dynamic_viscosity": 1.2e-3, "specific_heat": 3900.0,
                "thermal_conductivity": 0.52, "reference_temperature_C": 45.0},
    "stack": {"layers": [
        {"name": "die", "thickness_m": 3.5e-4, "conductivity": 130.0},
        {"name": "solder", "thickness_m": 1e-4, "conductivity": 35.0,
         "area_factor": 1.2},
        {"name": "baseplate", "thickness_m": 3e-3, "conductivity": 390.0,
         "area_factor": 2.0}]},
    "hydraulics": {"minor_loss_K": 3.5},
    "solver": {"tol": 1e-7}}
_SWEEPS = {"velocity": [0.5, 1.1, 2.9],
           "material": ["copper", "aluminum", "stainless-steel"],
           "channel_shape": ["rectangular", "semicircular"],
           "channel_count": [3, 4, 6, 12],
           "cover_thickness": [1e-3, 0.5e-3]}


def _cases() -> dict[str, tuple[str, dict]]:
    """Case name -> (action, config document)."""
    cases = {}
    for preset, (resolution, mesh) in _FV.items():
        fv_solver = {"resolution_m": resolution}
        cases[f"{preset}-report"] = "report", {"preset": preset}
        for axis, values in _SWEEPS.items():
            cases[f"{preset}-sweep-{axis}"] = "sweep", {
                "preset": preset, "sweep": {"axis": axis, "values": values}}
        cases[f"{preset}-sweep-velocity-fv"] = "sweep", {
            "preset": preset, "solver": fv_solver,
            "sweep": {"axis": "velocity", "values": [1.1, 2.9],
                      "evaluator": "fv"}}
        cases[f"{preset}-optimize"] = "optimize", {
            "preset": preset, "optimize": {}}
        cases[f"{preset}-optimize-counts"] = "optimize", {
            "preset": preset, "optimize": {"channel_counts": [3, 4, 6, 12]}}
        cases[f"{preset}-solve-fv"] = "solve-fv", {
            "preset": preset, "solver": fv_solver}
        cases[f"{preset}-mesh-study"] = "mesh-study", {
            "preset": preset, "mesh_study": {"resolutions_m": mesh}}
    # at 2.9 m/s the coolant settles in 3 outer passes, the fewest of the
    # primary plate's solves (4 at 1.1 m/s)
    cases["primary_side-solve-fv-2.9"] = "solve-fv", {
        "preset": "primary_side", "flow": {"v_mps": 2.9},
        "solver": {"resolution_m": _FV["primary_side"][0]}}
    # the same sweep on the thread pool, from its ENVIRONMENTS entry
    cases["secondary_side-sweep-velocity-fv-threads"] = cases[
        "secondary_side-sweep-velocity-fv"]
    small = assembly_to_json(small_assembly())
    cases["small-report"] = "report", {"assembly": small}
    # an inlet at 0 C starts the first linear solve from an all-zero guess
    cases["small-solve-fv-inlet-0"] = "solve-fv", {
        "assembly": small, "flow": {"inlet_C": 0.0}}
    cases["small-optimize-fv"] = "optimize", {
        "assembly": small, "solver": {"resolution_m": 2e-3},
        "optimize": {"materials": ["copper", "aluminum"],
                     "channel_counts": [2], "cover_thicknesses_m": [1e-3],
                     "v_min": 0.5, "v_max": 1.5, "v_step": 0.5,
                     "evaluator": "fv"}}
    # with a 6 x 3 mm rectangle, whose semicircle of equal wetted area also
    # fits the plate: both shapes rasterize in two rows, then one row
    rect = json.loads(json.dumps(small))
    rect["layout"]["shape"] = {"kind": "rectangular", "width_m": 0.006,
                               "height_m": 0.003}
    cases["small-rectangular-sweep-channel_shape-fv"] = "sweep", {
        "assembly": rect, "solver": {"resolution_m": 2e-3},
        "sweep": {"axis": "channel_shape",
                  "values": ["rectangular", "semicircular"],
                  "evaluator": "fv"}}
    one_row = json.loads(json.dumps(rect))
    one_row["layout"]["rows"] = 1
    cases["small-rectangular-one-row-solve-fv"] = "solve-fv", {
        "assembly": one_row, "solver": {"resolution_m": 2e-3}}
    cases["primary_side-sweep-velocity-settings"] = "sweep", {
        "preset": "primary_side", **_SETTINGS,
        "sweep": {"axis": "velocity", "values": [0.5, 1.1, 2.9]}}
    cases["primary_side-optimize-settings"] = "optimize", {
        "preset": "primary_side", **_SETTINGS, "optimize": {}}
    cases["small-sweep-velocity-fv-settings"] = "sweep", {
        "assembly": small, **_SETTINGS,
        "solver": {**_SETTINGS["solver"], "resolution_m": 2e-3},
        "sweep": {"axis": "velocity", "values": [0.5, 1.5],
                  "evaluator": "fv"}}
    cases["small-sweep-velocity-fv-max-iters"] = "sweep", {
        "assembly": small,
        "solver": {"resolution_m": 2e-3, "max_iters": 3, "tol": 1e-300},
        "sweep": {"axis": "velocity", "values": [1.1], "evaluator": "fv"}}
    # 2 mm and 1.999 mm give the same grid, which the study refuses
    cases["small-mesh-study-same-grid"] = "mesh-study", {
        "assembly": small,
        "mesh_study": {"resolutions_m": [2.5e-3, 2e-3, 1.999e-3]}}
    return cases


CASES = _cases()
# case name -> variables added to the environment of its run
ENVIRONMENTS = {"secondary_side-sweep-velocity-fv-threads":
                {"COLDPLATE_THREADS": "2"}}


def run_case(action: str, doc: dict, out: Path,
             environment: dict[str, str] | None = None) -> int:
    """Run one case into the new directory `out`; returns its exit code."""
    out.mkdir(parents=True)
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(doc))
        env = {**os.environ, **(environment or {}),
               "PYTHONPATH": str(ROOT / "src")}
        proc = subprocess.run(
            [sys.executable, "-m", "coldplate.cli", action, "--config",
             str(config), "--out", str(out), "--echo-config"],
            capture_output=True, text=True, env=env)
    (out / "exit_code").write_text(f"{proc.returncode}\n")
    (out / "stdout").write_text(proc.stdout)
    (out / "stderr").write_text(proc.stderr)
    return proc.returncode


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    out_dir = Path(argv[0])
    for name, (action, doc) in CASES.items():
        code = run_case(action, doc, out_dir / name, ENVIRONMENTS.get(name))
        print(f"{name}: exit {code}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
