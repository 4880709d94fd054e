"""Run the CLI on a fixed matrix of cases and keep every output.

    python tests/cli_matrix.py OUT_DIR [--against OTHER_OUT_DIR]

Each case runs `python -m coldplate.cli ACTION --echo-config` in a fresh
process on the `src/` of the checkout this file lies in, with the case's
entries of ENVIRONMENTS added to the environment, and writes into
OUT_DIR/<case>/ its exit code (`exit_code`), stdout, stderr and whatever
the run wrote: result.json, result.csv, field.txt. Outputs are byte-stable
for a given config, so two checkouts compare with

    python A/tests/cli_matrix.py a && python B/tests/cli_matrix.py b
    diff -r a b

or, with `--against a` on the second run, by one line per case: whether
its files are byte-identical to those of the same case under a, and for
each file that is not, the largest absolute change of any number in it
(or "text differs" where more than numbers changed). With `--against`
the run exits 1 when any case is not byte-identical to, or has no
counterpart in, the other directory, and 0 when all are identical.

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
velocity sweep runs a second time on a 2-thread pool, and so does an FV
material sweep of the small plate, whose points differ in their design
where the velocity sweep's differ only in their flow.
"""

from __future__ import annotations

import argparse
import json
import os
import re
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
    # each material is a design of its own, whose FV point builds its own
    # grid on a pool thread (ENVIRONMENTS)
    cases["small-sweep-material-fv"] = "sweep", {
        "assembly": small, "solver": {"resolution_m": 2e-3},
        "sweep": {"axis": "material",
                  "values": ["copper", "aluminum", "stainless-steel"],
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
                {"COLDPLATE_THREADS": "2"},
                "small-sweep-material-fv": {"COLDPLATE_THREADS": "2"}}


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


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def difference(path: Path, other: Path) -> str | None:
    """None where the two files are byte-identical, else how they differ:
    the largest absolute change of a number in them when only numbers
    changed."""
    if not (path.exists() and other.exists()):
        return None if path.exists() == other.exists() else "only one side"
    a, b = path.read_bytes(), other.read_bytes()
    if a == b:
        return None
    a, b = a.decode(), b.decode()
    if _NUMBER.sub("#", a) != _NUMBER.sub("#", b):
        return "text differs"
    change = max(abs(float(x) - float(y)) for x, y in
                 zip(_NUMBER.findall(a), _NUMBER.findall(b)))
    return f"max |change| {change:.3g}"


def compare(case: Path, other: Path) -> str:
    """One line on how the case's files differ from those of `other`."""
    if not other.is_dir():
        return f"no case {other.name} under {other.parent}"
    names = sorted({p.name for p in case.iterdir()}
                   | {p.name for p in other.iterdir()})
    found = [f"{name} {d}" for name in names
             if (d := difference(case / name, other / name)) is not None]
    return "; ".join(found) or "identical"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("out_dir", type=Path)
    parser.add_argument("--against", type=Path, metavar="OTHER_OUT_DIR")
    args = parser.parse_args(argv)
    same = True
    for name, (action, doc) in CASES.items():
        code = run_case(action, doc, args.out_dir / name,
                        ENVIRONMENTS.get(name))
        line = f"{name}: exit {code}"
        if args.against is not None:
            found = compare(args.out_dir / name, args.against / name)
            same &= found == "identical"
            line += ", " + found
        print(line, flush=True)
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
