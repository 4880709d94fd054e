"""The benchmark's contract with the package, checked without running it.

`perfbench/tracing.py` wraps package functions by module and name and
reads some of their arguments by name; `perfbench/worker.py` builds a
`DesignProblem` by keyword, calls `optimize(problem, "network",
prune=prune)` and counts the lines of each `solve-fv` field file. A
renamed or removed name, or a field file of another shape, would show
only in the benchmark's own smoke test, as an unmeasured layer or a
failed point; these checks load the tracer module from its file, change
nothing, and fail at once.
"""

import dataclasses
import importlib.util
import inspect
import json
import re
from pathlib import Path

import pytest

import coldplate.cli  # tracing.targets reads the cli submodule off coldplate
from coldplate import fv, studies
from conftest import small_assembly

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists(tracing):
    targets = tracing.targets(coldplate, full=True)
    missing = [f"{module.__name__}.{attr}" for module, attr, _, _ in targets
               if not callable(getattr(module, attr, None))]
    assert not missing


@pytest.mark.parametrize("reader, function", [
    ("_solve_attrs", fv.solve), ("_optimize_attrs", studies.optimize)])
def test_traced_arguments_exist(tracing, reader, function):
    read = set(re.findall(r'args\["(\w+)"\]',
                          inspect.getsource(getattr(tracing, reader))))
    assert read and read <= set(inspect.signature(function).parameters)


def test_worker_design_problem_fields():
    fields = {f.name for f in dataclasses.fields(studies.DesignProblem)}
    assert {"base", "materials", "channel_counts", "cover_thicknesses",
            "v_min", "v_max", "v_step"} <= fields
    assert callable(studies.StudyResult.to_json)


def test_call_shapes():
    # the tracer counts CG iterations through cg's callback keyword
    assert "callback" in inspect.signature(fv.cg).parameters
    # the worker calls optimize(problem, "network", prune=prune)
    positional = [p.name for p in
                  inspect.signature(studies.optimize).parameters.values()
                  if p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD]
    assert positional[:2] == ["problem", "evaluator"]
    assert "prune" in inspect.signature(studies.optimize).parameters


def test_field_file_lines(tmp_path):
    # the worker refuses a solve-fv point unless field.txt holds exactly
    # 10 + cells newline bytes, cells read from result.csv as it does
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "assembly": coldplate.cli.assembly_to_json(small_assembly()),
        "solver": {"resolution_m": 2.5e-3}}))
    assert coldplate.cli.main(["solve-fv", "--config", str(config),
                               "--out", str(tmp_path)]) == 0
    cells = int((tmp_path / "result.csv").read_text().splitlines()[1]
                .split(",")[-1])
    assert cells == fv.build_grid(small_assembly(), 2.5e-3).cell_count
    assert (tmp_path / "field.txt").read_bytes().count(b"\n") == 10 + cells
