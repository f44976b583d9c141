"""The bench's per-layer metrics are named after the functions they time:
``<module>.<function>`` for a function of ``riverdense.<module>``, and
``cli.<command>`` for a subcommand. A renamed function makes its metric
read 0 silently, so each name is checked here against the package."""

import ast
import importlib
from pathlib import Path

BENCH_RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"
COMPUTED = {"preprocess.rows_ingested", "preprocess.qc_pass_ratio", "cli.self_s", "cli.warnings"}
# timed nothing since prepare_dataset stopped calling it; goes when the metric is renamed
ABSENT = {"forecast.make_windows"}


def _per_layer() -> dict:
    tree = ast.parse(BENCH_RUN.read_text(encoding="utf-8"))
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["PER_LAYER"])


def test_every_bench_layer_names_a_riverdense_function():
    names = {".".join(key.split(".")[:2]) for key in _per_layer()} - COMPUTED
    missing = set()
    for name in names:
        module, function = name.split(".")
        if module == "cli":
            function = f"cmd_{function}"
        if not callable(getattr(importlib.import_module(f"riverdense.{module}"), function, None)):
            missing.add(name)
    assert missing == ABSENT
