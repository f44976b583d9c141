"""The bench's per-layer metrics are named after the functions they time:
``<module>.<function>`` for a function of ``riverdense.<module>``, and
``cli.<command>`` for a subcommand. A renamed function makes its metric
read 0 silently, so each name is checked here against the package."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH_RUN = ROOT / "bench" / "run.py"
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


# Run apart from the suite: install patches riverdense's module attributes for good.
_WRAPPED = """
import json, sys
import riverdense.cli
from tracer import Tracer, install
install(Tracer())
unwrapped = []
for name in json.loads(sys.argv[1]):
    module, function = name.split(".")
    targets = (riverdense.cli, getattr(riverdense, module))
    if not any(hasattr(getattr(t, function, None), "__wrapped__") for t in targets):
        unwrapped.append(name)
print(json.dumps(sorted(unwrapped)))
"""


def test_every_bench_layer_is_wrapped_by_the_tracer():
    """A function cli reaches only through another riverdense function is not
    wrapped, so its metric reads 0 in every traced pass. cli.<command> spans
    are opened by bench/worker.py around cli.main, not by a wrapper."""
    names = sorted(name for name in {".".join(key.split(".")[:2]) for key in _per_layer()}
                   - COMPUTED - ABSENT if not name.startswith("cli."))
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), str(ROOT / "bench"),
                                         os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _WRAPPED, json.dumps(names)],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, check=True)
    assert json.loads(done.stdout) == []
