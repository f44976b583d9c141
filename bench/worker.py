"""Child process of the benchmark: builds a workload's inputs, or runs its
command sequence through ``riverdense.cli.main``.

    python3 bench/worker.py setup <workload> <seed> <input_dir> <result.json>
    python3 bench/worker.py run <plan.json> <trace 0|1> <result.json>

Each invocation is a fresh interpreter, so import cost lands in ``setup``
and one ``run`` measures one pass of the sequence with nothing cached from
an earlier pass. ``riverdense`` must be importable (``PYTHONPATH=src``).
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
import warnings
from pathlib import Path

# stations corrupted in gauge_year before timing: each gets one defect
NEGATIVE_STATIONS = 4
GAPPED_STATIONS = 4
DEFECTS_PER_STATION = 3


def setup(workload: str, seed: int, inputs: Path) -> dict:
    """Import riverdense and write the workload's inputs; returns what the
    output checks need to know about them."""
    t0 = time.perf_counter()
    import numpy as np
    import riverdense as rd

    inputs.mkdir(parents=True)
    expect: dict = {"package": rd.__file__}
    if workload == "dense_graph":
        net = rd.random_river_tree(1000, np.random.default_rng(seed))
        rd.write_edge_csv(net, inputs / "edges.csv")
    else:
        stations, hours = (64, 8760) if workload == "gauge_year" else (16, 4000)
        basin = rd.generate_basin(stations, seed, hours=hours)
        rd.write_edge_csv(basin.network, inputs / "edges.csv")
        rd.basin_to_gauge_csvs(basin, inputs / "gauges")
        if workload == "gauge_year":
            expect["corrupted"] = _corrupt(inputs / "gauges", basin.network.nodes,
                                           np.random.default_rng([seed, 1]))
    expect["setup_s"] = time.perf_counter() - t0
    return expect


def _corrupt(gauges: Path, nodes, rng) -> list[int]:
    """Give some stations negative discharge and drop hours from others.

    The rows touched are data rows, never the header; the first and last
    hour stay, so every station still spans the same study period.
    """
    picked = rng.choice(nodes, size=NEGATIVE_STATIONS + GAPPED_STATIONS, replace=False)
    for k, station in enumerate(picked):
        path = gauges / f"{station}.csv"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        rows = rng.choice(range(2, len(lines) - 1), size=DEFECTS_PER_STATION, replace=False)
        if k < NEGATIVE_STATIONS:
            for row in rows:
                stamp, qobs, rest = lines[row].split(",", 2)
                lines[row] = f"{stamp},{-1.0 - float(qobs)!r},{rest}"
        else:
            for row in sorted(rows, reverse=True):
                del lines[row]
        path.write_text("".join(lines), encoding="utf-8")
    return sorted(int(s) for s in picked)


def run(plan: list[list[str]], trace: bool) -> dict:
    import riverdense
    import riverdense.cli as cli

    tracer = None
    if trace:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer, install
        tracer = Tracer()
        install(tracer)

    commands = []
    started = time.perf_counter()
    for argv in plan:
        index = parent = None
        if tracer is not None:
            index, parent = tracer.begin()
            tracer.command = index
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0 = time.perf_counter()
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects a usage error this way
                code = exc.code
            except Exception:  # a crash is a failed command, not a failed bench
                traceback.print_exc()
                code = -1
            t1 = time.perf_counter()
        if tracer is not None:
            tracer.end(index, parent, f"cli.{argv[0]}", t0, t1)
            tracer.command = None
        for w in caught:  # counted, then shown as they would have been
            warnings.showwarning(w.message, w.category, w.filename, w.lineno)
        commands.append({"argv": argv, "code": code, "seconds": t1 - t0,
                         "warnings": len(caught)})
    wall = time.perf_counter() - started

    result = {"package": riverdense.__file__, "wall_s": wall, "commands": commands,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        result["breakdown"] = tracer.breakdown()
        result["counts"] = dict(tracer.counts)
        # counted from the files, not by wrapping the per-row parser
        result["rows_ingested"] = sum(_data_rows(p) for p in tracer.gauge_paths)
    return result


def _data_rows(path: str) -> int:
    with open(path, "rb") as fh:
        return sum(1 for line in fh if line.strip()) - 1


def main(argv: list[str]) -> int:
    mode, *rest = argv
    if mode == "setup":
        workload, seed, inputs, out = rest
        result = setup(workload, int(seed), Path(inputs))
    elif mode == "run":
        plan, trace, out = rest
        result = run(json.loads(Path(plan).read_text(encoding="utf-8")), trace == "1")
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 64
    Path(out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
