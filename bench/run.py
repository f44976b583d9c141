"""riverdense benchmark: one workload, one seed, one timed window.

    python3 bench/run.py --workload dense_graph --seed 3 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 3 --seconds 30 --trace 0

Run from anywhere inside a source checkout; the code under test is the
checkout's ``src/riverdense``. Set-up imports riverdense and writes the
workload's inputs (from ``--seed``) in fresh child processes, at least three
times, and reports the median. The window then runs the workload's command
sequence back to back, one fresh child process per pass (a single
closed-loop client), while another pass would end within half a pass of
``--seconds``. After each pass the outputs are checked with code that does
not import riverdense.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes and reports per-layer self times and counters from
the traced ones, plus the tracing overhead. Human-readable lines start with
``#``; each workload ends with one JSON result line, so for a single
workload the last line of standard output is its result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS, CheckFailed, figures, plan  # noqa: E402

# set-up repeats: at least SETUPS_MIN, more while cheap, for a steadier median
SETUPS_MIN, SETUPS_MAX, SETUP_BUDGET_S = 3, 15, 3.0
CHILD_TIMEOUT_S = 120

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "success_rate": "ratio"}
PER_LAYER = {
    "cli.qc.s": "s", "cli.rewire.s": "s", "cli.resist.s": "s", "cli.train.s": "s",
    "cli.self_s": "s", "cli.warnings": "count",
    "preprocess.read_gauge_csv.s": "s", "preprocess.read_gauge_csv.calls": "count",
    "preprocess.rows_ingested": "count", "preprocess.qc_station.s": "s",
    "preprocess.extract_subgraph.s": "s", "preprocess.bypass_remove.calls": "count",
    "preprocess.qc_pass_ratio": "ratio",
    "network.read_edge_csv.s": "s", "network.write_edge_csv.s": "s",
    "network.topological_distances.s": "s", "network.topological_distances.calls": "count",
    "adjacency.build_adjacency.s": "s",
    "adjacency.write_adjacency_csv.s": "s", "adjacency.write_adjacency_csv.bytes": "bytes",
    "adjacency.read_adjacency_csv.s": "s", "adjacency.read_adjacency_csv.bytes": "bytes",
    "resistance.graph_laplacian.symmetric.s": "s",
    "resistance.graph_laplacian.random-walk.s": "s",
    "resistance.pairwise_resistances.s": "s", "resistance.resistance_report.s": "s",
    "forecast.train.s": "s", "forecast.loss_and_gradients.s": "s",
    "forecast.loss_and_gradients.calls": "count", "forecast.make_windows.s": "s",
    "forecast.nse_by_horizon.s": "s", "forecast.save_model.s": "s",
    "forecast.save_model.bytes": "bytes",
}


def note(text: str) -> None:
    print(f"# {text}", flush=True)


class Bench:
    def __init__(self, root: Path, workload: str, seed: int, work: Path):
        self.src = root / "src"
        self.workload = workload
        self.seed = seed
        self.work = work
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(self.src)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
        self.attempted = 0
        self.failed = 0

    def child(self, *argv: str) -> dict:
        result = self.work / "child.json"
        result.unlink(missing_ok=True)
        subprocess.run([sys.executable, str(BENCH / "worker.py"), *argv, str(result)],
                       env=self.env, cwd=self.work, stdout=sys.stderr,
                       timeout=CHILD_TIMEOUT_S, check=True)
        payload = json.loads(result.read_text(encoding="utf-8"))
        package = Path(payload.pop("package")).resolve()
        if self.src.resolve() not in package.parents:
            raise RuntimeError(f"child imported riverdense from {package}, not {self.src}")
        return payload

    def setup(self) -> tuple[float, Path, dict]:
        times, expect = [], None
        while len(times) < SETUPS_MIN or (len(times) < SETUPS_MAX
                                          and sum(times) < SETUP_BUDGET_S):
            inputs = self.work / f"inputs{len(times)}"
            info = self.child("setup", self.workload, str(self.seed), str(inputs))
            times.append(info.pop("setup_s"))
            if expect is None:
                expect = info
            else:
                shutil.rmtree(inputs)
        note(f"setup_s {len(times)} runs: " + " ".join(f"{t:.4f}" for t in times))
        return statistics.median(times), self.work / "inputs0", expect

    def one_pass(self, index: int, inputs: Path, expect: dict, traced: bool) -> tuple[dict, dict]:
        out = self.work / f"out{index}"
        steps = plan(self.workload, inputs, out, self.seed, expect)
        plan_path = self.work / "plan.json"
        plan_path.write_text(json.dumps([s.argv for s in steps]), encoding="utf-8")
        try:
            res = self.child("run", str(plan_path), "1" if traced else "0")
        except (subprocess.TimeoutExpired, subprocess.CalledProcessError) as exc:
            note(f"pass {index}: {exc}")
            self.attempted += len(steps)
            self.failed += len(steps)
            return {}, {}
        res["traced"] = traced
        for step, cmd in zip(steps, res["commands"]):
            self.attempted += 1
            try:
                if cmd["code"] != 0:
                    raise CheckFailed(f"exit code {cmd['code']}")
                step.check()
            except Exception as exc:  # malformed output fails the command, not the run
                self.failed += 1
                note(f"FAILED {step.argv[0]} -> {Path(step.argv[-1]).name}: "
                     f"{type(exc).__name__}: {exc}")
        figs = figures(self.workload, out) if self.failed == 0 else {}
        shutil.rmtree(out, ignore_errors=True)
        per_cmd = ", ".join(f"{c['argv'][0]} {c['seconds']:.3f}" for c in res["commands"])
        note(f"pass {index}{' traced' if traced else ''}: wall {res['wall_s']:.4f} s, "
             f"peak {res['peak_rss_mb']:.1f} MB, warnings "
             f"{sum(c['warnings'] for c in res['commands'])} ({per_cmd})")
        return res, figs

    def window(self, seconds: float, trace: bool, inputs: Path, expect: dict):
        """Passes back to back; another starts while it would end, on a
        median pass, no more than half a pass past the window."""
        passes, figs, took = [], {}, []
        minimum = 2 if trace else 1
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            traced = trace and len(passes) % 2 == 1
            res, figs_now = self.one_pass(len(passes), inputs, expect, traced)
            took.append(time.perf_counter() - t0)
            if not res:
                break
            passes.append(res)
            figs = figs or figs_now
            elapsed = time.perf_counter() - start
            if len(passes) >= minimum and elapsed + statistics.median(took) / 2 > seconds:
                break
        return passes, figs


def layer_metrics(res: dict) -> dict[str, float]:
    """Per-layer values of one traced pass; layers the workload does not
    reach read 0."""
    m = dict.fromkeys(PER_LAYER, 0.0)
    for cmd in res["breakdown"]:
        m[f"{cmd['name']}.s"] += cmd["inclusive_s"]
        total = sum(cmd["self_s"].values())
        if abs(total - cmd["inclusive_s"]) > 1e-6:
            raise RuntimeError(f"{cmd['name']}: self times sum to {total}, "
                               f"span is {cmd['inclusive_s']}")
        for key, secs in cmd["self_s"].items():
            name = "cli.self_s" if key == cmd["name"] else f"{key}.s"
            if name in m:
                m[name] += secs
        modules: dict[str, float] = {}
        for key, secs in cmd["self_s"].items():
            module = "cli" if key == cmd["name"] else key.split(".")[0]
            modules[module] = modules.get(module, 0.0) + secs
        note(f"  {cmd['name']} {cmd['inclusive_s']:.4f} s = " + " + ".join(
            f"{mod} {secs:.4f}" for mod, secs in sorted(modules.items(), key=lambda kv: -kv[1])))
    counts = res["counts"]
    for name in PER_LAYER:
        if name.endswith((".calls", ".bytes")):
            m[name] = float(counts.get(name, 0.0))
    m["cli.warnings"] = float(sum(c["warnings"] for c in res["commands"]))
    screened = counts.get("preprocess.qc_station.calls", 0.0)
    m["preprocess.qc_pass_ratio"] = (counts.get("preprocess.qc_station.passed", 0.0) / screened
                                     if screened else 0.0)
    m["preprocess.rows_ingested"] = float(res["rows_ingested"])
    return m


def environment(root: Path, seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):  # numpy < 1.26 has no dict form
        blas = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas": blas,
        # inherited, never set here: BLAS threading is the program's knob
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_sha": _git_sha(root),
        "seed": seed,
    }


def _git_sha(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text(encoding="utf-8").strip()
    packed = git / "packed-refs"
    for line in packed.read_text(encoding="utf-8").splitlines() if packed.is_file() else []:
        sha, _, name = line.partition(" ")
        if name == ref:
            return sha
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="'all' runs each workload in turn, one result line each")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = BENCH.parent
    if not (root / "src" / "riverdense" / "cli.py").is_file():
        print(f"run.py: no riverdense sources under {root / 'src'}", file=sys.stderr)
        return 2
    note("env " + json.dumps(environment(root, args.seed)))
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    return max(run_workload(root, workload, args) for workload in workloads)


def run_workload(root: Path, workload: str, args) -> int:
    note(f"workload {workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    scratch = root / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch))
    try:
        bench = Bench(root, workload, args.seed, work)
        setup_s, inputs, expect = bench.setup()
        passes, figs = bench.window(args.seconds, bool(args.trace), inputs, expect)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:  # another run still holds a work directory
            pass

    for name, (value, unit) in figs.items():
        note(f"figure {name} {value!r} {unit}")
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    if not plain or (args.trace and not traced):
        print("run.py: the window completed no usable pass", file=sys.stderr)
        return 1

    if args.trace:
        layers = [layer_metrics(p) for p in traced]
        values = {name: statistics.median(m[name] for m in layers) for name in PER_LAYER}
        units = PER_LAYER
        overhead = (statistics.median(p["wall_s"] for p in traced)
                    - statistics.median(p["wall_s"] for p in plain))
        note(f"trace overhead {overhead:.4f} s (traced wall_s minus untraced median)")
    else:
        values = {
            "setup_s": setup_s,
            # mean, not median: pass times swing between host speed states
            # lasting tens of seconds, and with 2-6 passes a median jumps
            # between them while the mean (the inverse of throughput) moves
            # with the share of time spent in each
            "wall_s": statistics.fmean(p["wall_s"] for p in plain),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
            "success_rate": 1.0 - bench.failed / bench.attempted,
        }
        units = END_TO_END
    for name, value in values.items():
        note(f"metric {name} {value!r} {units[name]}")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
