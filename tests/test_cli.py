import csv
import json
import shutil
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import riverdense as rd
from riverdense.cli import main


def run_cli(*argv):
    try:
        return main([str(a) for a in argv])
    except SystemExit as exc:  # argparse paths (--help, usage errors)
        return exc.code if exc.code is not None else 0


def read_metrics(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def snapshot(directory):
    return sorted(str(p) for p in Path(directory).rglob("*"))


# ---------------------------------------------------------------------------
# usage surface

def test_help_exits_zero(capsys):
    assert run_cli("--help") == 0
    out = capsys.readouterr().out
    for sub in ("qc", "rewire", "resist", "train"):
        assert sub in out


def test_subcommand_help_lists_flags(capsys):
    assert run_cli("rewire", "--help") == 0
    out = capsys.readouterr().out
    for flag in ("--kind", "--sigma", "--prune", "--out"):
        assert flag in out


def test_unknown_flag_exits_64(capsys, tmp_path):
    assert run_cli("rewire", "--bogus", "x") == 64
    assert run_cli("qc", "--edges", tmp_path / "e.csv", "--gauges", tmp_path,
                   "--threads", "2", "--out", tmp_path / "qc") == 64
    assert run_cli("resist", "--adjacency", tmp_path / "a.csv",
                   "--threads", "2", "--out", tmp_path / "rs") == 64


def test_no_command_exits_64(capsys):
    assert run_cli() == 64


# ---------------------------------------------------------------------------
# qc

def test_qc_clean_run_keeps_network(basin8_dir, tmp_path):
    out = tmp_path / "qc"
    code = run_cli("qc", "--edges", basin8_dir / "edges.csv",
                   "--gauges", basin8_dir / "gauges", "--out", out)
    assert code == 0
    reports = json.loads((out / "qc_report.json").read_text())
    assert len(reports) == 8
    assert all(r["passed"] for r in reports)
    filtered = rd.read_edge_csv(out / "network_filtered.csv")
    original = rd.read_edge_csv(basin8_dir / "edges.csv")
    assert filtered.nodes == original.nodes
    assert filtered.edges == original.edges
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "qc"
    assert "period_start" in manifest["parameters"]


def test_qc_negative_station_is_bypassed(basin8_dir, tmp_path):
    gauges = tmp_path / "gauges"
    shutil.copytree(basin8_dir / "gauges", gauges)
    net = rd.read_edge_csv(basin8_dir / "edges.csv")
    victim = next(s for s in net.nodes if net.out_edges(s) and net.in_edges(s))
    lines = (gauges / f"{victim}.csv").read_text().splitlines()
    head, first = lines[0], lines[1].split(",")
    first[1] = "-1.0"
    (gauges / f"{victim}.csv").write_text("\n".join([head, ",".join(first)] + lines[2:]) + "\n")

    out = tmp_path / "qc"
    assert run_cli("qc", "--edges", basin8_dir / "edges.csv",
                   "--gauges", gauges, "--out", out) == 0
    reports = {r["station"]: r for r in json.loads((out / "qc_report.json").read_text())}
    assert reports[victim]["negative_count"] == 1
    assert not reports[victim]["passed"]
    filtered = rd.read_edge_csv(out / "network_filtered.csv")
    expected = rd.bypass_remove(net, victim)
    assert filtered.nodes == expected.nodes
    assert filtered.edges == expected.edges


def test_qc_empty_gauge_dir_exits_2(basin8_dir, tmp_path, capsys):
    empty = tmp_path / "nogauges"
    empty.mkdir()
    code = run_cli("qc", "--edges", basin8_dir / "edges.csv",
                   "--gauges", empty, "--out", tmp_path / "qc")
    assert code == 2
    assert "no stations found" in capsys.readouterr().err


def test_qc_malformed_gauge_row_exits_2(basin8_dir, tmp_path, capsys):
    gauges = tmp_path / "gauges"
    gauges.mkdir()
    bad = gauges / "3.csv"
    bad.write_text("timestamp,qobs\n2000-01-01T00:00:00Z,not-a-number\n")
    code = run_cli("qc", "--edges", basin8_dir / "edges.csv",
                   "--gauges", gauges, "--out", tmp_path / "qc")
    assert code == 2
    assert "3.csv:2" in capsys.readouterr().err


def test_qc_honors_config_column_map(basin8_dir, tmp_path):
    gauges = tmp_path / "gauges"
    gauges.mkdir()
    original = rd.read_gauge_csv(basin8_dir / "gauges" / "0.csv")
    with (gauges / "0.csv").open("w") as fh:
        fh.write("when,flow\n")
        for t, q in zip(original.timestamps, original.discharge):
            fh.write(f"{t}Z,{float(q)!r}\n")
    config = tmp_path / "config.ini"
    config.write_text("[column_map]\ntimestamp = when\ndischarge = flow\n")
    edges = tmp_path / "edges.csv"
    edges.write_text("src,dst,stream_length_km,elevation_diff_m\n")
    # single isolated station: network with that node only
    edges.write_text("src,dst,stream_length_km,elevation_diff_m\n")
    out = tmp_path / "qc"
    code = run_cli("qc", "--edges", edges, "--gauges", gauges,
                   "--config", config, "--out", out)
    assert code == 0
    reports = json.loads((out / "qc_report.json").read_text())
    assert reports[0]["passed"]


# ---------------------------------------------------------------------------
# rewire

def test_rewire_dense_rows_sum_to_one(basin8_dir, tmp_path):
    out = tmp_path / "rw"
    assert run_cli("rewire", "--edges", basin8_dir / "edges.csv",
                   "--kind", "dense", "--sigma", "auto", "--out", out) == 0
    w, order = rd.read_adjacency_csv(out / "adjacency.csv")
    assert np.allclose(w.sum(axis=1), 1.0, atol=1e-12)
    meta = json.loads((out / "adjacency_meta.json").read_text())
    assert meta["kind"] == "dense"
    assert meta["n"] == 8
    assert meta["nnz"] == int(np.count_nonzero(w))
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["parameters"]["distance_path"] == "tree"


def test_rewire_bypassed_network_records_dijkstra_path(tmp_path):
    edges = tmp_path / "edges.csv"
    edges.write_text("src,dst,stream_length_km,elevation_diff_m\n"
                     "0,1,1.5,0\n3,1,2.0,0\n1,2,2.25,0\n0,2,3.0,0\n")
    out = tmp_path / "rw"
    assert run_cli("rewire", "--edges", edges, "--out", out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["parameters"]["distance_path"] == "dijkstra"


def test_rewire_isolated_empty_coordinate_list(basin8_dir, tmp_path):
    out = tmp_path / "rw"
    assert run_cli("rewire", "--edges", basin8_dir / "edges.csv",
                   "--kind", "isolated", "--out", out) == 0
    lines = (out / "adjacency.csv").read_text().strip().splitlines()
    assert lines == ["src,dst,weight"]
    meta = json.loads((out / "adjacency_meta.json").read_text())
    assert meta["nnz"] == 0
    assert meta["sigma"] is None


def test_rewire_outputs_byte_identical_across_runs(basin8_dir, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert run_cli("rewire", "--edges", basin8_dir / "edges.csv",
                       "--kind", "dense", "--sigma", "auto", "--out", out) == 0
    assert (out_a / "adjacency.csv").read_bytes() == (out_b / "adjacency.csv").read_bytes()
    assert (out_a / "adjacency_meta.json").read_bytes() == (out_b / "adjacency_meta.json").read_bytes()


def test_rewire_degenerate_sigma_exits_3(tmp_path, capsys):
    edges = tmp_path / "edges.csv"
    edges.write_text("src,dst,stream_length_km,elevation_diff_m\n0,1,2.0,1.0\n")
    code = run_cli("rewire", "--edges", edges, "--kind", "dense",
                   "--sigma", "auto", "--out", tmp_path / "rw")
    assert code == 3  # a single pair has zero distance spread


def test_rewire_missing_edges_file_exits_2(tmp_path):
    assert run_cli("rewire", "--edges", tmp_path / "nope.csv",
                   "--out", tmp_path / "rw") == 2


# ---------------------------------------------------------------------------
# resist

def test_resist_two_node_fixture(tmp_path):
    adj = tmp_path / "pair.csv"
    adj.write_text("src,dst,weight\n0,1,1.0\n1,0,1.0\n")
    out = tmp_path / "rs"
    assert run_cli("resist", "--adjacency", adj, "--out", out) == 0
    payload = json.loads((out / "resistance.json").read_text())
    assert payload["mean"] == pytest.approx(1.0, abs=1e-9)
    assert payload["n"] == 2
    hist = (out / "resistance_hist.csv").read_text().splitlines()
    assert hist[0] == "bin_edge,count"
    assert len(hist) == 51


def test_resist_dense_lower_than_topology(basin8_dir, tmp_path):
    means = {}
    for kind in ("dense", "topology"):
        rw_dir = tmp_path / f"rw_{kind}"
        assert run_cli("rewire", "--edges", basin8_dir / "edges.csv",
                       "--kind", kind, "--sigma", "auto", "--out", rw_dir) == 0
        rs_dir = tmp_path / f"rs_{kind}"
        assert run_cli("resist", "--adjacency", rw_dir / "adjacency.csv",
                       "--mode", "symmetric", "--out", rs_dir) == 0
        means[kind] = json.loads((rs_dir / "resistance.json").read_text())["mean"]
    assert means["dense"] < means["topology"]


def test_resist_disconnected_reports_excluded_pairs(tmp_path):
    adj = tmp_path / "two_parts.csv"
    adj.write_text("src,dst,weight\n0,1,1.0\n1,0,1.0\n2,3,1.0\n3,2,1.0\n")
    out = tmp_path / "rs"
    assert run_cli("resist", "--adjacency", adj, "--out", out) == 0
    payload = json.loads((out / "resistance.json").read_text())
    assert payload["excluded_pairs"] == 5  # 6 total pairs, 1 inside the kept component


def test_resist_random_walk_mode(basin8_dir, tmp_path):
    rw_dir = tmp_path / "rw"
    assert run_cli("rewire", "--edges", basin8_dir / "edges.csv",
                   "--kind", "dense", "--out", rw_dir) == 0
    out = tmp_path / "rs"
    assert run_cli("resist", "--adjacency", rw_dir / "adjacency.csv",
                   "--mode", "random-walk", "--out", out) == 0
    payload = json.loads((out / "resistance.json").read_text())
    assert payload["mode"] == "random-walk"
    assert np.isfinite(payload["mean"])


# ---------------------------------------------------------------------------
# train

def test_train_smoke_run(basin8_dir, tmp_path):
    out = tmp_path / "tr"
    started = time.perf_counter()
    code = run_cli("train", "--edges", basin8_dir / "edges.csv",
                   "--gauges", basin8_dir / "gauges",
                   "--kind", "dense", "--history", "12", "--horizon", "6",
                   "--epochs", "5", "--latent", "8", "--seed", "7", "--out", out)
    elapsed = time.perf_counter() - started
    assert code == 0
    assert elapsed < 60
    rows = read_metrics(out / "metrics.csv")
    assert [r["horizon"] for r in rows] == [str(h) for h in range(1, 7)]
    assert all(r["adjacency_kind"] == "dense" and r["seed"] == "7" for r in rows)
    assert all(np.isfinite(float(r["nse"])) for r in rows)
    model = rd.load_model(out / "checkpoint.json")
    assert model.task.beta_horizon == 6
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 7
    assert manifest["parameters"]["epochs"] == 5
    assert manifest["input_paths"] == [str(basin8_dir / "edges.csv"),
                                       str(basin8_dir / "gauges")]
    assert manifest["parameters"]["distance_path"] == "tree"


@pytest.mark.parametrize("flag, value", [("--train-frac", "0"), ("--train-frac", "1.5"),
                                         ("--stride", "0")])
def test_train_bad_split_argument_exits_2_naming_it(basin8_dir, tmp_path, capsys,
                                                    flag, value):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli("train", "--edges", basin8_dir / "edges.csv",
                       "--gauges", basin8_dir / "gauges", "--history", "12",
                       "--horizon", "4", "--epochs", "1", flag, value,
                       "--out", tmp_path / "tr")
    assert code == 2
    assert flag in capsys.readouterr().err
    assert caught == []


def test_train_is_seed_deterministic(basin8_dir, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run_cli("train", "--edges", basin8_dir / "edges.csv",
                       "--gauges", basin8_dir / "gauges",
                       "--history", "12", "--horizon", "4", "--epochs", "3",
                       "--latent", "8", "--seed", "7", "--out", out) == 0
        outs.append((out / "metrics.csv").read_bytes())
    assert outs[0] == outs[1]


def test_train_missing_adjacency_exits_2(basin8_dir, tmp_path):
    code = run_cli("train", "--edges", basin8_dir / "edges.csv",
                   "--gauges", basin8_dir / "gauges",
                   "--adjacency", tmp_path / "missing.csv",
                   "--history", "12", "--horizon", "4", "--epochs", "1",
                   "--out", tmp_path / "tr")
    assert code == 2


def test_train_accepts_prebuilt_adjacency(basin8_dir, tmp_path):
    rw_dir = tmp_path / "rw"
    assert run_cli("rewire", "--edges", basin8_dir / "edges.csv",
                   "--kind", "dense", "--out", rw_dir) == 0
    out = tmp_path / "tr"
    assert run_cli("train", "--edges", basin8_dir / "edges.csv",
                   "--gauges", basin8_dir / "gauges",
                   "--adjacency", rw_dir / "adjacency.csv",
                   "--history", "12", "--horizon", "4", "--epochs", "2",
                   "--latent", "8", "--out", out) == 0
    assert (out / "metrics.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["parameters"]["distance_path"] is None


def test_commands_write_only_inside_out_dir(basin8_dir, tmp_path, monkeypatch):
    before = snapshot(basin8_dir)
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "only_here"
    assert run_cli("rewire", "--edges", basin8_dir / "edges.csv",
                   "--kind", "dense", "--out", out) == 0
    assert snapshot(basin8_dir) == before
    stray = [p for p in tmp_path.iterdir() if p != out]
    assert stray == []
