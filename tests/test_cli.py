import csv
import json
import os
import shutil
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import riverdense as rd
from riverdense.adjacency import _file_digest
from riverdense.cli import main

from util import traced_peak


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


def strict_json(path):
    """The JSON in ``path``, refusing NaN and ±Infinity, which JSON does not have."""
    def refuse(constant):
        raise ValueError(f"{path} holds {constant}")
    return json.loads(Path(path).read_text(encoding="utf-8"), parse_constant=refuse)


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
    assert run_cli("train", "--edges", tmp_path / "e.csv", "--gauges", tmp_path,
                   "--optimizer", "gd", "--out", tmp_path / "tr") == 64


def test_no_command_exits_64(capsys):
    assert run_cli() == 64


@pytest.mark.parametrize("case", ["qc", "rewire", "resist", "train", "train --adjacency"])
def test_every_command_manifest_lists_its_inputs_and_times_the_run(basin8_dir, tmp_path,
                                                                   case):
    edges, gauges = basin8_dir / "edges.csv", basin8_dir / "gauges"
    adjacency = tmp_path / "rw" / "adjacency.csv"
    if case in ("resist", "train --adjacency"):
        assert run_cli("rewire", "--edges", edges, "--out", adjacency.parent) == 0
    train = ["train", "--edges", edges, "--gauges", gauges, "--history", "12",
             "--horizon", "4", "--epochs", "1", "--latent", "4"]
    argv, inputs = {
        "qc": (["qc", "--edges", edges, "--gauges", gauges], [edges, gauges]),
        "rewire": (["rewire", "--edges", edges], [edges]),
        "resist": (["resist", "--adjacency", adjacency], [adjacency]),
        "train": (train, [edges, gauges]),
        "train --adjacency": (train + ["--adjacency", adjacency], [edges, gauges, adjacency]),
    }[case]
    out = tmp_path / "out"
    started = time.perf_counter()
    assert run_cli(*argv, "--out", out) == 0
    elapsed = time.perf_counter() - started
    manifest = strict_json(out / "manifest.json")
    assert list(manifest) == ["command", "tool_version", "config_path", "input_paths",
                              "output_dir", "seed", "wall_clock_seconds", "parameters"]
    assert manifest["command"] == argv[0] and manifest["output_dir"] == str(out)
    assert manifest["input_paths"] == [str(p) for p in inputs]
    assert 0 < manifest["wall_clock_seconds"] <= elapsed
    written = [p.stat().st_mtime_ns for p in out.iterdir() if p.name != "manifest.json"]
    assert (out / "manifest.json").stat().st_mtime_ns >= max(written)


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
    assert manifest["parameters"]["rows_ingested"] == 8 * 480
    assert manifest["parameters"]["row_loop_files"] == 0


def test_qc_manifest_counts_files_read_row_by_row(basin8_dir, tmp_path):
    gauges = tmp_path / "gauges"
    shutil.copytree(basin8_dir / "gauges", gauges)
    spaced = gauges / "3.csv"  # a space for the 'T' sends the file to the row loop
    spaced.write_text(spaced.read_text().replace("T", " "))
    clean, out = tmp_path / "clean", tmp_path / "qc"
    for gauge_dir, target in ((basin8_dir / "gauges", clean), (gauges, out)):
        assert run_cli("qc", "--edges", basin8_dir / "edges.csv",
                       "--gauges", gauge_dir, "--out", target) == 0
    assert (out / "qc_report.json").read_bytes() == (clean / "qc_report.json").read_bytes()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["parameters"]["rows_ingested"] == 8 * 480
    assert manifest["parameters"]["row_loop_files"] == 1


def test_qc_holds_a_tally_per_station_not_every_series(tmp_path):
    basin = rd.generate_basin(40, seed=5, hours=2000)
    rd.write_edge_csv(basin.network, tmp_path / "edges.csv")
    files = rd.basin_to_gauge_csvs(basin, tmp_path / "gauges")
    held = sum(sum(values.nbytes for values in series.channels().values())
               + series.timestamps.nbytes for series in map(rd.read_gauge_csv, files))
    assert held == 40 * 2000 * 24
    code, peak = traced_peak(main, ["qc", "--edges", str(tmp_path / "edges.csv"),
                                    "--gauges", str(tmp_path / "gauges"),
                                    "--out", str(tmp_path / "qc")])
    assert code == 0
    # one file's parse at a time: 0.23 MB traced, where holding every series took 2.2 MB
    assert peak < held / 4


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


def test_qc_nonfinite_discharge_counts_as_missing_and_is_bypassed(basin8_dir, tmp_path):
    gauges = tmp_path / "gauges"
    shutil.copytree(basin8_dir / "gauges", gauges)
    net = rd.read_edge_csv(basin8_dir / "edges.csv")
    victim = next(s for s in net.nodes if net.out_edges(s) and net.in_edges(s))
    lines = (gauges / f"{victim}.csv").read_text().splitlines()
    for at, value in ((3, "nan"), (7, "inf")):
        row = lines[at].split(",")
        row[1] = value
        lines[at] = ",".join(row)
    (gauges / f"{victim}.csv").write_text("\n".join(lines) + "\n")

    out = tmp_path / "qc"
    assert run_cli("qc", "--edges", basin8_dir / "edges.csv",
                   "--gauges", gauges, "--out", out) == 0
    reports = {r["station"]: r for r in json.loads((out / "qc_report.json").read_text())}
    assert reports[victim] == {"station": victim, "negative_count": 0, "missing_hours": 2,
                               "passed": False}
    filtered = rd.read_edge_csv(out / "network_filtered.csv")
    expected = rd.bypass_remove(net, victim)
    assert (filtered.nodes, filtered.edges) == (expected.nodes, expected.edges)


def test_qc_bypasses_a_nonfinite_rain_reading_and_train_runs_on_what_it_kept(basin8_dir,
                                                                             tmp_path):
    gauges = tmp_path / "gauges"
    shutil.copytree(basin8_dir / "gauges", gauges)
    net = rd.read_edge_csv(basin8_dir / "edges.csv")
    victim = next(s for s in net.nodes if net.out_edges(s) and net.in_edges(s))
    lines = (gauges / f"{victim}.csv").read_text().splitlines()
    assert lines[0] == "timestamp,qobs,rain"
    lines[4] = ",".join(lines[4].split(",")[:2] + ["nan"])
    (gauges / f"{victim}.csv").write_text("\n".join(lines) + "\n")

    qc = tmp_path / "qc"
    assert run_cli("qc", "--edges", basin8_dir / "edges.csv", "--gauges", gauges,
                   "--out", qc) == 0
    reports = {r["station"]: r for r in json.loads((qc / "qc_report.json").read_text())}
    assert reports[victim] == {"station": victim, "negative_count": 0, "missing_hours": 1,
                               "passed": False}
    filtered = rd.read_edge_csv(qc / "network_filtered.csv")
    assert victim not in filtered.nodes
    assert run_cli("train", "--edges", qc / "network_filtered.csv", "--gauges", gauges,
                   "--history", "12", "--horizon", "4", "--epochs", "1",
                   "--out", tmp_path / "tr") == 0


def test_qc_scores_missing_and_extra_gauges(basin8_dir, tmp_path):
    gauges = tmp_path / "gauges"
    shutil.copytree(basin8_dir / "gauges", gauges)
    net = rd.read_edge_csv(basin8_dir / "edges.csv")
    absent = next(s for s in net.nodes if net.out_edges(s) and net.in_edges(s))
    hours = len(rd.read_gauge_csv(gauges / f"{absent}.csv"))
    (gauges / f"{absent}.csv").unlink()
    extra = max(net.nodes) + 100
    shutil.copy(gauges / f"{net.nodes[0]}.csv", gauges / f"{extra}.csv")

    out = tmp_path / "qc"
    assert run_cli("qc", "--edges", basin8_dir / "edges.csv",
                   "--gauges", gauges, "--out", out) == 0
    reports = json.loads((out / "qc_report.json").read_text())
    assert [r["station"] for r in reports] == sorted(set(net.nodes) | {extra})
    by_station = {r["station"]: r for r in reports}
    assert by_station[absent] == {"station": absent, "negative_count": 0,
                                  "missing_hours": hours, "passed": False}
    assert by_station[extra]["passed"]
    filtered = rd.read_edge_csv(out / "network_filtered.csv")
    expected = rd.bypass_remove(net, absent)
    assert filtered.nodes == expected.nodes
    assert filtered.edges == expected.edges
    assert extra not in filtered
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["parameters"]["stations_in"] == len(net.nodes) + 1
    assert manifest["parameters"]["stations_kept"] == len(net.nodes) - 1


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


def test_qc_gauge_header_without_discharge_column_exits_2_at_line_1(basin8_dir, tmp_path,
                                                                     capsys):
    gauges = tmp_path / "gauges"
    shutil.copytree(basin8_dir / "gauges", gauges)
    bad = gauges / "3.csv"
    bad.write_text(bad.read_text().replace("qobs", "flow", 1))
    out = tmp_path / "qc"
    assert run_cli("qc", "--edges", basin8_dir / "edges.csv",
                   "--gauges", gauges, "--out", out) == 2
    assert f"{bad}:1: missing column 'qobs'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["qc", "train"])
def test_duplicate_station_files_exit_2_naming_both(basin8_dir, tmp_path, capsys, command):
    gauges = tmp_path / "gauges"
    shutil.copytree(basin8_dir / "gauges", gauges)
    shutil.copy(gauges / "1.csv", gauges / "01.csv")  # the stem 01 is station 1 too
    code = run_cli(command, "--edges", basin8_dir / "edges.csv",
                   "--gauges", gauges, "--out", tmp_path / "out")
    assert code == 2
    err = capsys.readouterr().err
    assert "01.csv" in err and f"{gauges / '1.csv'}" in err and "station 1" in err


def test_qc_header_only_gauges_without_period_exits_2_naming_flags(basin8_dir, tmp_path,
                                                                   capsys):
    gauges = tmp_path / "gauges"
    gauges.mkdir()
    for src in (basin8_dir / "gauges").glob("*.csv"):
        (gauges / src.name).write_text("timestamp,qobs\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli("qc", "--edges", basin8_dir / "edges.csv",
                       "--gauges", gauges, "--out", tmp_path / "qc")
    assert code == 2
    err = capsys.readouterr().err
    assert "--period-start" in err and "[period]" not in err
    assert caught == []


@pytest.mark.parametrize("flow", ["flow", "flow%"])  # a bare % is taken literally
def test_qc_honors_config_column_map(basin8_dir, tmp_path, flow):
    gauges = tmp_path / "gauges"
    gauges.mkdir()
    original = rd.read_gauge_csv(basin8_dir / "gauges" / "0.csv")
    with (gauges / "0.csv").open("w") as fh:
        fh.write(f"when,{flow}\n")
        for t, q in zip(original.timestamps, original.discharge):
            fh.write(f"{t}Z,{float(q)!r}\n")
    config = tmp_path / "config.ini"
    config.write_text(f"[column_map]\ntimestamp = when\ndischarge = {flow}\n")
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


@pytest.mark.parametrize("command", ["qc", "train"])
@pytest.mark.parametrize("text, line", [
    ("timestamp = when\n", 1),
    ("[column_map]\ndischarge = flow\ndischarge = q\n", 3),
], ids=["no-section-header", "repeated-option"])
def test_malformed_config_exits_2_naming_file_and_line(basin8_dir, tmp_path, capsys,
                                                       command, text, line):
    config = tmp_path / "bad.ini"
    config.write_text(text)
    out = tmp_path / "out"
    code = run_cli(command, "--edges", basin8_dir / "edges.csv",
                   "--gauges", basin8_dir / "gauges", "--config", config, "--out", out)
    assert code == 2
    assert f"{config}:{line}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["qc", "train"])
@pytest.mark.parametrize("text, named", [
    ("[colum_map]\ndischarge = flow\n", "unknown section [colum_map]"),
    ("[column_map]\nflow = q\n", "unknown option 'flow' in [column_map]"),
    ("[DEFAULT]\nstart = 2000-01-01T00:00:00Z\n", "unknown section [DEFAULT]"),
    ("[period]\nstart = 2000-01-01T00:00:00Z\n", "unknown section [period], expected "
                                                  "[column_map]"),
    (None, "is not a file"),
], ids=["section", "option", "default-section", "period-section", "directory"])
def test_unusable_config_exits_2_naming_it(basin8_dir, tmp_path, capsys, command, text,
                                           named):
    config = tmp_path / "config.ini"
    if text is None:
        config.mkdir()
    else:
        config.write_text(text)
    out = tmp_path / "out"
    code = run_cli(command, "--edges", basin8_dir / "edges.csv",
                   "--gauges", basin8_dir / "gauges", "--config", config, "--out", out)
    assert code == 2
    err = capsys.readouterr().err
    assert f"config file {config}" in err and named in err
    assert not out.exists()


@pytest.mark.parametrize("flags, named", [
    (["--period-start", "50%"], "--period-start: Invalid isoformat string: '50%'"),
    (["--period-end", ""], "--period-end: Invalid isoformat string: ''"),
    (["--period-start", "2000-01-01T00:00:00Z", "--period-end", "2000-01-21T00:00:00+02:00"],
     "--period-end: timestamp '2000-01-21T00:00:00+02:00' is not UTC"),
    (["--period-start", "2000-01-01T00:00:00.5Z"],
     "--period-start: timestamp '2000-01-01T00:00:00.5Z' has a fraction of a second"),
], ids=["flag-unparsable", "flag-empty", "flag-offset", "flag-fraction"])
def test_qc_bad_period_value_exits_2_naming_its_source(basin8_dir, tmp_path, capsys,
                                                       flags, named):
    out = tmp_path / "out"
    code = run_cli("qc", "--edges", basin8_dir / "edges.csv", "--gauges", basin8_dir / "gauges",
                   *flags, "--out", out)
    assert code == 2
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("flags, named", [
    (["--period-start", "2000-01-10T00:00:00Z", "--period-end", "2000-01-01T00:00:00Z"],
     "start 2000-01-10T00:00:00 (--period-start) must precede "
     "its end 2000-01-01T00:00:00 (--period-end)"),
    (["--period-start", "2000-01-05T00:00:00Z", "--period-end", "2000-01-05T00:00:00+00:00"],
     "start 2000-01-05T00:00:00 (--period-start) must precede "
     "its end 2000-01-05T00:00:00 (--period-end)"),
    (["--period-start", "2000-03-10T00:00:00Z"],
     "start 2000-03-10T00:00:00 (--period-start) must precede "
     "its end 2000-01-21T00:00:00 (the gauge data's union span)"),
], ids=["flag-flag-inverted", "flag-flag-equal", "flag-fallback"])
def test_qc_empty_period_exits_2_naming_both_sources(basin8_dir, tmp_path, capsys,
                                                     flags, named):
    out = tmp_path / "out"
    code = run_cli("qc", "--edges", basin8_dir / "edges.csv", "--gauges", basin8_dir / "gauges",
                   *flags, "--out", out)
    assert code == 2
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err
    assert not out.exists()


def test_qc_manifest_records_period_text_as_given(basin8_dir, tmp_path):
    out, union = tmp_path / "qc", tmp_path / "union"
    assert run_cli("qc", "--edges", basin8_dir / "edges.csv", "--gauges", basin8_dir / "gauges",
                   "--period-start", "2000-01-01T00:00:00Z",
                   "--period-end", "2000-01-21T00:00:00+00:00", "--out", out) == 0
    assert run_cli("qc", "--edges", basin8_dir / "edges.csv", "--gauges", basin8_dir / "gauges",
                   "--out", union) == 0
    params = json.loads((out / "manifest.json").read_text())["parameters"]
    assert (params["period_start"], params["period_end"]) == ("2000-01-01T00:00:00Z",
                                                              "2000-01-21T00:00:00+00:00")
    union_params = json.loads((union / "manifest.json").read_text())["parameters"]
    assert (union_params["period_start"], union_params["period_end"]) == (
        "2000-01-01T00:00:00", "2000-01-21T00:00:00")
    assert (out / "qc_report.json").read_bytes() == (union / "qc_report.json").read_bytes()


@pytest.mark.parametrize("flags, stray, period_end", [
    # the slot at 2000-01-15T00:00 lies inside [05:00 on the 1st, 00:30 on the 15th)
    (["--period-start", "2000-01-01T05:00:00Z", "--period-end", "2000-01-15T00:30:00"], None,
     "2000-01-15T00:30:00"),
    # a stray reading at 23:30, after every station's last hour; no slot lies past it
    ([], "2000-01-20T23:30:00Z,0.4,0.0\r\n", "2000-01-21T00:00:00"),
], ids=["flag-end", "union-span-end"])
def test_qc_period_end_off_the_hour_grid_adds_no_empty_slot(basin8_dir, tmp_path, flags,
                                                            stray, period_end):
    gauges, out = tmp_path / "gauges", tmp_path / "qc"
    shutil.copytree(basin8_dir / "gauges", gauges)
    if stray:
        with (gauges / "3.csv").open("a", newline="") as fh:
            fh.write(stray)
    assert run_cli("qc", "--edges", basin8_dir / "edges.csv", "--gauges", gauges,
                   *flags, "--out", out) == 0
    params = json.loads((out / "manifest.json").read_text())["parameters"]
    assert params["period_end"] == period_end
    reports = json.loads((out / "qc_report.json").read_text())
    assert len(reports) == 8
    assert all(r["missing_hours"] == 0 and r["passed"] for r in reports)


@pytest.mark.parametrize("command, missing",[("qc", "--edges"), ("qc", "--gauges"),
                                              ("rewire", "--edges"), ("train", "--edges"),
                                              ("train", "--gauges")])
def test_missing_input_exits_2_before_out_is_created(basin8_dir, tmp_path, command, missing):
    inputs = {"--edges": basin8_dir / "edges.csv", "--gauges": basin8_dir / "gauges"}
    inputs[missing] = tmp_path / ("missing.csv" if missing == "--edges" else "missing")
    if command == "rewire":
        del inputs["--gauges"]
    out = tmp_path / "out"
    argv = [part for flag, path in inputs.items() for part in (flag, path)]
    assert run_cli(command, *argv, "--out", out) == 2
    assert not out.exists()


@pytest.mark.parametrize("case", ["qc --edges", "qc --gauges/99.csv", "resist --adjacency",
                                  "resist --meta", "train --adjacency"])
def test_a_directory_given_as_an_input_file_exits_2_naming_it(basin8_dir, tmp_path, capsys,
                                                              case):
    edges, gauges = basin8_dir / "edges.csv", basin8_dir / "gauges"
    folder = tmp_path / "folder.csv"
    folder.mkdir()
    adjacency = tmp_path / "adjacency.csv"
    adjacency.write_text("src,dst,weight\n0,1,1.0\n1,0,1.0\n")
    named = folder
    if case == "qc --gauges/99.csv":
        shutil.copytree(gauges, tmp_path / "gauges")
        gauges, named = tmp_path / "gauges", tmp_path / "gauges" / "99.csv"
        named.mkdir()
    argv = {"qc --edges": ["qc", "--edges", folder, "--gauges", gauges],
            "qc --gauges/99.csv": ["qc", "--edges", edges, "--gauges", gauges],
            "resist --adjacency": ["resist", "--adjacency", folder],
            "resist --meta": ["resist", "--adjacency", adjacency, "--meta", folder],
            "train --adjacency": ["train", "--edges", edges, "--gauges", gauges,
                                  "--adjacency", folder, "--epochs", "1"]}[case]
    out = tmp_path / "out"
    assert run_cli(*argv, "--out", out) == 2
    err = capsys.readouterr().err
    assert "input error" in err and str(named) in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("case", ["train --adjacency", "resist --adjacency", "resist --meta"])
def test_an_empty_path_flag_exits_2_naming_it(basin8_dir, tmp_path, capsys, case):
    rw = tmp_path / "rw"
    assert run_cli("rewire", "--edges", basin8_dir / "edges.csv", "--out", rw) == 0
    argv = {"train --adjacency": ["train", "--edges", basin8_dir / "edges.csv",
                                  "--gauges", basin8_dir / "gauges", "--adjacency", "",
                                  "--epochs", "1"],
            "resist --adjacency": ["resist", "--adjacency", ""],
            # the sibling meta beside adjacency.csv must not stand in for it
            "resist --meta": ["resist", "--adjacency", rw / "adjacency.csv",
                              "--meta", ""]}[case]
    out = tmp_path / "out"
    assert run_cli(*argv, "--out", out) == 2
    named = "metadata" if case == "resist --meta" else "adjacency"
    assert f"{named} file . does not exist or is not a file" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, flag", [("qc", "--gauges"), ("train", "--gauges"),
                                           ("qc", "--out"), ("rewire", "--out"),
                                           ("resist", "--out"), ("train", "--out")])
def test_an_empty_gauges_or_out_flag_exits_2_naming_it(basin8_dir, tmp_path, capsys,
                                                      monkeypatch, command, flag):
    """An empty path is the working directory; here that holds gauge files."""
    rw, cwd = tmp_path / "rw", tmp_path / "cwd"
    assert run_cli("rewire", "--edges", basin8_dir / "edges.csv", "--out", rw) == 0
    shutil.copytree(basin8_dir / "gauges", cwd)
    monkeypatch.chdir(cwd)
    before = snapshot(cwd)
    args = {"--edges": basin8_dir / "edges.csv", "--gauges": basin8_dir / "gauges",
            "--adjacency": rw / "adjacency.csv", "--out": tmp_path / "out"}
    args[flag] = ""
    inputs = {"qc": ["--edges", "--gauges"], "rewire": ["--edges"],
              "resist": ["--adjacency"], "train": ["--edges", "--gauges"]}[command]
    argv = [part for name in inputs + ["--out"] for part in (name, args[name])]
    assert run_cli(command, *argv, *(["--epochs", "1"] if command == "train" else [])) == 2
    assert f"input error: {flag} is an empty path" in capsys.readouterr().err
    assert snapshot(cwd) == before and not (tmp_path / "out").exists()


def test_a_file_given_as_the_gauge_directory_exits_2_naming_it(basin8_dir, tmp_path, capsys):
    edges = basin8_dir / "edges.csv"
    assert run_cli("qc", "--edges", edges, "--gauges", edges, "--out", tmp_path / "qc") == 2
    assert (f"input error: gauge directory {edges} does not exist or is not a directory"
            in capsys.readouterr().err)
    assert not (tmp_path / "qc").exists()


@pytest.mark.parametrize("command", [f"rewire --kind {kind}" for kind in rd.ADJACENCY_KINDS]
                         + ["train"])
def test_a_header_only_edge_file_exits_2_naming_it(basin8_dir, tmp_path, capsys, command):
    """qc keeps a network without stations; rewire and train have nothing to work on."""
    edges = tmp_path / "edges.csv"
    edges.write_text("src,dst,stream_length_km,elevation_diff_m\n")
    out = tmp_path / "out"
    extra = ["--gauges", basin8_dir / "gauges", "--epochs", "1"] if command == "train" else []
    assert run_cli(*command.split(), "--edges", edges, *extra, "--out", out) == 2
    err = capsys.readouterr().err
    assert f"input error: edge file {edges} has no edges, so no stations" in err
    assert "Traceback" not in err and not out.exists()


# ---------------------------------------------------------------------------
# rewire

def test_rewire_dense_rows_sum_to_one(basin8_dir, tmp_path):
    out = tmp_path / "rw"
    assert run_cli("rewire", "--edges", basin8_dir / "edges.csv",
                   "--kind", "dense", "--sigma", "auto", "--out", out) == 0
    w, order, _ = rd.read_adjacency_csv(out / "adjacency.csv")
    assert np.allclose(w.sum(axis=1), 1.0, atol=1e-12)
    meta = json.loads((out / "adjacency_meta.json").read_text())
    assert meta["kind"] == "dense"
    assert meta["n"] == 8
    assert meta["nnz"] == int(np.count_nonzero(w))


def test_rewire_bypassed_network_writes_its_adjacency(tmp_path):
    edges = tmp_path / "edges.csv"
    edges.write_text("src,dst,stream_length_km,elevation_diff_m\n"
                     "0,1,1.5,0\n3,1,2.0,0\n1,2,2.25,0\n0,2,3.0,0\n")
    out = tmp_path / "rw"
    assert run_cli("rewire", "--edges", edges, "--out", out) == 0
    net = rd.read_edge_csv(edges)
    expected = rd.DistanceMatrix(n=4, nodes=net.nodes, d=np.array([[0.0, 1.5, 3.0, 3.5],
                                                                   [1.5, 0.0, 2.25, 2.0],
                                                                   [3.0, 2.25, 0.0, 4.25],
                                                                   [3.5, 2.0, 4.25, 0.0]]))
    config = rd.RewireConfig(sigma=rd.resolve_sigma(expected, "auto"), kind="dense")
    w, _, _ = rd.read_adjacency_csv(out / "adjacency.csv")
    assert np.array_equal(w, rd.build_adjacency(net, expected, config).w)


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


@pytest.mark.parametrize("kind", rd.ADJACENCY_KINDS)
def test_rewire_meta_sigma_is_the_adjacency_sigma(basin8_dir, tmp_path, kind):
    out = tmp_path / "rw"
    assert run_cli("rewire", "--edges", basin8_dir / "edges.csv", "--kind", kind,
                   "--out", out) == 0
    net = rd.read_edge_csv(basin8_dir / "edges.csv")
    adj = rd.build_adjacency(net, rd.topological_distances(net), rd.RewireConfig(kind=kind))
    meta = json.loads((out / "adjacency_meta.json").read_text())
    manifest = json.loads((out / "manifest.json").read_text())
    assert meta["sigma"] == adj.sigma == manifest["parameters"]["sigma_resolved"]
    assert (adj.sigma is None) == (kind == "isolated")
    with pytest.raises(TypeError):
        rd.write_adjacency_csv(adj, tmp_path / "again.csv", net.nodes, sigma=adj.sigma)
    assert not (tmp_path / "again.csv").exists()


@pytest.mark.parametrize("command", ["rewire", "train"])
def test_topology_rows_that_underflow_exit_3(basin8_dir, tmp_path, capsys, command):
    # basin8's edges are at least 1 km long: exp(-(1 / 0.01)^2 / 2) is 0.0
    gauges = ("--gauges", basin8_dir / "gauges") if command == "train" else ()
    out = tmp_path / "out"
    assert run_cli(command, "--edges", basin8_dir / "edges.csv", *gauges, "--kind", "topology",
                   "--sigma", "0.01", "--out", out) == 3
    assert "have zero weight before normalization" in capsys.readouterr().err
    assert not out.exists()


def test_rewire_degenerate_sigma_exits_3(tmp_path, capsys):
    edges = tmp_path / "edges.csv"
    edges.write_text("src,dst,stream_length_km,elevation_diff_m\n0,1,2.0,1.0\n")
    code = run_cli("rewire", "--edges", edges, "--kind", "dense",
                   "--sigma", "auto", "--out", tmp_path / "rw")
    assert code == 3  # a single pair has zero distance spread


@pytest.mark.parametrize("kind, code", [("topology", 64), ("isolated", 64),
                                        ("dense", 0), ("learned", 0)])
def test_rewire_prune_is_refused_where_no_kernel_is_pruned(basin8_dir, tmp_path, capsys,
                                                           kind, code):
    out = tmp_path / "rw"
    assert run_cli("rewire", "--edges", basin8_dir / "edges.csv", "--kind", kind,
                   "--prune", "0.01", "--out", out) == code
    assert ("--prune" in capsys.readouterr().err) == (code == 64)
    assert out.exists() == (code == 0)


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


def test_resist_missing_explicit_meta_exits_2(tmp_path, capsys):
    adj = tmp_path / "pair.csv"
    adj.write_text("src,dst,weight\n0,1,1.0\n1,0,1.0\n")
    missing = tmp_path / "missing.json"
    out = tmp_path / "rs"
    assert run_cli("resist", "--adjacency", adj, "--meta", missing, "--out", out) == 2
    assert f"{missing}" in capsys.readouterr().err
    assert not out.exists()
    # without --meta the sibling pair_meta.json stays optional
    assert run_cli("resist", "--adjacency", adj, "--out", out) == 0


def test_resist_header_only_csv_without_meta_exits_2_naming_it(tmp_path, capsys):
    adj = tmp_path / "empty.csv"
    adj.write_text("src,dst,weight\n")
    out = tmp_path / "rs"
    assert run_cli("resist", "--adjacency", adj, "--out", out) == 2
    assert (f"input error: adjacency file {adj} has no entries and no meta lists its "
            "stations") in capsys.readouterr().err
    assert not out.exists()
    w, order, _ = rd.read_adjacency_csv(adj)  # the library still reads it as 0 x 0
    assert w.shape == (0, 0) and order == []


@pytest.mark.parametrize("mode", ["symmetric", "random-walk"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_resist_nonfinite_weight_exits_2_at_its_line(tmp_path, capsys, value, mode):
    adj = tmp_path / "a.csv"
    adj.write_bytes(f"src,dst,weight\r\n1,2,{value}\r\n2,3,1.0\r\n".encode())
    out = tmp_path / "rs"
    assert run_cli("resist", "--adjacency", adj, "--mode", mode, "--out", out) == 2
    assert f"{adj}:2: weight {float(value)!r} of (1,2) is not finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("case", ["edges", "gauge", "config", "adjacency", "adjacency-npy",
                                  "negative-weight", "edges-row-first", "gauge-row-first",
                                  "adjacency-row-first", "adjacency-meta-row-first",
                                  "meta-truncated"])
def test_bad_input_exits_2_naming_file_and_line(basin8_dir, tmp_path, capsys, case):
    bad, line, reason = tmp_path / "bad.csv", 3, "byte 0x93 is not UTF-8"
    # "-row-first": a bad cell on line 3, then byte 0x93 on line 4 or 5, all in one 8 KiB
    row_first = case.endswith("-row-first")
    if row_first:
        reason = "could not convert string to float: 'x'"
    if case.startswith("edges"):
        cells = b"x,0.5\r\n3,4,1.0,0.5\r\n4,5,\x93" if row_first else b"\x93"
        bad.write_bytes(b"src,dst,stream_length_km,elevation_diff_m\r\n1,2,1.0,0.5\r\n"
                        b"2,3," + cells + b",0.5\r\n")
        argv = ["rewire", "--edges", bad]
    elif case.startswith(("gauge", "config")):
        gauges = tmp_path / "gauges"
        shutil.copytree(basin8_dir / "gauges", gauges)
        argv = ["qc", "--edges", basin8_dir / "edges.csv", "--gauges", gauges]
        if case == "config":
            bad, line = tmp_path / "config.ini", 2
            bad.write_bytes(b"[column_map]\ndischarge = fl\x93w\n")
            argv += ["--config", bad]
        else:  # "gauge": past the first 8 KiB the text reader decodes
            bad, line = gauges / "3.csv", 3 if row_first else 400
            rows = bad.read_bytes().splitlines(keepends=True)
            if row_first:
                rows[2] = rows[2].split(b",")[0] + b",x,0.0\r\n"
                rows[3] = b"\x93" + rows[3][1:]
            else:
                rows[line - 1] = b"\x93" + rows[line - 1][1:]
            bad.write_bytes(b"".join(rows))
    elif case == "adjacency-npy":
        bad, line = tmp_path / "adjacency.npy", 1
        np.save(bad, np.eye(2))
        argv = ["resist", "--adjacency", bad]
    elif case == "meta-truncated":  # a multi-byte sequence cut off by the end of the file
        (tmp_path / "bad.csv").write_text("src,dst,weight\n1,2,1.0\n2,1,1.0\n")
        bad, line = tmp_path / "bad_meta.json", 2
        reason = "byte 0xe2 is not UTF-8 (unexpected end of data)"
        bad.write_bytes(b'{"nodes": [1, 2],\n "note": "\xe2\x80')
        argv = ["resist", "--adjacency", tmp_path / "bad.csv"]
    else:
        weight = (b"x\r\n3,4,1.0\r\n4,5,\x93" if row_first
                  else b"\x93" if case == "adjacency" else b"-0.5")
        bad.write_bytes(b"src,dst,weight\r\n1,2,1.0\r\n2,3," + weight + b"\r\n")
        argv = ["resist", "--adjacency", bad]
        if case == "negative-weight":
            reason = "weight -0.5 of (2,3) is not finite and nonnegative"
        if case == "adjacency-meta-row-first":
            (tmp_path / "bad_meta.json").write_text('{"nodes": [1, 2, 3, 4, 5]}')
    out = tmp_path / "out"
    assert run_cli(*argv, "--out", out) == 2
    assert f"{bad}:{line}: {reason}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["qc", "train"])
def test_gauge_column_named_discharge_exits_2_naming_it(basin8_dir, tmp_path, capsys, command):
    # it would replace the mapped qobs column as the discharge channel
    gauges = tmp_path / "gauges"
    gauges.mkdir()
    for src in (basin8_dir / "gauges").glob("*.csv"):
        rows = src.read_text().splitlines()
        (gauges / src.name).write_text("\n".join([rows[0] + ",discharge"]
                                                 + [row + ",7.5" for row in rows[1:]]) + "\n")
    out = tmp_path / "out"
    assert run_cli(command, "--edges", basin8_dir / "edges.csv", "--gauges", gauges,
                   "--out", out) == 2
    err = capsys.readouterr().err
    assert f"{gauges / '0.csv'}:1: column 'discharge' would shadow the discharge channel" in err
    assert "'qobs'" in err
    assert not out.exists()


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


def test_resist_manifest_records_numerics(basin8_dir, tmp_path):
    for kind in ("topology", "dense", "isolated"):
        assert run_cli("rewire", "--edges", basin8_dir / "edges.csv",
                       "--kind", kind, "--out", tmp_path / kind) == 0
    # the river tree's edge set is acyclic, the dense support is not
    expected = {("topology", "symmetric"): (1, "grounded-inverse"),
                ("topology", "random-walk"): (1, "triangular-inverse"),
                ("dense", "symmetric"): (1, "grounded-inverse"),
                ("dense", "random-walk"): (1, "svd"),
                ("isolated", "symmetric"): (8, "grounded-inverse")}
    for (kind, mode), (components, solver) in expected.items():
        out = tmp_path / f"rs_{kind}_{mode}"
        assert run_cli("resist", "--adjacency", tmp_path / kind / "adjacency.csv",
                       "--mode", mode, "--out", out) == 0
        parameters = strict_json(out / "manifest.json")["parameters"]
        report = strict_json(out / "resistance.json")
        # an isolated main component is one station, with no pair to summarize
        assert (parameters["mean"] is None) == (kind == "isolated")
        assert [report[key] is None for key in ("mean", "median", "p95")] == [
            kind == "isolated"] * 3
        numerics = parameters["numerics"]
        assert set(numerics) == {"components", "solver", "pinv_residual"}
        assert numerics["components"] == components
        assert numerics["solver"] == solver
        assert 0.0 <= numerics["pinv_residual"] < 1e-12


@pytest.mark.parametrize("kind", rd.ADJACENCY_KINDS)
def test_rewire_manifest_records_numerics(basin8_dir, tmp_path, kind):
    two_trees = tmp_path / "two_trees.csv"
    two_trees.write_text("src,dst,stream_length_km,elevation_diff_m\n"
                         "0,1,1.5,0\n2,1,2.0,0\n3,4,1.0,0\n")
    # no kernel weight joins stations of different trees; isolated keeps every station apart
    expected = {basin8_dir / "edges.csv": 8 if kind == "isolated" else 1,
                two_trees: 5 if kind == "isolated" else 2}
    for edges, components in expected.items():
        out = tmp_path / edges.stem
        assert run_cli("rewire", "--edges", edges, "--kind", kind, "--out", out) == 0
        numerics = strict_json(out / "manifest.json")["parameters"]["numerics"]
        assert numerics == {"components": components}


@pytest.fixture(scope="module")
def tree200_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("tree200")
    rd.write_edge_csv(rd.random_river_tree(200, np.random.default_rng(3)), root / "edges.csv")
    return root


RESIST_OUTPUTS = ("resistance.json", "resistance_hist.csv")


def _resist(adjacency, out, *extra):
    """Exit code, resist outputs and the manifest's adjacency_source."""
    code = run_cli("resist", "--adjacency", adjacency, *extra, "--out", out)
    if code:
        return code, None, None
    manifest = json.loads((out / "manifest.json").read_text())
    return (code, [(out / name).read_bytes() for name in RESIST_OUTPUTS],
            manifest["parameters"]["adjacency_source"])


@pytest.mark.parametrize("graph", ["basin8", "tree200"])
@pytest.mark.parametrize("kind", ["dense", "learned", "topology"])
def test_resist_outputs_equal_with_and_without_the_sidecar(basin8_dir, tree200_dir, tmp_path,
                                                           graph, kind):
    edges = {"basin8": basin8_dir, "tree200": tree200_dir}[graph] / "edges.csv"
    rw = tmp_path / "rw"
    assert run_cli("rewire", "--edges", edges, "--kind", kind, "--out", rw) == 0
    sidecar = kind != "topology"
    assert (rw / "adjacency.npy").exists() == sidecar
    modes = ("symmetric", "random-walk")
    with_it = {mode: _resist(rw / "adjacency.csv", tmp_path / f"a_{mode}", "--mode", mode)
               for mode in modes}
    (rw / "adjacency.npy").unlink(missing_ok=True)
    for mode in modes:
        without = _resist(rw / "adjacency.csv", tmp_path / f"b_{mode}", "--mode", mode)
        assert with_it[mode][2] == ("sidecar" if sidecar else "csv")
        assert without[2] == "csv"
        assert with_it[mode][:2] == without[:2]


@pytest.mark.parametrize("graph", ["basin8", "tree200"])
@pytest.mark.parametrize("kind", ["topology", "isolated", "dense"])
def test_rewire_writes_a_sidecar_only_where_it_is_smaller(basin8_dir, tree200_dir, tmp_path,
                                                         graph, kind):
    edges = {"basin8": basin8_dir, "tree200": tree200_dir}[graph] / "edges.csv"
    rw = tmp_path / "rw"
    assert run_cli("rewire", "--edges", edges, "--kind", kind, "--out", rw) == 0
    meta = json.loads((rw / "adjacency_meta.json").read_text())
    manifest = json.loads((rw / "manifest.json").read_text())
    files = {p.name for p in rw.iterdir()}
    base = {"adjacency.csv", "adjacency_meta.json", "manifest.json"}
    # the meta's bytes before the sidecar entry are the ones written without it
    plain = {key: meta[key] for key in ("kind", "sigma", "n", "nnz", "nodes")}
    text = (rw / "adjacency_meta.json").read_text()
    if kind == "dense":
        assert files == base | {"adjacency.npy"}
        assert list(meta)[-1] == "sidecar" and manifest["parameters"]["sidecar"] == "adjacency.npy"
        entry = meta["sidecar"]
        assert entry["file"] == "adjacency.npy" and entry["nodes"] == sorted(meta["nodes"])
        assert text.startswith(json.dumps(plain, indent=2)[:-2])
        w = np.load(rw / "adjacency.npy", allow_pickle=False)
        assert w.dtype == np.float64 and w.shape == (meta["n"], meta["n"])
        assert w.size * 8 < (rw / "adjacency.csv").stat().st_size
    else:
        assert files == base
        assert manifest["parameters"]["sidecar"] is None
        assert text == json.dumps(plain, indent=2) + "\n"


def _strip_sidecar(rw: Path, meta: dict, edges: Path) -> None:
    meta.pop("sidecar", None)


def _edit_weight(value: bytes):
    def edit(rw: Path, meta: dict, edges: Path) -> None:
        lines = (rw / "adjacency.csv").read_bytes().split(b"\r\n")
        src, dst, _ = lines[1].split(b",")
        lines[1] = b",".join([src, dst, value])
        (rw / "adjacency.csv").write_bytes(b"\r\n".join(lines))
    return edit


def _save_sidecar(make, record: bool, allow_pickle: bool = False, version=None):
    """Replace the .npy with ``make(w)``; with ``record`` its digest is
    recorded too, so only the dtype, shape or header check stands in the way."""
    def edit(rw: Path, meta: dict, edges: Path) -> None:
        npy = rw / "adjacency.npy"
        w = make(np.load(npy))
        with npy.open("wb") as fh:  # np.save's bytes, at any header version
            np.lib.format.write_array(fh, w, version=version, allow_pickle=allow_pickle)
        if record:
            meta["sidecar"]["npy_blake2b"] = _file_digest(npy)
    return edit


def _edit_sidecar(edit_bytes):
    """Replace the .npy's bytes with ``edit_bytes(raw)`` and record their digest."""
    def edit(rw: Path, meta: dict, edges: Path) -> None:
        npy = rw / "adjacency.npy"
        npy.write_bytes(edit_bytes(npy.read_bytes()))
        meta["sidecar"]["npy_blake2b"] = _file_digest(npy)
    return edit


def _truncate(rw: Path, meta: dict, edges: Path) -> None:
    raw = (rw / "adjacency.npy").read_bytes()
    (rw / "adjacency.npy").write_bytes(raw[:len(raw) // 2])


def _stale(rw: Path, meta: dict, edges: Path) -> None:
    """A topology rewire into the dense run's --out leaves its .npy behind."""
    assert run_cli("rewire", "--edges", edges, "--kind", "topology", "--out", rw) == 0
    meta.clear()
    meta.update(json.loads((rw / "adjacency_meta.json").read_text()))
    assert (rw / "adjacency.npy").exists()


SIDECAR_TAMPERS = {
    "csv-weight-edited": _edit_weight(b"0.5"),
    "csv-weight-unparsable": _edit_weight(b"heavy"),
    "npy-replaced": _save_sidecar(np.zeros_like, record=False),
    "npy-truncated": _truncate,
    "npy-deleted": lambda rw, meta, edges: (rw / "adjacency.npy").unlink(),
    "npy-float32": _save_sidecar(lambda w: w.astype(np.float32), record=True),
    "npy-big-endian": _save_sidecar(lambda w: w.astype(">f8"), record=True),
    "npy-shape": _save_sidecar(lambda w: w[:-1, :-1], record=True),
    "npy-flat": _save_sidecar(np.ravel, record=True),
    "npy-fortran-order": _save_sidecar(np.asfortranarray, record=True),
    "npy-trailing-byte": _edit_sidecar(lambda raw: raw + b"\0"),
    "npy-truncated-recorded": _edit_sidecar(lambda raw: raw[:-8]),
    "npy-object-dtype": _save_sidecar(lambda w: w.astype(object), record=True,
                                      allow_pickle=True),
    "npy-version-3": _save_sidecar(lambda w: w, record=True, version=(3, 0)),
    "entry-removed": _strip_sidecar,
    "entry-file-renamed": lambda rw, meta, edges: meta["sidecar"].update(file="other.npy"),
    "entry-nodes-changed": lambda rw, meta, edges: meta["sidecar"]["nodes"].reverse(),
    "meta-node-added": lambda rw, meta, edges: meta["nodes"].append(max(meta["nodes"]) + 1),
    "meta-node-dropped": lambda rw, meta, edges: meta["nodes"].pop(0),
    "stale-npy": _stale,
}


@pytest.mark.parametrize("tamper", sorted(SIDECAR_TAMPERS))
def test_resist_parses_the_csv_when_the_sidecar_cannot_be_trusted(basin8_dir, tmp_path,
                                                                   capsys, tamper):
    rw = tmp_path / "rw"
    assert run_cli("rewire", "--edges", basin8_dir / "edges.csv", "--kind", "dense",
                   "--out", rw) == 0
    meta = json.loads((rw / "adjacency_meta.json").read_text())
    SIDECAR_TAMPERS[tamper](rw, meta, basin8_dir / "edges.csv")
    (rw / "adjacency_meta.json").write_text(json.dumps(meta, indent=2) + "\n")
    # the CSV's result: the same CSV and node list with no sidecar entry
    plain = tmp_path / "plain"
    plain.mkdir()
    shutil.copy(rw / "adjacency.csv", plain / "adjacency.csv")
    meta.pop("sidecar", None)
    (plain / "adjacency_meta.json").write_text(json.dumps(meta, indent=2) + "\n")

    code, outputs, source = _resist(rw / "adjacency.csv", tmp_path / "rs")
    err = capsys.readouterr().err
    assert (code, outputs) == _resist(plain / "adjacency.csv", tmp_path / "rs_plain")[:2]
    if code:  # the CSV's own error, at its line
        assert code == 2 and f"{rw / 'adjacency.csv'}:2: " in err
    else:
        assert source == "csv"


@pytest.mark.parametrize("text, named", [
    ("{bad", "Expecting property name"),
    ("[1,2]", "expected an object, got list"),
    ('{"nodes": "abc"}', "key 'nodes' must list"),
    ('{"nodes": [0, 1, "2"]}', "key 'nodes' must list"),
    ('{"nodes": [0, true]}', "key 'nodes' must list"),
    (b"\xff\xfe{}", "byte 0xff is not UTF-8 (invalid start byte)"),
], ids=["not-json", "not-an-object", "nodes-a-string", "node-a-string", "node-a-bool",
        "not-utf8"])
def test_resist_bad_meta_exits_2_naming_the_file(tmp_path, capsys, text, named):
    adj = tmp_path / "pair.csv"
    adj.write_text("src,dst,weight\n0,1,1.0\n1,0,1.0\n")
    meta = tmp_path / "pair_meta.json"
    if isinstance(text, bytes):
        meta.write_bytes(text)
    else:
        meta.write_text(text)
    out = tmp_path / "rs"
    assert run_cli("resist", "--adjacency", adj, "--out", out) == 2
    err = capsys.readouterr().err
    line = ":1" if isinstance(text, bytes) else ""  # a decoding error names its line
    assert f"metadata file {meta}{line}: " in err and named in err
    assert not out.exists()


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
    with open(out / "train_log.csv", newline="") as fh:
        log = list(csv.DictReader(fh))
    assert [r["epoch"] for r in log] == [str(e) for e in range(1, 6)]
    assert set(log[0]) == {"epoch", "lr", "mae", "clipped_batches"}
    assert all(0 <= int(r["clipped_batches"]) and float(r["lr"]) > 0 for r in log)
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
    assert float(log[-1]["mae"]) == manifest["parameters"]["final_train_mae"]
    net = rd.read_edge_csv(basin8_dir / "edges.csv")
    assert manifest["parameters"]["sigma_resolved"] == rd.resolve_sigma(
        rd.topological_distances(net), "auto")
    assert manifest["parameters"]["rows_ingested"] == 8 * 480
    assert manifest["parameters"]["row_loop_files"] == 0


def test_train_manifest_records_numerics(basin8_dir, tmp_path):
    out = tmp_path / "tr"
    assert run_cli("train", "--edges", basin8_dir / "edges.csv", "--gauges",
                   basin8_dir / "gauges", "--history", "12", "--horizon", "4",
                   "--epochs", "3", "--lr", "0.5", "--out", out) == 0
    with open(out / "train_log.csv", newline="") as fh:
        clipped = [int(row["clipped_batches"]) for row in csv.DictReader(fh)]
    numerics = strict_json(out / "manifest.json")["parameters"]["numerics"]
    assert numerics == {"clipped_batches": sum(clipped)}
    assert sum(clipped) > 0  # lr 0.5 makes the gradients outgrow CLIP_NORM


def test_train_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # 16 stations, 145 test windows: scoring runs three BATCH_SIZE chunks, the last ragged
    basin = rd.generate_basin(16, seed=29, hours=1000)
    rd.write_edge_csv(basin.network, tmp_path / "edges.csv")
    rd.basin_to_gauge_csvs(basin, tmp_path / "gauges")
    src = Path(rd.__file__).resolve().parents[1]
    outputs = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [str(src),
                                                           os.environ.get("PYTHONPATH")]))}
        subprocess.run([sys.executable, "-m", "riverdense", "train", "--edges",
                        tmp_path / "edges.csv", "--gauges", tmp_path / "gauges",
                        "--kind", "learned", "--history", "24", "--horizon", "12",
                        "--stride", "2", "--epochs", "2", "--out", out],
                       env=env, check=True, timeout=60)
        outputs[threads] = {name: (out / name).read_bytes()
                            for name in ("metrics.csv", "train_log.csv", "checkpoint.json")}
    assert outputs["1"] == outputs["2"]


def test_train_scores_without_the_raw_series_or_the_batch_buffers(tmp_path):
    basin = rd.generate_basin(16, seed=5, hours=2000)
    rd.write_edge_csv(basin.network, tmp_path / "edges.csv")
    rd.basin_to_gauge_csvs(basin, tmp_path / "gauges")
    code, peak = traced_peak(main, ["train", "--edges", str(tmp_path / "edges.csv"),
                                    "--gauges", str(tmp_path / "gauges"), "--history", "24",
                                    "--horizon", "12", "--stride", "2", "--epochs", "1",
                                    "--out", str(tmp_path / "train")])
    assert code == 0
    # 4.22 MiB traced, in training. A second batch-buffer set for the ragged batch
    # (5.27 MiB) or keeping the stacked series past prepare_dataset (4.70 MiB) exceeds this.
    # Scoring peaks at 1.7 MiB (3.97 MiB in one pass over all 295 test windows), so the
    # forward tests check its chunking, and test_forecast the buffers' release by train
    assert peak < 4.6 * 2**20


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


@pytest.mark.parametrize("flag, value", [("--lr", "nan"), ("--lr", "inf"), ("--lr", "0"),
                                         ("--lr", "-1e-3"), ("--lr", "-1E-3"),
                                         ("--lr", "-.5e1"), ("--latent", "0"),
                                         ("--layers", "0"), ("--epochs", "0")])
def test_train_bad_model_or_optimizer_flag_exits_2_naming_it(basin8_dir, tmp_path, capsys,
                                                              flag, value):
    out = tmp_path / "tr"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli("train", "--edges", basin8_dir / "edges.csv",
                       "--gauges", basin8_dir / "gauges", "--history", "12",
                       "--horizon", "4", "--epochs", "1", flag, value, "--out", out)
    assert code == 2
    assert f"({flag}) must be" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [("--history", "0"), ("--horizon", "0"),
                                         ("--history", "-3")])
def test_train_empty_window_exits_2_naming_the_flag(basin8_dir, tmp_path, capsys, flag, value):
    out = tmp_path / "tr"
    assert run_cli("train", "--edges", basin8_dir / "edges.csv",
                   "--gauges", basin8_dir / "gauges", "--history", "12", "--horizon", "4",
                   "--epochs", "1", flag, value, "--out", out) == 2
    assert f"({flag}) must be at least 1, got {value}" in capsys.readouterr().err
    assert not out.exists()


def test_train_window_longer_than_series_exits_2_naming_flags(basin8_dir, tmp_path, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli("train", "--edges", basin8_dir / "edges.csv",
                       "--gauges", basin8_dir / "gauges", "--history", "470",
                       "--horizon", "24", "--epochs", "1", "--out", tmp_path / "tr")
    assert code == 2
    err = capsys.readouterr().err
    assert "--history" in err and "--horizon" in err and "480" in err
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
    assert manifest["parameters"]["sigma_resolved"] is None


@pytest.mark.parametrize("meta", ["sidecar", "npy-deleted", "meta-deleted", "built"])
def test_train_loads_the_sidecar_its_meta_vouches_for(basin8_dir, tmp_path, meta):
    rw_dir = tmp_path / "rw"
    assert run_cli("rewire", "--edges", basin8_dir / "edges.csv",
                   "--kind", "dense", "--out", rw_dir) == 0
    adjacency = ["--adjacency", rw_dir / "adjacency.csv"] if meta != "built" else []
    if meta == "npy-deleted":
        (rw_dir / "adjacency.npy").unlink()
    elif meta == "meta-deleted":
        (rw_dir / "adjacency_meta.json").unlink()
    outputs = {}
    for run, extra in (("built", []), ("loaded", adjacency)):
        out = tmp_path / run
        assert run_cli("train", "--edges", basin8_dir / "edges.csv",
                       "--gauges", basin8_dir / "gauges", *extra,
                       "--history", "12", "--horizon", "4", "--epochs", "2",
                       "--latent", "8", "--seed", "3", "--out", out) == 0
        outputs[run] = [(out / name).read_bytes()
                        for name in ("metrics.csv", "train_log.csv", "checkpoint.json")]
    # a dense matrix rebuilt in-process is the one the rewire wrote, bit for bit
    assert outputs["loaded"] == outputs["built"]
    manifest = json.loads((tmp_path / "loaded" / "manifest.json").read_text())
    assert manifest["parameters"]["adjacency_source"] == {
        "sidecar": "sidecar", "npy-deleted": "csv", "meta-deleted": "csv", "built": None}[meta]


def test_train_bad_sibling_meta_exits_2_naming_it(basin8_dir, tmp_path, capsys):
    rw_dir = tmp_path / "rw"
    assert run_cli("rewire", "--edges", basin8_dir / "edges.csv",
                   "--kind", "dense", "--out", rw_dir) == 0
    (rw_dir / "adjacency_meta.json").write_text("[1, 2]")
    assert run_cli("train", "--edges", basin8_dir / "edges.csv",
                   "--gauges", basin8_dir / "gauges",
                   "--adjacency", rw_dir / "adjacency.csv", "--history", "12",
                   "--horizon", "4", "--epochs", "1", "--out", tmp_path / "tr") == 2
    assert f"metadata file {rw_dir / 'adjacency_meta.json'}" in capsys.readouterr().err
    assert not (tmp_path / "tr").exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_train_nonfinite_adjacency_weight_exits_2_at_its_line(basin8_dir, tmp_path, capsys,
                                                             value):
    rw_dir = tmp_path / "rw"
    assert run_cli("rewire", "--edges", basin8_dir / "edges.csv",
                   "--kind", "dense", "--out", rw_dir) == 0
    csv_path = rw_dir / "adjacency.csv"
    lines = csv_path.read_bytes().split(b"\r\n")
    row = lines[2].split(b",")
    lines[2] = b",".join(row[:2] + [value.encode()])
    csv_path.write_bytes(b"\r\n".join(lines))  # the sidecar no longer matches the text
    assert run_cli("train", "--edges", basin8_dir / "edges.csv",
                   "--gauges", basin8_dir / "gauges", "--adjacency", csv_path,
                   "--history", "12", "--horizon", "4", "--epochs", "1",
                   "--out", tmp_path / "tr") == 2
    assert f"{csv_path}:3: weight {float(value)!r} of" in capsys.readouterr().err
    assert not (tmp_path / "tr").exists()


@pytest.mark.parametrize("column, channel, value", [("qobs", "discharge", "nan"),
                                                    ("rain", "rain", "nan"),
                                                    ("rain", "rain", "-inf")])
def test_train_nonfinite_reading_exits_2_naming_station_channel_and_hour(
        basin8_dir, tmp_path, capsys, column, channel, value):
    gauges = tmp_path / "gauges"
    shutil.copytree(basin8_dir / "gauges", gauges)
    net = rd.read_edge_csv(basin8_dir / "edges.csv")
    first, later = net.nodes[-1], net.nodes[0]  # later: a lower index at a later hour
    for station, at in ((first, 5), (later, 9)):
        lines = (gauges / f"{station}.csv").read_text().splitlines()
        row = lines[at].split(",")
        row[lines[0].split(",").index(column)] = value
        lines[at] = ",".join(row)
        (gauges / f"{station}.csv").write_text("\n".join(lines) + "\n")
    stamp = (gauges / f"{first}.csv").read_text().splitlines()[5].split(",")[0]
    out = tmp_path / "tr"
    assert run_cli("train", "--edges", basin8_dir / "edges.csv", "--gauges", gauges,
                   "--history", "12", "--horizon", "4", "--epochs", "1", "--out", out) == 2
    assert (f"station {first} channel {channel!r} has a non-finite value at "
            f"{rd.parse_timestamp(stamp)}") in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("header, row, has_extra", [
    ("timestamp,qobs", lambda r: ",".join(r.split(",")[:2]), False),
    ("timestamp,qobs,rain,temp", lambda r: r + ",1.5", True),
], ids=["missing-rain", "extra-temp"])
def test_train_gauge_files_with_different_channels_exit_2_naming_both(
        basin8_dir, tmp_path, capsys, header, row, has_extra):
    gauges = tmp_path / "gauges"
    shutil.copytree(basin8_dir / "gauges", gauges)
    net = rd.read_edge_csv(basin8_dir / "edges.csv")
    first, other = net.nodes[0], net.nodes[3]
    lines = (gauges / f"{other}.csv").read_text().splitlines()
    (gauges / f"{other}.csv").write_text(
        "\n".join([header] + [row(line) for line in lines[1:]]) + "\n")
    out = tmp_path / "tr"
    assert run_cli("train", "--edges", basin8_dir / "edges.csv", "--gauges", gauges,
                   "--history", "12", "--horizon", "4", "--epochs", "1", "--out", out) == 2
    err = capsys.readouterr().err
    if has_extra:
        assert f"station {other} has channel 'temp', station {first} does not" in err
    else:
        assert f"station {first} has channel 'rain', station {other} does not" in err
    assert not out.exists()


def test_train_station_without_gauge_file_exits_2_naming_it(basin8_dir, tmp_path, capsys):
    gauges = tmp_path / "gauges"
    shutil.copytree(basin8_dir / "gauges", gauges)
    station = rd.read_edge_csv(basin8_dir / "edges.csv").nodes[2]
    (gauges / f"{station}.csv").unlink()
    out = tmp_path / "tr"
    assert run_cli("train", "--edges", basin8_dir / "edges.csv", "--gauges", gauges,
                   "--history", "12", "--horizon", "4", "--epochs", "1", "--out", out) == 2
    assert f"no gauge series for stations [{station}]" in capsys.readouterr().err
    assert not out.exists()


def test_train_stations_on_different_hours_exit_2_naming_both(basin8_dir, tmp_path, capsys):
    gauges = tmp_path / "gauges"
    shutil.copytree(basin8_dir / "gauges", gauges)
    first, other = rd.read_edge_csv(basin8_dir / "edges.csv").nodes[:4:3]
    lines = (gauges / f"{other}.csv").read_text().splitlines()
    (gauges / f"{other}.csv").write_text("\n".join(lines[:-1]) + "\n")  # one hour short
    out = tmp_path / "tr"
    assert run_cli("train", "--edges", basin8_dir / "edges.csv", "--gauges", gauges,
                   "--history", "12", "--horizon", "4", "--epochs", "1", "--out", out) == 2
    assert (f"station {other} timestamps differ from station {first}"
            in capsys.readouterr().err)
    assert not out.exists()


def test_train_refuses_a_config_period_section(basin8_dir, tmp_path, capsys):
    config = tmp_path / "config.ini"
    config.write_text("[period]\nstart = 2000-01-05T00:00:00Z\nend = 2000-01-06T00:00:00Z\n")
    out = tmp_path / "tr"
    assert run_cli("train", "--edges", basin8_dir / "edges.csv",
                   "--gauges", basin8_dir / "gauges", "--config", config, "--history", "12",
                   "--horizon", "4", "--epochs", "1", "--out", out) == 2
    assert (f"config file {config}: unknown section [period], expected [column_map]"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("command", ["rewire", "train"])
@pytest.mark.parametrize("value", ["abc", "0", "-1", "nan", "inf", "1e400"])
def test_bad_sigma_exits_2_naming_the_flag(basin8_dir, tmp_path, capsys, command, value):
    out = tmp_path / "out"
    argv = ["--edges", basin8_dir / "edges.csv", "--sigma", value, "--out", out]
    if command == "train":
        argv += ["--gauges", basin8_dir / "gauges", "--history", "12", "--horizon", "4",
                 "--epochs", "1"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(command, *argv) == 2
    assert "sigma (--sigma) must be 'auto' or positive and finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind, cpus, writers", [("dense", 1, 1), ("dense", 2, 2),
                                                 ("dense", 3, 3), ("topology", 3, 1)])
def test_rewire_manifest_records_csv_writers(tmp_path, monkeypatch, kind, cpus, writers):
    rd.write_edge_csv(rd.random_river_tree(300, np.random.default_rng(5)),
                      tmp_path / "edges.csv")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    out = tmp_path / "rw"
    assert run_cli("rewire", "--edges", tmp_path / "edges.csv", "--kind", kind,
                   "--out", out) == 0
    with pytest.raises(ChildProcessError):  # no row writer outlives the command
        os.waitpid(-1, os.WNOHANG)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["parameters"]["csv_writers"] == writers
    files = {"adjacency.csv", "adjacency_meta.json", "manifest.json"}
    if kind == "dense":
        files.add("adjacency.npy")
    assert {p.name for p in out.iterdir()} == files


def test_failed_rewire_exits_3_and_keeps_the_earlier_outputs(tmp_path, monkeypatch, capsys):
    rd.write_edge_csv(rd.random_river_tree(300, np.random.default_rng(5)),
                      tmp_path / "edges.csv")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    out = tmp_path / "rw"
    assert run_cli("rewire", "--edges", tmp_path / "edges.csv", "--kind", "dense",
                   "--out", out) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert {"adjacency.csv", "adjacency.npy", "adjacency_meta.json"} <= before.keys()
    capsys.readouterr()
    monkeypatch.setattr(sys, "executable", shutil.which("false"))
    assert run_cli("rewire", "--edges", tmp_path / "edges.csv", "--kind", "dense",
                   "--out", out) == 3
    err = capsys.readouterr().err
    assert "computation error: adjacency row writer" in err and "Traceback" not in err
    with pytest.raises(ChildProcessError):  # both row writers were reaped
        os.waitpid(-1, os.WNOHANG)
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_train_refuses_sigma_with_a_loaded_adjacency(basin8_dir, tmp_path, capsys):
    rw_dir = tmp_path / "rw"
    assert run_cli("rewire", "--edges", basin8_dir / "edges.csv",
                   "--kind", "dense", "--out", rw_dir) == 0
    out = tmp_path / "tr"
    assert run_cli("train", "--edges", basin8_dir / "edges.csv",
                   "--gauges", basin8_dir / "gauges",
                   "--adjacency", rw_dir / "adjacency.csv", "--sigma", "0.001",
                   "--history", "12", "--horizon", "4", "--epochs", "1",
                   "--out", out) == 64
    assert "--sigma" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("built, code", [("topology", 0), ("dense", 2)])
def test_train_topology_adjacency_must_stay_on_the_edge_set(basin8_dir, tmp_path, capsys,
                                                            built, code):
    rw_dir = tmp_path / "rw"
    assert run_cli("rewire", "--edges", basin8_dir / "edges.csv",
                   "--kind", built, "--out", rw_dir) == 0
    assert run_cli("train", "--edges", basin8_dir / "edges.csv",
                   "--gauges", basin8_dir / "gauges",
                   "--adjacency", rw_dir / "adjacency.csv", "--kind", "topology",
                   "--history", "12", "--horizon", "4", "--epochs", "1",
                   "--latent", "8", "--out", tmp_path / "tr") == code
    assert ("off the directed edge set" in capsys.readouterr().err) == (code == 2)


def test_commands_write_only_inside_out_dir(basin8_dir, tmp_path, monkeypatch):
    before = snapshot(basin8_dir)
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "only_here"
    assert run_cli("rewire", "--edges", basin8_dir / "edges.csv",
                   "--kind", "dense", "--out", out) == 0
    assert snapshot(basin8_dir) == before
    stray = [p for p in tmp_path.iterdir() if p != out]
    assert stray == []


def test_every_json_output_parses_strictly(basin8_dir, tmp_path):
    edges, gauges = basin8_dir / "edges.csv", basin8_dir / "gauges"
    assert run_cli("qc", "--edges", edges, "--gauges", gauges, "--out", tmp_path / "qc") == 0
    for kind in rd.ADJACENCY_KINDS:
        rewired = tmp_path / "rw" / kind
        assert run_cli("rewire", "--edges", edges, "--kind", kind, "--out", rewired) == 0
        for mode in ("symmetric", "random-walk"):
            assert run_cli("resist", "--adjacency", rewired / "adjacency.csv", "--mode", mode,
                           "--out", tmp_path / "rs" / kind / mode) == 0
        assert run_cli("train", "--edges", edges, "--gauges", gauges, "--kind", kind,
                       "--history", "12", "--horizon", "4", "--epochs", "1", "--latent", "8",
                       "--out", tmp_path / "tr" / kind) == 0
    written = sorted(tmp_path.rglob("*.json"))
    assert {path.name for path in written} == {"qc_report.json", "manifest.json",
                                               "adjacency_meta.json", "resistance.json",
                                               "checkpoint.json"}
    assert len(written) == 2 + 4 * 2 + 4 * 2 * 2 + 4 * 2
    for path in written:
        strict_json(path)
