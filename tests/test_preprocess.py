import warnings
from datetime import datetime

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import riverdense as rd
import riverdense.preprocess
from riverdense.errors import CsvFormatError, UnknownStation
from riverdense.preprocess import (_STAMP, DEFAULT_COLUMN_MAP, _canonical_utc_stamps,
                                   _read_gauge_columns, _read_gauge_rows)

from util import (is_river_tree, random_weighted_tree, reference_qc_station,
                  round_trip_stamps)

T0 = np.datetime64("2000-01-01T00:00:00", "s")
HOUR = np.timedelta64(1, "h")


def hourly_series(station, values, start=T0, **features):
    stamps = start + np.arange(len(values)) * HOUR
    return rd.GaugeSeries(station, stamps, values, features or None)


def test_screen_zero_is_not_negative():
    report = rd.qc_station(rd.GaugeTally(hourly_series(1, [1.0, 2.0, 0.0])), T0, T0 + 3 * HOUR)
    assert report.negative_count == 0
    assert report.passed


def test_screen_flags_negative():
    report = rd.qc_station(rd.GaugeTally(hourly_series(1, [1.0, -0.1])), T0, T0 + 2 * HOUR)
    assert report.negative_count == 1
    assert not report.passed


def test_empty_series_fails_by_vacuous_coverage():
    series = rd.GaugeSeries(1, [], [])
    report = rd.qc_station(rd.GaugeTally(series), T0, T0 + 48 * HOUR)
    assert report.missing_hours == 48
    assert not report.passed


def test_completeness_full_window():
    report = rd.qc_station(rd.GaugeTally(hourly_series(1, np.ones(48))), T0, T0 + 48 * HOUR)
    assert report.missing_hours == 0
    assert report.passed


def test_completeness_one_missing_hour():
    stamps = np.concatenate([np.arange(10), np.arange(11, 48)]) * HOUR + T0
    series = rd.GaugeSeries(1, stamps, np.ones(47))
    report = rd.qc_station(rd.GaugeTally(series), T0, T0 + 48 * HOUR)
    assert report.missing_hours == 1
    assert not report.passed


def test_completeness_duplicate_counts_as_gap():
    stamps = np.concatenate([np.arange(48), [5]]) * HOUR + T0
    series = rd.GaugeSeries(1, np.sort(stamps), np.ones(49))
    report = rd.qc_station(rd.GaugeTally(series), T0, T0 + 48 * HOUR)
    assert report.missing_hours == 1
    assert not report.passed


def test_completeness_off_grid_stamp_does_not_count():
    stamps = T0 + np.arange(48) * HOUR
    stamps[7] = stamps[7] + np.timedelta64(30, "m")
    series = rd.GaugeSeries(1, stamps, np.ones(48))
    report = rd.qc_station(rd.GaugeTally(series), T0, T0 + 48 * HOUR)
    assert report.missing_hours == 1


def test_completeness_nonfinite_reading_counts_as_missing():
    values = np.ones(48)
    values[[3, 9, 20]] = [np.nan, np.inf, -np.inf]
    report = rd.qc_station(rd.GaugeTally(hourly_series(1, values)), T0, T0 + 48 * HOUR)
    assert (report.negative_count, report.missing_hours) == (1, 3)
    assert not report.passed
    # outside the period a non-finite reading is not an hour of it
    outside = rd.qc_station(rd.GaugeTally(hourly_series(1, values)),
                            T0 + 21 * HOUR, T0 + 48 * HOUR)
    assert outside.missing_hours == 0
    # a repeated hour stays a gap when one of its readings is NaN
    stamps = np.sort(np.concatenate([np.arange(48), [5]])) * HOUR + T0
    repeated = np.ones(49)
    repeated[5] = np.nan
    report = rd.qc_station(rd.GaugeTally(rd.GaugeSeries(1, stamps, repeated)),
                           T0, T0 + 48 * HOUR)
    assert report.missing_hours == 2


def test_completeness_nonfinite_reading_on_any_channel_counts_as_missing():
    rain, temp = np.zeros(48), np.ones(48)
    rain[[4, 30]] = [np.nan, -np.inf]
    temp[[4, 11]] = [np.inf, np.nan]  # hour 4 is bad on both channels, counted once
    report = rd.qc_station(rd.GaugeTally(hourly_series(1, np.ones(48), rain=rain, temp=temp)),
                           T0, T0 + 48 * HOUR)
    assert (report.negative_count, report.missing_hours) == (0, 3)
    assert not report.passed


def test_qc_is_order_independent():
    values = [3.0, -1.0, 2.0]
    a = rd.qc_station(rd.GaugeTally(hourly_series(9, values)), T0, T0 + 3 * HOUR)
    b = rd.qc_station(rd.GaugeTally(hourly_series(9, values)), T0, T0 + 3 * HOUR)
    assert a == b


# readings: ordinary, zero and negative values, and every kind of non-finite one
_READINGS = st.one_of(st.floats(-2.0, 10.0),
                      st.sampled_from([0.0, -0.5, np.nan, np.inf, -np.inf]))


@st.composite
def gauge_series(draw):
    """A station's rows in any order: an hourly block with gaps, some of its
    hours repeated, and stamps anywhere around it, mostly off the hour grid."""
    first, count = draw(st.integers(-30, 30)), draw(st.integers(0, 60))
    present = draw(st.lists(st.sampled_from([True, True, True, False]),
                            min_size=count, max_size=count))
    seconds = [3600 * (first + k) for k, keep in enumerate(present) if keep]
    if seconds:
        seconds += draw(st.lists(st.sampled_from(seconds), max_size=4))
    seconds += draw(st.lists(st.integers(-40 * 3600, 100 * 3600), max_size=4))
    seconds = draw(st.permutations(seconds))
    n = len(seconds)
    features = {}
    if draw(st.booleans()):
        features["rain"] = draw(st.lists(_READINGS, min_size=n, max_size=n))
    return rd.GaugeSeries(5, T0 + np.array(seconds, dtype="timedelta64[s]"),
                          draw(st.lists(_READINGS, min_size=n, max_size=n)), features)


_ON_GRID = st.integers(-50, 110).map(lambda hours: 3600 * hours)


@settings(max_examples=400, deadline=None)
@given(series=gauge_series(),
       start=st.one_of(_ON_GRID, st.integers(-50 * 3600, 110 * 3600)),
       length=st.one_of(_ON_GRID.filter(lambda s: s > 0), st.integers(1, 160 * 3600)))
def test_qc_station_on_a_tally_matches_the_whole_series(series, start, length):
    start = T0 + np.timedelta64(start, "s")
    end = start + np.timedelta64(length, "s")
    tally = rd.GaugeTally(series)
    assert rd.qc_station(tally, start, end) == reference_qc_station(series, start, end)
    stamps = series.timestamps
    assert tally.span == ((stamps.min(), stamps.max()) if stamps.size else None)


def test_tally_keeps_runs_of_present_hours():
    stamps = T0 + np.array([0, 1, 2, 4, 5, 5, 7, 8], dtype="timedelta64[h]")
    stamps[6] += np.timedelta64(30, "m")  # 07:30 is a run of its own
    values = np.ones(8)
    values[3] = np.nan  # 04:00 is not present
    tally = rd.GaugeTally(rd.GaugeSeries(2, stamps, values))
    first = int(T0.astype(np.int64))
    assert tally.runs.tolist() == [[first, 3], [first + 5 * 3600, 1],
                                   [first + 7 * 3600 + 1800, 1], [first + 8 * 3600, 1]]
    assert (tally.station, tally.duplicates, tally.negative) == (2, 1, 0)
    assert tally.span == (T0, T0 + 8 * HOUR)
    assert not tally.runs.flags.writeable
    empty = rd.GaugeTally(rd.GaugeSeries(3, [], []))
    assert (empty.span, empty.runs.shape) == (None, (0, 2))


def test_report_invariant_passed():
    assert rd.QCReport(1, 0, 0).passed
    assert not rd.QCReport(1, 1, 0).passed
    assert not rd.QCReport(1, 0, 1).passed


# ---------------------------------------------------------------------------
# bypass and extraction

def chain_net():
    return rd.build_network([0, 1, 2], [(0, 1, 2.0, 5.0), (1, 2, 3.0, 7.0)])


def test_bypass_chain_aggregates_attributes():
    out = rd.bypass_remove(chain_net(), 1)
    assert out.nodes == (0, 2)
    assert out.edges == (rd.Edge(0, 2, 5.0, 12.0),)


def test_bypass_leaf_removes_without_new_edges():
    out = rd.bypass_remove(chain_net(), 0)
    assert out.nodes == (1, 2)
    assert out.edges == (rd.Edge(1, 2, 3.0, 7.0),)


def test_bypass_confluence_fans_out():
    net = rd.build_network([0, 1, 2, 3],
                           [(0, 2, 1.0, 1.0), (1, 2, 2.0, 2.0), (2, 3, 4.0, 4.0)])
    out = rd.bypass_remove(net, 2)
    assert set(out.edges) == {rd.Edge(0, 3, 5.0, 5.0), rd.Edge(1, 3, 6.0, 6.0)}


def test_bypass_unknown_station():
    with pytest.raises(UnknownStation):
        rd.bypass_remove(chain_net(), 42)


def test_bypass_parallel_edge_keeps_shorter():
    # 0 -> 2 directly (length 10) and 0 -> 1 -> 2 (length 2 + 3 = 5)
    net = rd.build_network([0, 1, 2],
                           [(0, 1, 2.0, 1.0), (1, 2, 3.0, 1.0), (0, 2, 10.0, 9.0)])
    out = rd.bypass_remove(net, 1)
    assert out.edges == (rd.Edge(0, 2, 5.0, 2.0),)


def test_extract_keep_all_is_identity():
    net = chain_net()
    out = rd.extract_subgraph(net, {0, 1, 2})
    assert out.nodes == net.nodes
    assert out.edges == net.edges


def test_extract_chain_endpoints():
    net = rd.build_network([0, 1, 2, 3],
                           [(0, 1, 1.0, 1.0), (1, 2, 2.0, 2.0), (2, 3, 3.0, 3.0)])
    out = rd.extract_subgraph(net, {0, 3})
    assert out.edges == (rd.Edge(0, 3, 6.0, 6.0),)


def test_extract_dropped_confluence_reconnects_to_downstream():
    net = rd.build_network([0, 1, 2, 3],
                           [(0, 2, 1.0, 0.0), (1, 2, 2.0, 0.0), (2, 3, 4.0, 0.0)])
    out = rd.extract_subgraph(net, {0, 1, 3})
    assert set(out.edges) == {rd.Edge(0, 3, 5.0, 0.0), rd.Edge(1, 3, 6.0, 0.0)}


def test_extract_dropped_outlet_confluence_disconnects():
    net = rd.build_network([0, 1, 2], [(0, 2, 1.0, 0.0), (1, 2, 2.0, 0.0)])
    out = rd.extract_subgraph(net, {0, 1})
    assert out.nodes == (0, 1)
    assert out.edges == ()


def test_extract_unknown_station():
    with pytest.raises(UnknownStation):
        rd.extract_subgraph(chain_net(), {0, 99})


def test_extract_preserves_reachability_and_edge_lengths():
    rng = np.random.default_rng(29)
    for _ in range(120):
        n = int(rng.integers(3, 32))
        net = random_weighted_tree(n, rng)
        original = rd.topological_distances(net).d
        keep = {0} | {int(s) for s in rng.choice(n, size=max(2, n // 2), replace=False)}
        sub = rd.extract_subgraph(net, keep)
        assert is_river_tree(sub)
        # each aggregated edge carries the original shortest-path length
        for e in sub.edges:
            assert e.stream_length == pytest.approx(
                original[net.index(e.src), net.index(e.dst)], abs=1e-9)
        # kept pairs stay mutually reachable (outlet 0 is always kept)
        reduced = rd.topological_distances(sub).d
        assert np.all(np.isfinite(reduced))


def test_bypass_never_creates_self_loops_or_cycles():
    rng = np.random.default_rng(31)
    for _ in range(80):
        n = int(rng.integers(3, 24))
        net = random_weighted_tree(n, rng)
        station = int(rng.integers(0, n))
        out = rd.bypass_remove(net, station)  # build_network re-validates
        assert station not in out
        assert all(e.src != e.dst for e in out.edges)


# ---------------------------------------------------------------------------
# gauge CSV

def test_read_gauge_csv(tmp_path):
    path = tmp_path / "7.csv"
    path.write_text("timestamp,qobs,rain\n"
                    "2000-01-01T00:00:00Z,1.5,0.0\n"
                    "2000-01-01T01:00:00Z,2.5,0.25\n")
    series = rd.read_gauge_csv(path)
    assert series.station == 7
    assert series.discharge.tolist() == [1.5, 2.5]
    assert series.features["rain"].tolist() == [0.0, 0.25]
    assert series.timestamps[1] - series.timestamps[0] == HOUR


def test_read_gauge_csv_column_map(tmp_path):
    path = tmp_path / "3.csv"
    path.write_text("time,flow\n2000-01-01 00:00:00,4.0\n")
    series = rd.read_gauge_csv(path, {"timestamp": "time", "discharge": "flow"})
    assert series.discharge.tolist() == [4.0]


def test_read_gauge_csv_refuses_a_feature_named_discharge(tmp_path):
    path = tmp_path / "3.csv"
    path.write_text("timestamp,qobs,discharge\n2000-01-01T00:00:00Z,4.0,7.5\n")
    with pytest.raises(CsvFormatError, match=r"3\.csv:1: column 'discharge' would shadow "
                                             r"the discharge channel, which is read from "
                                             r"column 'qobs'"):
        rd.read_gauge_csv(path)
    # mapped as the discharge column, it is that channel; qobs is then a feature
    path.write_text("timestamp,discharge,qobs\n2000-01-01T00:00:00Z,4.0,7.5\n")
    series = rd.read_gauge_csv(path, {"discharge": "discharge"})
    assert {k: v.tolist() for k, v in series.channels().items()} == {"discharge": [4.0],
                                                                       "qobs": [7.5]}


def test_read_gauge_csv_errors(tmp_path):
    bad_name = tmp_path / "stationX.csv"
    bad_name.write_text("timestamp,qobs\n")
    with pytest.raises(CsvFormatError, match="gauge id"):
        rd.read_gauge_csv(bad_name)
    bad_row = tmp_path / "4.csv"
    bad_row.write_text("timestamp,qobs\n2000-01-01T00:00:00Z,abc\n")
    with pytest.raises(CsvFormatError, match=r"4\.csv:2"):
        rd.read_gauge_csv(bad_row)


@pytest.mark.parametrize("body, line", [
    ("timestamp,qobs\n2000-01-01T00:00:00Z,1.0\n\n2000-01-01T01:00:00Z,2.0\n\nbad,3.0\n", 6),
    ("timestamp,qobs\r\n\r\n\r\n2000-01-01T00:00:00Z,1.0\r\n2000-01-01T01:00:00Z,x\r\n", 5),
    ("timestamp,qobs,rain\n2000-01-01T00:00:00Z,1.0,0.0\n2000-01-01T01:00:00Z,2.0,\n", 3),
])
def test_read_gauge_csv_error_names_the_file_line_past_blank_rows(tmp_path, body, line):
    path = tmp_path / "5.csv"
    path.write_text(body, newline="")
    with pytest.raises(CsvFormatError, match=rf"5\.csv:{line}:"):
        rd.read_gauge_csv(path)


def test_parse_timestamp_variants():
    a = rd.parse_timestamp("2000-06-01T12:00:00Z")
    b = rd.parse_timestamp("2000-06-01T12:00:00+00:00")
    c = rd.parse_timestamp("2000-06-01 12:00:00")
    assert a == b == c
    with pytest.raises(ValueError, match="not UTC"):
        rd.parse_timestamp("2000-06-01T12:00:00+02:00")


def test_parse_timestamp_rejects_a_fraction_of_a_second():
    with pytest.raises(ValueError, match=r"'2000-01-01T12:00:00\.7Z' has a fraction"):
        rd.parse_timestamp("2000-01-01T12:00:00.7Z")
    whole = rd.parse_timestamp("2000-01-01T12:00:00.000Z")
    assert whole == np.datetime64("2000-01-01T12:00:00", "s")


def test_read_gauge_csv_fraction_of_a_second_names_the_file_line(tmp_path):
    path = tmp_path / "6.csv"
    path.write_text("timestamp,qobs\n2000-01-01T00:00:00Z,1.0\n2000-01-01T01:00:00.5Z,2.0\n")
    with pytest.raises(CsvFormatError, match=r"6\.csv:3: timestamp '2000-01-01T01:00:00\.5Z'"):
        rd.read_gauge_csv(path)


# ---------------------------------------------------------------------------
# gauge CSV: numpy's parse against the row loop

def _cmap(column_map=None):
    return {**DEFAULT_COLUMN_MAP, **(column_map or {})}


def assert_same_series(a, b):
    assert a.station == b.station
    for x, y in [(a.timestamps, b.timestamps), (a.discharge, b.discharge)] + [
            (a.features[name], b.features[name]) for name in b.features]:
        assert x.dtype == y.dtype and x.shape == y.shape
        assert x.tobytes() == y.tobytes()
    assert list(a.features) == list(b.features)


TSQ = "timestamp,qobs,rain\n"
# (header, body, column_map): files numpy's parse takes, then files it leaves to the row loop
FAST_GAUGES = {
    "lf": (TSQ, "2000-01-01T00:00:00Z,1.5,0.0\n2000-01-01T01:00:00Z,2.5,0.25\n", None),
    "crlf": ("timestamp,qobs,rain\r\n",
             "2000-01-01T00:00:00Z,1.5,0.0\r\n2000-01-01T01:00:00Z,2.5,0.25\r\n", None),
    "cr": ("timestamp,qobs,rain\r", "2000-01-01T00:00:00Z,1.5,0.0\r2000-01-01T01:00:00Z,2.5,0.25\r",
           None),
    "blank_lines": (TSQ, "\n2000-01-01T00:00:00Z,1.5,0.0\n\n\r\n2000-01-01T01:00:00Z,2.5,0.25\n\n",
                    None),
    "no_final_newline": (TSQ, "2000-01-01T00:00:00Z,1.5,0.0\n2000-01-01T01:00:00Z,2.5,0.25", None),
    "padded_values": (TSQ, "2000-01-01T00:00:00Z,  1.5 ,\t0.0\n2000-01-01T01:00:00Z, -2.5,0.25 \n",
                      None),
    "utc_offset": (TSQ, "2000-01-01T00:00:00+00:00,1.5,0.0\n2000-01-01T01:00:00+00:00,2.5,1\n", None),
    "naive": (TSQ, "2000-01-01T00:00:00,1.5,0.0\n2000-01-01T01:00:00,2.5,1e-300\n", None),
    "mixed_suffixes": (TSQ, "2000-01-01T00:00:00,1,0\n2000-01-01T01:00:00Z,2,0\n"
                            "2000-02-29T02:00:00+00:00,3,0\n", None),
    "special_values": (TSQ, "0001-01-01T00:00:00Z,nan,-0.0\n9999-12-31T23:59:59Z,inf,5e-324\n"
                            "2000-01-01T00:00:00Z,-inf,.5\n2000-01-01T00:00:00Z,1E5,5.\n"
                            "2000-01-01T00:00:00Z,-nan,Infinity\n", None),
    "decimal_spellings": (TSQ, "".join(
        f"2000-01-01T00:00:00Z,{v:{fmt}},{v * 1e-300!r}\n"
        for v in np.random.default_rng(3).standard_normal(200).tolist()
        for fmt in ("", ".17g", ".3e", ".25f")), None),
    "timestamp_not_first": ("flow,rain,time\n", "1.5,0.0,2000-01-01T00:00:00Z\n"
                            "2.5,0.25,2000-01-01T01:00:00Z\n", {"timestamp": "time",
                                                                "discharge": "flow"}),
    "extra_features": ("timestamp,qobs,rain,temp,snow\n",
                       "2000-01-01T00:00:00Z,1.5,0.0,-3.5,0.1\n2000-01-01T01:00:00Z,2.5,0.25,-4,0\n",
                       None),
    "one_row": ("timestamp,qobs\n", "2000-01-01T00:00:00Z,0.1", None),
    "header_only": (TSQ, "", None),
    "header_and_blank_lines": ("timestamp,qobs,rain\r\n", "\r\n\r\n", None),
}
SLOW_GAUGES = {
    "space_separator": (TSQ, "2000-01-01 00:00:00,1.5,0.0\n2000-01-01 01:00:00Z,2.5,0.25\n", None),
    "date_only": (TSQ, "2000-01-01,1.5,0.0\n2000-01-02Z,2.5,0.25\n", None),
    "zero_fraction": (TSQ, "2000-01-01T00:00:00.000Z,1.5,0.0\n", None),
    "padded_stamp": (TSQ, " 2000-01-01T00:00:00Z ,1.5,0.0\n", None),
    "quoted": (TSQ, '"2000-01-01T00:00:00Z","1.5",0.0\n2000-01-01T01:00:00Z,2.5,"0.25"\n', None),
    "quoted_header": ('"timestamp",qobs,rain\n', "2000-01-01T00:00:00Z,1.5,0.0\n", None),
    "underscored_value": (TSQ, "2000-01-01T00:00:00Z,1_5,0.0\n", None),
}


def _write_gauge(tmp_path, header, body, station=7):
    path = tmp_path / f"{station}.csv"
    path.write_text(header + body, newline="", encoding="utf-8")
    return path


@pytest.mark.parametrize("name", sorted(FAST_GAUGES) + sorted(SLOW_GAUGES))
def test_gauge_csv_fast_reader_matches_row_loop(tmp_path, name):
    header, body, column_map = {**FAST_GAUGES, **SLOW_GAUGES}[name]
    path = _write_gauge(tmp_path, header, body)
    expected = _read_gauge_rows(path, 7, _cmap(column_map))
    fallbacks = []
    assert_same_series(rd.read_gauge_csv(path, column_map, fallbacks=fallbacks), expected)
    fast = _read_gauge_columns(path, 7, _cmap(column_map))
    if name in FAST_GAUGES:
        assert fast is not None and fallbacks == []
        assert_same_series(fast, expected)
    else:
        assert fast is None and fallbacks == [path]


def test_gauge_csv_header_only_is_an_empty_series(tmp_path):
    path = _write_gauge(tmp_path, TSQ, "")
    series = _read_gauge_columns(path, 7, _cmap())  # warnings are errors in this suite
    assert len(series) == 0 and series.features == {}
    assert series.timestamps.dtype == np.dtype("datetime64[s]")


def _bench_style_gauges(directory):
    """A year of hourly gauges, with negative readings and dropped hours as
    the benchmark writes them."""
    basin = rd.generate_basin(3, seed=5, hours=8760)
    paths = rd.basin_to_gauge_csvs(basin, directory)
    lines = paths[0].read_text(encoding="utf-8").splitlines(keepends=True)
    stamp, qobs, rest = lines[100].split(",", 2)
    lines[100] = f"{stamp},{-1.0 - float(qobs)!r},{rest}"
    paths[0].write_text("".join(lines), encoding="utf-8")
    lines = paths[1].read_text(encoding="utf-8").splitlines(keepends=True)
    paths[1].write_text("".join(lines[:50] + lines[53:]), encoding="utf-8")
    return paths


def test_generated_gauges_never_reach_the_row_loop(basin8_dir, tmp_path, monkeypatch):
    paths = sorted((basin8_dir / "gauges").glob("*.csv")) + _bench_style_gauges(tmp_path)
    expected = [_read_gauge_rows(p, int(p.stem), _cmap()) for p in paths]

    def no_row_loop(*args):
        raise AssertionError("the row loop ran on a generated file")

    monkeypatch.setattr(riverdense.preprocess, "_read_gauge_rows", no_row_loop)
    fallbacks = []
    for path, want in zip(paths, expected):
        assert_same_series(rd.read_gauge_csv(path, fallbacks=fallbacks), want)
    assert fallbacks == []
    assert [len(s) for s in expected[-3:]] == [8760, 8757, 8760]
    assert expected[-3].discharge.min() < 0


@pytest.mark.parametrize("body, line", [
    ("2000-01-01T00:00:00Z,1.0\n   \n", 3),                       # whitespace-only row
    ("2000-01-01T00:00:00Z,1.0\n# note,2.0\n", 3),                # numpy would skip a comment
    ("2000-01-01T00:00:00Z,1.0\n0000-01-01T00:00:00Z,2.0\n", 3),  # year 0
    ("2000-01-01T00:00:00Z,1.0\n10000-01-01T00:00:00,2.0\n", 3),  # year 10000
    ("2000-01-01T00:00:00Z,1.0\nNaT,2.0\n", 3),
    ("2000-01-01T00:00:00Z,1.0\n,2.0\n", 3),                      # empty stamp
    ("2000-01-01T00:00:00Z,1.0\n2000-01-01T01:00:00+02:00,2.0\n", 3),
    ("2000-01-01T00:00:00Z,1.0\n2000-01-01T01:00:00.5,2.0\n", 3),
    ("2000-01-01T00:00:00Z,1.0\n2000-01-01T01:00:00Z,2.0\x00\n", 3),
    ("2000-01-01T00:00:00Z,1.0\n2000-01-01T01:00:00Z,\x1f2.0\n", 3),  # numpy strips \x1f
    ("2000-01-01T00:00:00Z,1.0\n2000-01-01T01:00:00\u00e9,2.0\n", 3),
    ("2000-01-01T00:00:00Z,1.0\n2000-02-30T00:00:00Z,2.0\n", 3),
    ("2000-01-01T00:00:00Z,1.0\n2000-01-01T01:00:00Z\n", 3),      # short row
    ("2000-01-01T00:00:00Z,1.0\n2000-01-01T01:00:00Z,2.0,9\n", 3),  # long row
    ("2000-01-01T00:00:00Z,1.0\n2000-01-01T01:00:00Z,0x1\n", 3),
])
def test_gauge_csv_bad_bodies_go_to_the_row_loop(tmp_path, body, line):
    path = _write_gauge(tmp_path, "timestamp,qobs\n", body, station=8)
    assert _read_gauge_columns(path, 8, _cmap()) is None
    with pytest.raises(CsvFormatError, match=rf"8\.csv:{line}: "):
        rd.read_gauge_csv(path)


# ---------------------------------------------------------------------------
# gauge CSV: the byte-shape stamp check against the round-trip oracle

def _stamp_verdict(check, stamps):
    """What ``check`` makes of a record array holding ``stamps``: the parsed
    array, or None for "leave it to the row loop" (None, or a ValueError or a
    warning, which _read_gauge_columns also turns into None)."""
    body = np.array([(1.0, stamp) for stamp in stamps], dtype=[("c0", "f8"), ("c1", _STAMP)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return check(body, "c1")
        except (ValueError, Warning):
            return None


def assert_stamp_check_matches_oracle(stamps):
    fast = _stamp_verdict(_canonical_utc_stamps, stamps)
    oracle = _stamp_verdict(round_trip_stamps, stamps)
    if oracle is None:
        assert fast is None, stamps
    else:
        assert fast is not None and fast.dtype == oracle.dtype, stamps
        assert fast.tobytes() == oracle.tobytes(), stamps


CANONICAL = [b"2000-02-29T23:59:59", b"1999-12-31T00:00:00", b"0001-01-01T00:00:00",
             b"9999-12-31T23:59:59", b"2024-07-15T12:34:56"]
MUTANTS = b"0123456789-T:Z+ ./t\xe9"  # digits, separators, space, lowercase t, non-ASCII
TAILS = [b"", b"Z", b"+00:00", b"z", b"ZZ", b"+01:00", b"-00:00", b"+0000", b"+00:00Z",
         b" ", b"Z ", b".0", b"+00:00:00"]


def _edge_stamps():
    for year in (b"0000", b"0001", b"1900", b"2000", b"2100", b"9999"):
        for month in range(14):
            for day in (0, 28, 29, 30, 31, 32):
                yield b"%s-%02d-%02dT00:00:00" % (year, month, day)
        for clock in (b"24:00:00", b"23:60:00", b"23:59:60", b"23:59:59"):
            yield year + b"-12-31T" + clock
    yield from [b"+10000-01-01T00:00:00", b"10000-01-01T00:00:00", b"-0001-01-01T00:00:00",
                b"NaT", b"nat", b"2000-01-01", b"2000-01-01Z", b"2000-01-01T00:00",
                b"2000-01-01T00:00Z", b"", b"2000-01-01 00:00:00", b"2000-01-01T00:00:00.0"]


def test_stamp_check_matches_round_trip_on_every_byte_mutation():
    for stamp in CANONICAL:
        for at in range(len(stamp)):
            for byte in MUTANTS:
                mutant = stamp[:at] + bytes([byte]) + stamp[at + 1:]
                for tail in (b"", b"Z"):
                    assert_stamp_check_matches_oracle([mutant + tail])
        for tail in TAILS:
            assert_stamp_check_matches_oracle([stamp + tail])
            assert_stamp_check_matches_oracle([stamp, stamp + tail])


def test_stamp_check_matches_round_trip_on_field_edges():
    for stamp in _edge_stamps():
        for tail in (b"", b"Z", b"+00:00"):
            assert_stamp_check_matches_oracle([stamp + tail])
            assert_stamp_check_matches_oracle([CANONICAL[0], stamp + tail])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.datetimes(min_value=datetime(1, 1, 1),
                                       max_value=datetime(9999, 12, 31, 23, 59, 59)),
                          st.sampled_from(TAILS[:3])), min_size=1, max_size=40),
       st.integers(min_value=0), st.integers(min_value=0, max_value=18),
       st.sampled_from(list(MUTANTS)), st.booleans())
def test_stamp_check_matches_round_trip_on_random_columns(rows, row, at, byte, mutate):
    stamps = [dt.isoformat(timespec="seconds").encode() + tail for dt, tail in rows]
    if mutate:
        row %= len(stamps)
        stamps[row] = stamps[row][:at] + bytes([byte]) + stamps[row][at + 1:]
    assert_stamp_check_matches_oracle(stamps)


@pytest.mark.parametrize("header", ["timestamp,qobs,qobs\n", "timestamp,rain,qobs,rain\n"])
def test_gauge_csv_repeated_column_is_rejected_at_the_header(tmp_path, header):
    path = _write_gauge(tmp_path, header, "2000-01-01T00:00:00Z,1.0,2.0" + ",3.0" * (
        header.count(",") - 2) + "\n")
    with pytest.raises(CsvFormatError, match=r"7\.csv:1: repeated columns \['(qobs|rain)'\]"):
        rd.read_gauge_csv(path)


def test_gauge_csv_short_row_missing_its_stamp_names_the_line(tmp_path):
    path = _write_gauge(tmp_path, "qobs,timestamp\n", "1.0,2000-01-01T00:00:00Z\n2.0\n")
    with pytest.raises(CsvFormatError, match=r"7\.csv:3: row width differs from the header's 2"):
        rd.read_gauge_csv(path)
