import numpy as np
import pytest

import riverdense as rd
from riverdense.errors import CsvFormatError, UnknownStation

from util import random_weighted_tree

T0 = np.datetime64("2000-01-01T00:00:00", "s")
HOUR = np.timedelta64(1, "h")


def hourly_series(station, values, start=T0, **features):
    stamps = start + np.arange(len(values)) * HOUR
    return rd.GaugeSeries(station, stamps, values, features or None)


def test_screen_zero_is_not_negative():
    report = rd.qc_station(hourly_series(1, [1.0, 2.0, 0.0]), T0, T0 + 3 * HOUR)
    assert report.negative_count == 0
    assert report.passed


def test_screen_flags_negative():
    report = rd.qc_station(hourly_series(1, [1.0, -0.1]), T0, T0 + 2 * HOUR)
    assert report.negative_count == 1
    assert not report.passed


def test_empty_series_fails_by_vacuous_coverage():
    series = rd.GaugeSeries(1, [], [])
    report = rd.qc_station(series, T0, T0 + 48 * HOUR)
    assert report.missing_hours == 48
    assert not report.passed


def test_completeness_full_window():
    report = rd.qc_station(hourly_series(1, np.ones(48)), T0, T0 + 48 * HOUR)
    assert report.missing_hours == 0
    assert report.passed


def test_completeness_one_missing_hour():
    stamps = np.concatenate([np.arange(10), np.arange(11, 48)]) * HOUR + T0
    series = rd.GaugeSeries(1, stamps, np.ones(47))
    report = rd.qc_station(series, T0, T0 + 48 * HOUR)
    assert report.missing_hours == 1
    assert not report.passed


def test_completeness_duplicate_counts_as_gap():
    stamps = np.concatenate([np.arange(48), [5]]) * HOUR + T0
    series = rd.GaugeSeries(1, np.sort(stamps), np.ones(49))
    report = rd.qc_station(series, T0, T0 + 48 * HOUR)
    assert report.missing_hours == 1
    assert not report.passed


def test_completeness_off_grid_stamp_does_not_count():
    stamps = T0 + np.arange(48) * HOUR
    stamps[7] = stamps[7] + np.timedelta64(30, "m")
    series = rd.GaugeSeries(1, stamps, np.ones(48))
    report = rd.qc_station(series, T0, T0 + 48 * HOUR)
    assert report.missing_hours == 1


def test_qc_is_order_independent():
    values = [3.0, -1.0, 2.0]
    a = rd.qc_station(hourly_series(9, values), T0, T0 + 3 * HOUR)
    b = rd.qc_station(hourly_series(9, values), T0, T0 + 3 * HOUR)
    assert a == b


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
        assert sub.is_river_tree()
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
