"""Gauge quality control, station bypass and subgraph extraction.

Failing stations are not simply dropped: the bypass mechanism reconnects each
upstream neighbor to each downstream neighbor and aggregates channel distance
and elevation difference along the replaced path, so the surviving network
keeps its connectivity and total channel distances.
"""

from __future__ import annotations

import csv
import json
import re
import warnings
from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import CsvFormatError, UnknownStation
from .network import Edge, RiverNetwork, build_network

HOUR = np.timedelta64(1, "h")
_HOUR_S = 3600
DEFAULT_COLUMN_MAP = {"timestamp": "timestamp", "discharge": "qobs"}


class GaugeSeries:
    """Hourly discharge (and optional feature channels) for one station."""

    __slots__ = ("station", "timestamps", "discharge", "features")

    def __init__(self, station: int, timestamps, discharge, features=None):
        self.station = int(station)
        self.timestamps = np.asarray(timestamps, dtype="datetime64[s]")
        self.discharge = np.asarray(discharge, dtype=float)
        self.features = {k: np.asarray(v, dtype=float) for k, v in (features or {}).items()}
        if self.timestamps.shape != self.discharge.shape:
            raise ValueError(f"station {station}: {self.timestamps.size} timestamps "
                             f"vs {self.discharge.size} discharge values")
        for name, vals in self.features.items():
            if vals.shape != self.discharge.shape:
                raise ValueError(f"station {station}: feature {name!r} length mismatch")

    def __len__(self) -> int:
        return self.discharge.size

    def channels(self) -> dict[str, np.ndarray]:
        out = {"discharge": self.discharge}
        out.update(self.features)
        return out


@dataclass(frozen=True)
class QCReport:
    """Quality-control verdict for one station; passed is derived."""

    station: int
    negative_count: int
    missing_hours: int
    passed: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "passed",
                           self.negative_count == 0 and self.missing_hours == 0)

    def as_dict(self) -> dict:
        return {"station": self.station, "negative_count": self.negative_count,
                "missing_hours": self.missing_hours, "passed": self.passed}


# ---------------------------------------------------------------------------
# quality control

@dataclass(frozen=True, slots=True, init=False, eq=False)
class GaugeTally:
    """What :func:`qc_station` needs of one station's series, whatever the period.

    ``span`` is the first and last stamp of any row (None for an empty
    series). ``runs`` is a read-only (k, 2) int64 array of runs of consecutive
    present hours, each its first second since the epoch and its length; an
    hour is present when its stamp occurs and every channel of every row at
    that stamp is finite. ``duplicates`` counts the rows that repeat an
    earlier stamp and ``negative`` the strictly negative discharge readings.
    The tally is a few numbers per run, so a caller can drop the series.
    """

    station: int
    span: tuple[np.datetime64, np.datetime64] | None
    runs: np.ndarray
    duplicates: int
    negative: int

    def __init__(self, series: GaugeSeries):
        stamps = series.timestamps
        unique, counts = np.unique(stamps, return_counts=True)
        finite = True
        for values in series.channels().values():
            finite = finite & (values < np.inf) & (values > -np.inf)
        present = unique
        if not finite.all():  # an hour where any channel reads NaN or ±inf is missing
            present = unique[~np.isin(unique, stamps[~finite])]
        seconds = present.astype(np.int64)
        heads = np.flatnonzero(np.diff(seconds, prepend=seconds[:1]) != _HOUR_S)
        runs = np.column_stack([seconds[heads], np.diff(heads, append=seconds.size)])
        runs.flags.writeable = False
        set_field = object.__setattr__  # the instance is frozen
        set_field(self, "station", series.station)
        set_field(self, "span", (unique[0], unique[-1]) if unique.size else None)
        set_field(self, "runs", runs)
        set_field(self, "duplicates", int((counts - 1).sum()))
        set_field(self, "negative", int(np.sum(series.discharge < 0)))


def qc_station(tally: GaugeTally, start: np.datetime64, end: np.datetime64) -> QCReport:
    """Count negative discharge values and missing hourly slots of a station.

    Only strictly negative values count; zero is a valid reading. Missing
    slots are counted over [start, end), two whole-second ``np.datetime64``
    instants such as :func:`parse_timestamp` returns: a slot counts as
    present only when the tally holds a present hour exactly on it, that is
    an hour of a run whose first second lies on ``start``'s hour grid.
    Duplicated timestamps are counted as gaps on top, so a series that
    repeats an hour can never pass.
    """
    if not start < end:
        raise ValueError(f"period_start {start} must precede period_end {end}")
    expected = int((end - start) // HOUR)
    lo, hi = (np.datetime64(t, "s").astype(np.int64) for t in (start, end))
    first, length = tally.runs[(tally.runs[:, 0] - lo) % _HOUR_S == 0].T
    # the run's hours k in [0, length) with lo <= first + k·3600 < hi
    below = np.clip(-((first - lo) // _HOUR_S), 0, length)
    above = np.clip(-((first - hi) // _HOUR_S), 0, length)
    missing = expected - int((above - below).sum()) + tally.duplicates
    return QCReport(tally.station, negative_count=tally.negative, missing_hours=missing)


def parse_timestamp(text: str) -> np.datetime64:
    """Parse an ISO-8601 UTC instant ('Z' or '+00:00' suffix or naive) to the second.

    Another offset, or a nonzero fraction of a second, raises ``ValueError``.
    """
    dt = datetime.fromisoformat(text.strip().replace("Z", "+00:00"))
    if dt.tzinfo is not None:
        if dt.utcoffset():
            raise ValueError(f"timestamp {text!r} is not UTC")
        dt = dt.replace(tzinfo=None)
    if dt.microsecond:
        raise ValueError(f"timestamp {text!r} has a fraction of a second")
    return np.datetime64(dt, "s")


# ---------------------------------------------------------------------------
# bypass and subgraph extraction

def bypass_remove(net: RiverNetwork, station: int) -> RiverNetwork:
    """Remove a station while rerouting flow around it.

    Every (upstream -> station) edge pairs with every (station -> downstream)
    edge to form a direct edge whose stream length and elevation difference
    are the sums along the replaced path. When the direct edge already
    exists, the shorter stream length wins.
    """
    if station not in net:
        raise UnknownStation(f"station {station} not in network")

    incoming = net.in_edges(station)
    outgoing = net.out_edges(station)
    kept = {(e.src, e.dst): e for e in net.edges
            if e.src != station and e.dst != station}
    for up in incoming:
        for down in outgoing:
            merged = Edge(up.src, down.dst,
                          up.stream_length + down.stream_length,
                          up.elevation_diff + down.elevation_diff)
            existing = kept.get((merged.src, merged.dst))
            if existing is None or merged.stream_length < existing.stream_length:
                kept[(merged.src, merged.dst)] = merged

    nodes = [node for node in net.nodes if node != station]
    return build_network(nodes, kept.values())


def extract_subgraph(net: RiverNetwork, keep: Iterable[int]) -> RiverNetwork:
    """Bypass every station outside ``keep``, upstream-first, and return the rest."""
    keep_set = set(int(s) for s in keep)
    unknown = keep_set - set(net.nodes)
    if unknown:
        raise UnknownStation(f"keep set references unknown stations {sorted(unknown)}")
    current = net
    for station in net.topological_order():
        if station not in keep_set:
            current = bypass_remove(current, station)
    return current


# ---------------------------------------------------------------------------
# gauge CSV ingestion

def read_gauge_csv(path, column_map: dict[str, str] | None = None, *,
                   fallbacks: list | None = None) -> GaugeSeries:
    """Read one station's hourly series; the station id is the file stem.

    The default header is `timestamp,qobs`; ``column_map`` renames the two
    required columns. Any other columns become named feature channels.

    The body is parsed in one pass by numpy's C reader. A file that parse
    cannot take exactly (quotes, NULs or the separators ``\\x1c``-``\\x1f``, a
    repeated column, a ragged or whitespace-only row, a stamp not digit for
    digit ``YYYY-MM-DDTHH:MM:SS`` from year 1, with an optional ``Z`` or
    ``+00:00``) is read again row by row, which returns the same arrays or
    raises :class:`CsvFormatError` at its file:line. The path of such a file
    is appended to ``fallbacks`` when one is given.
    """
    path = Path(path)
    cmap = dict(DEFAULT_COLUMN_MAP)
    if column_map:
        cmap.update(column_map)
    try:
        station = int(path.stem)
    except ValueError:
        raise CsvFormatError(path, 0, f"file stem {path.stem!r} is not an integer gauge id") from None

    series = _read_gauge_columns(path, station, cmap)
    if series is None:
        if fallbacks is not None:
            fallbacks.append(path)
        try:
            series = _read_gauge_rows(path, station, cmap)
        except UnicodeDecodeError:
            raise CsvFormatError.undecodable(path) from None
    return series


_STAMP = np.dtype("S32")  # wide enough that a truncated field never looks canonical
_FIRST_SECOND = np.datetime64("0001-01-01T00:00:00", "s")  # datetime.MINYEAR
_TEXT = re.compile(rb"[^\r\n]")
# quotes and NULs, which numpy and the csv module read differently, and the
# separators \x1c-\x1f, which numpy strips from a number and float() does not
_NOT_NUMPY = tuple(bytes([c]) for c in b'"\x00\x1c\x1d\x1e\x1f')
_SHAPE = b"0000-00-00T00:00:00"  # "0" marks a digit: a byte c with c - 48 <= 9 in uint8


def _read_gauge_columns(path: Path, station: int, cmap: dict[str, str]) -> GaugeSeries | None:
    """The series of a file numpy can parse exactly, else None."""
    data = path.read_bytes()
    if any(byte in data for byte in _NOT_NUMPY):
        return None
    try:
        with path.open(newline="", encoding="utf-8") as fh, warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy reading an offset
            header = fh.readline()
            fields = next(csv.reader([header]), [])
            ts_name, q_name = cmap["timestamp"], cmap["discharge"]
            if (ts_name == q_name or ts_name not in fields or q_name not in fields
                    or len(set(fields)) != len(fields)
                    or ("discharge" in fields and "discharge" not in (ts_name, q_name))):
                return None
            if _TEXT.search(data, len(header.encode("utf-8"))) is None:
                return GaugeSeries(station, [], [])  # no line after the header has text
            del data  # freed before numpy reads the body
            ts = fields.index(ts_name)
            dtype = np.dtype([(f"c{k}", _STAMP if k == ts else "f8")
                              for k in range(len(fields))])
            body = np.loadtxt(fh, dtype=dtype, delimiter=",", comments=None, ndmin=1)
            stamps = _canonical_utc_stamps(body, f"c{ts}")
    except (ValueError, Warning):  # UnicodeDecodeError is a ValueError
        return None
    if stamps is None:
        return None
    # contiguous copies, so the record array (and its stamp text) is freed
    columns = {name: np.ascontiguousarray(body[f"c{k}"])
               for k, name in enumerate(fields) if k != ts}
    discharge = columns.pop(q_name)
    return GaugeSeries(station, stamps, discharge, columns)


def _canonical_utc_stamps(body: np.ndarray, field: str) -> np.ndarray | None:
    """The ``field`` column of the record array ``body`` as datetime64[s] when
    every stamp reads ``YYYY-MM-DDTHH:MM:SS``, optionally followed by ``Z`` or
    ``+00:00``; None when any is written another way, so that parse_timestamp
    decides it. Raises ValueError where numpy cannot read one. Exact: past the
    byte shape, numpy's parse rejects any field out of range (leap days
    included) and the bound year 0, so what passes is what
    ``np.datetime_as_string`` writes back byte for byte."""
    offset = body.dtype.fields[field][1]
    raw = body.view(np.uint8).reshape(body.size, body.dtype.itemsize)  # no copies
    tail = raw[:, offset + 19:offset + _STAMP.itemsize].view(f"S{_STAMP.itemsize - 19}")[:, 0]
    if not np.all((tail == b"") | (tail == b"Z") | (tail == b"+00:00")):
        return None
    for column, want in zip(raw[:, offset:offset + 19].T, _SHAPE):  # no (rows, 19) temporary
        if not np.all(column - want <= 9 if want == ord("0") else column == want):
            return None
    stamps = raw[:, offset:offset + 19].view("S19")[:, 0].astype("datetime64[s]")
    if not np.all(stamps >= _FIRST_SECOND):
        return None
    return stamps


def _read_gauge_rows(path: Path, station: int, cmap: dict[str, str]) -> GaugeSeries:
    """Row-by-row parse of the whole file; reports the line of the first bad row."""
    stamps: list[np.datetime64] = []
    discharge: list[float] = []
    extras: dict[str, list[float]] = {}
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        fields = reader.fieldnames or []
        for required in (cmap["timestamp"], cmap["discharge"]):
            if required not in fields:
                raise CsvFormatError(path, 1, f"missing column {required!r} in header {fields!r}")
        repeated = sorted({c for c in fields if fields.count(c) > 1})
        if repeated:
            raise CsvFormatError(path, 1, f"repeated columns {repeated} in header")
        feature_cols = [c for c in fields if c not in (cmap["timestamp"], cmap["discharge"])]
        if "discharge" in feature_cols:  # it would replace the mapped column in channels()
            raise CsvFormatError(path, 1, f"column 'discharge' would shadow the discharge "
                                 f"channel, which is read from column {cmap['discharge']!r}")
        for row in reader:
            # DictReader pads a short row with None and files extra cells under None
            if None in row or None in row.values():
                raise CsvFormatError(path, reader.line_num,
                                     f"row width differs from the header's {len(fields)} columns")
            try:
                stamps.append(parse_timestamp(row[cmap["timestamp"]]))
                discharge.append(float(row[cmap["discharge"]]))
                for col in feature_cols:
                    extras.setdefault(col, []).append(float(row[col]))
            except ValueError as exc:
                raise CsvFormatError(path, reader.line_num, str(exc)) from None
    return GaugeSeries(station, stamps, discharge, extras)


def write_qc_json(reports: Sequence[QCReport], path) -> None:
    payload = [r.as_dict() for r in reports]
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
