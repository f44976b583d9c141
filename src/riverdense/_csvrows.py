"""Adjacency CSV lines, ``src,dst,weight``, by the standard library alone. Run as
``python -I -S _csvrows.py <first row>``, it formats the float64 rows that follow the
comma-joined node ids on stdin, for :func:`riverdense.write_adjacency_csv`, to stdout."""

import sys


def write_rows(write, ids, rows):
    """``write`` each ``(src, cols, vals)`` row, indices into ``ids``, as ``src,dst,repr(v)``
    lines ending ``\\r\\n``; zeros (-0.0 too, not NaN) are skipped as by np.flatnonzero."""
    for src, cols, vals in rows:
        write("".join([f"{ids[src]},{ids[j]},{v!r}\r\n" for j, v in zip(cols, vals) if v]))


if __name__ == "__main__":
    ids, _, body = sys.stdin.buffer.read().partition(b"\n")
    ids, weights, first = ids.decode().split(","), memoryview(body).cast("d"), int(sys.argv[1])
    n = len(ids)
    write_rows(lambda text: sys.stdout.buffer.write(text.encode()), ids,
               ((first + k, range(n), weights[k * n:(k + 1) * n].tolist())
                for k in range(len(weights) // n)))
