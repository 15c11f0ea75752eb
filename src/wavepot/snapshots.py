"""Self-describing binary snapshot files and CSV diagnostics.

One snapshot file holds one run: a text header (magic line plus a single JSON
line) followed by raw frames. Every frame stores the named fields in order as
little-endian float64 with the x axis varying fastest (Fortran order of the
(x, y, z)-indexed arrays). Times are uniform, ``time_start + n * time_step``,
except that an optional ``time_end`` gives the time of the last frame.
The format is plain enough to parse from any language; docs/snapshot_format.md
spells out the bytes.

All text output goes through ``repr`` of Python floats (shortest round-trip
form), which keeps reruns byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .grids import Grid

__all__ = [
    "MAGIC",
    "SnapshotWriter",
    "SnapshotData",
    "read_snapshot",
    "write_snapshot",
    "dump_csv",
    "DiagnosticsWriter",
    "StagedFile",
    "format_float",
]

MAGIC = "WAVEPOT-SNAP 1"


def format_float(x: float) -> str:
    return repr(float(x))


def _cells(column) -> Iterable[str]:
    """One CSV column: a Python int prints as an integer and any other value as
    ``format_float`` prints it. An ndarray column counts as its ``tolist()``, so
    an integer array prints as integers and a float array through ``repr``."""
    if isinstance(column, np.ndarray):
        return map(str if column.dtype.kind in "iu" else repr, column.tolist())
    return (str(v) if isinstance(v, int) else format_float(v) for v in column)


def _json_default(obj):
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    raise TypeError(f"not JSON-serializable: {obj!r}")


class StagedFile:
    """``path`` written as ``tmp`` (``<path>.tmp``) and renamed into place on a clean close.

    With ``mode``, ``tmp`` is opened as ``_fh``; without it the caller writes
    ``tmp`` itself. A ``with`` block that raises deletes ``tmp`` instead, so a
    failed run leaves no half-written ``path`` behind.
    """

    def __init__(self, path: str | Path, mode: str | None = None):
        self.path = Path(path)
        self.tmp = self.path.with_name(self.path.name + ".tmp")
        self._fh = None
        if mode:
            self._fh = open(self.tmp, mode, newline=None if "b" in mode else "")

    def close(self) -> None:
        if self._fh:
            self._fh.close()
        self.tmp.replace(self.path)

    def discard(self) -> None:
        if self._fh:
            self._fh.close()
        self.tmp.unlink(missing_ok=True)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            self.close()
        else:
            self.discard()


class SnapshotWriter(StagedFile):
    """Streams frames to a snapshot file without holding them all in memory.

    A ``StagedFile`` that is renamed to ``path`` only when the promised
    ``frame_count`` frames were written and the writer closes cleanly; a run
    that raises leaves no snapshot file behind. ``time_end`` is the time of
    the last frame when it falls off the uniform grid (a run whose step count
    is not a multiple of its stride), else None.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        kind: str,
        grid: Grid,
        fields: Sequence[str],
        time_start: float,
        time_step: float,
        frame_count: int,
        time_end: float | None,
        provenance: dict,
    ):
        super().__init__(path, "wb")
        self.grid = grid
        self.fields = tuple(fields)
        self.frame_count = frame_count
        self._written = 0
        header = {
            "fields": list(self.fields),
            "frame_count": int(frame_count),
            "grid": {"points": list(grid.points), "lengths": list(grid.lengths)},
            "kind": kind,
            "provenance": provenance,
            "time_start": float(time_start),
            "time_step": float(time_step),
        }
        if time_end is not None:
            header["time_end"] = float(time_end)
        self._fh.write((MAGIC + "\n").encode("ascii"))
        self._fh.write(
            (json.dumps(header, sort_keys=True, default=_json_default) + "\n").encode("ascii")
        )

    def write_frame(self, arrays: Sequence[np.ndarray]) -> None:
        if len(arrays) != len(self.fields):
            raise ValueError(f"expected {len(self.fields)} arrays, got {len(arrays)}")
        for arr in arrays:
            data = np.asarray(arr, dtype="<f8")
            if data.shape != self.grid.shape:
                raise ValueError(f"frame array shape {data.shape} != grid {self.grid.shape}")
            self._fh.write(data.tobytes(order="F"))
        self._written += 1

    def close(self) -> None:
        if self._written != self.frame_count:
            self.discard()
            raise ValueError(
                f"snapshot header promised {self.frame_count} frames, wrote {self._written}"
            )
        super().close()


@dataclass(frozen=True)
class SnapshotData:
    """A fully loaded snapshot file; ``time_end`` as in its header (or None)."""

    kind: str
    grid: Grid
    fields: tuple[str, ...]
    times: np.ndarray
    frames: list[dict[str, np.ndarray]]
    provenance: dict
    time_end: float | None


def write_snapshot(
    path: str | Path,
    *,
    kind: str,
    grid: Grid,
    fields: Sequence[str],
    times: Sequence[float],
    frames: Iterable[Sequence[np.ndarray]],
    provenance: dict,
) -> None:
    """Write a whole record at once; ``times`` must be uniformly spaced."""
    times = np.asarray(times, dtype=float)
    step = float(times[1] - times[0]) if times.size > 1 else 0.0
    with SnapshotWriter(
        path,
        kind=kind,
        grid=grid,
        fields=fields,
        time_start=float(times[0]),
        time_step=step,
        frame_count=len(times),
        time_end=None,
        provenance=provenance,
    ) as writer:
        for frame in frames:
            writer.write_frame(frame)


def read_snapshot(path: str | Path) -> SnapshotData:
    path = Path(path)
    with open(path, "rb") as fh:
        magic = fh.readline().decode("ascii").rstrip("\n")
        if magic != MAGIC:
            raise ValueError(f"{path} is not a snapshot file (magic {magic!r})")
        header = json.loads(fh.readline().decode("ascii"))
        try:
            grid = Grid(tuple(header["grid"]["points"]), tuple(header["grid"]["lengths"]))
            kind, fields = header["kind"], tuple(header["fields"])
            count = header["frame_count"]
            if type(count) is not int or count < 1:  # a run records its first and last step
                raise ValueError(f"{path} has frame_count {count!r}, not a positive integer")
            times = header["time_start"] + header["time_step"] * np.arange(count)
        except KeyError as exc:
            raise ValueError(f"{path} header lacks the key {exc.args[0]!r}") from None
        except TypeError as exc:  # a header that is not an object, or a grid that is not lists
            raise ValueError(f"{path} has a malformed header: {exc}") from None
        frame_bytes = grid.size * 8
        frames = []
        for _ in range(count):
            entry = {}
            for name in fields:
                raw = fh.read(frame_bytes)
                if len(raw) != frame_bytes:
                    raise ValueError(f"{path} is truncated")
                entry[name] = (
                    np.frombuffer(raw, dtype="<f8").reshape(grid.shape, order="F").copy()
                )
            frames.append(entry)
        tail = fh.read(1)
        if tail:
            raise ValueError(f"{path} has trailing bytes")
    time_end = header.get("time_end")
    if time_end is not None:
        times[-1] = time_end
    return SnapshotData(kind, grid, fields, times, frames, header.get("provenance", {}), time_end)


def dump_csv(data: SnapshotData, out_path: str | Path, frame: int | None = None) -> None:
    """Convert snapshot frames to CSV: one row per grid point per frame.

    Written through ``DiagnosticsWriter``, so a failed dump leaves no CSV; a
    ``frame`` outside the record raises ValueError before anything is written.
    """
    count = len(data.frames)
    if frame is not None and not 0 <= frame < count:
        raise ValueError(f"frame {frame} is out of range: the record holds frames 0 to {count - 1}")
    coord_names = ("x", "y", "z")[: data.grid.dims]
    axes = [data.grid.axis_coordinates(a) for a in range(data.grid.dims)]
    mesh = np.meshgrid(*axes, indexing="ij")
    flat_coords = [m.ravel(order="F") for m in mesh]
    which = range(count) if frame is None else [frame]
    size = data.grid.size
    with DiagnosticsWriter(out_path, ["frame", "time", *coord_names, *data.fields]) as out:
        for n in which:
            cols = [data.frames[n][name].ravel(order="F") for name in data.fields]
            out.write_rows([np.full(size, n), np.full(size, data.times[n]), *flat_coords, *cols])


class DiagnosticsWriter(StagedFile):
    """Streaming CSV writer with a fixed column order.

    A ``StagedFile``: a run that raises leaves no diagnostics file behind.
    """

    def __init__(self, path: str | Path, columns: Sequence[str]):
        super().__init__(path, "w")
        self.columns = tuple(columns)
        self._fh.write(",".join(self.columns) + "\n")

    def write_row(self, values: Sequence) -> None:
        self.write_rows([[v] for v in values])

    def write_rows(self, columns: Sequence[Sequence]) -> None:
        """Write a block of rows, given as one equal-length sequence per column
        (cells as ``_cells`` prints them), to the file as one string."""
        if len(columns) != len(self.columns):
            raise ValueError("diagnostics row does not match the column order")
        cells = zip(*map(_cells, columns), strict=True)
        self._fh.write("".join(",".join(row) + "\n" for row in cells))
