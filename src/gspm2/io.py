"""Result serialization: CSV series, versioned JSON reports, legacy-VTK snapshots.

Deterministic payloads (energy series, reports, config echoes) are written
with repr-exact floats and sorted JSON keys so identical runs produce
byte-identical files. Wall-clock timings are never mixed into them; they go
to their own CSV.
"""

from __future__ import annotations

import json

import numpy as np

SCHEMA_VERSION = 1


def write_csv(path: str, header, rows):
    """Write rows of numbers as CSV; floats use repr (shortest round-trip)."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(
                repr(float(v)) if isinstance(v, float) or isinstance(v, np.floating)
                else str(int(v))
                for v in row) + "\n")


def write_json(path: str, payload: dict):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_vtk_structured_points(path: str, m: np.ndarray, origin, spacing):
    """Legacy-VTK STRUCTURED_POINTS file with one 3-vector per cell center.

    m has shape (3, nx, ny, nz); points are emitted x-fastest as the format
    requires, each component as the repr of its float. Each z-plane's vectors
    are formatted by one %, so the transient text is one plane's.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 4 or m.shape[0] != 3:
        raise ValueError(f"expected (3, nx, ny, nz) field, got shape {m.shape}")
    nx, ny, nz = m.shape[1:]
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write("magnetization snapshot\n")
        fh.write("ASCII\n")
        fh.write("DATASET STRUCTURED_POINTS\n")
        fh.write(f"DIMENSIONS {nx} {ny} {nz}\n")
        fh.write("ORIGIN {!r} {!r} {!r}\n".format(*[float(v) for v in origin]))
        fh.write("SPACING {!r} {!r} {!r}\n".format(*[float(v) for v in spacing]))
        fh.write(f"POINT_DATA {nx * ny * nz}\n")
        fh.write("VECTORS m double\n")
        fmt = "%r %r %r\n" * (nx * ny)
        for plane in m.transpose(3, 2, 1, 0):
            fh.write(fmt % tuple(plane.ravel().tolist()))
