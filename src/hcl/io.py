"""HCL1 field containers and the one CSV writer.

Container layout (little-endian):
    magic   4 bytes  b"HCL1"
    n       uint32   complex dimension
    rank    uint32   number of array axes (spatial axes first)
    dims    rank x uint32
    flags   rank x uint8   (1 = periodic spatial axis, 0 otherwise; no other byte)
    data    float64, C order (first axis slowest)

Complex fields are stored with a trailing axis of size 2 (re, im).  A field
reads back only on a domain of its n, shape and flags; an unreadable path or a
malformed container raises ConfigError.  `CsvWriter` writes every CSV artifact.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .grid import GridDomain, HermitianField, ScalarField

__all__ = [
    "write_array",
    "read_array",
    "write_scalar_field",
    "read_scalar_field",
    "write_hermitian_field",
    "read_hermitian_values",
    "export_csv",
    "CsvWriter",
]

MAGIC = b"HCL1"
SCHEMA_LINE = "# hcl-schema v1"


def write_array(path, values: np.ndarray, n: int, flags) -> None:
    values = np.ascontiguousarray(values, dtype=np.float64)
    flags = list(flags)
    if len(flags) != values.ndim:
        raise ConfigError("one flag per array axis required")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", int(n), values.ndim))
        fh.write(struct.pack(f"<{values.ndim}I", *values.shape))
        fh.write(struct.pack(f"<{values.ndim}B", *[1 if f else 0 for f in flags]))
        fh.write(values.tobytes(order="C"))


def read_array(path):
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read field file: {exc}") from exc
    if raw[:4] != MAGIC:
        raise ConfigError(f"{path}: not an HCL1 container")
    n, rank = struct.unpack_from("<II", raw, 4) if len(raw) >= 12 else (0, 0)
    off = 12 + 5 * rank
    dims = struct.unpack_from(f"<{rank}I", raw, 12) if len(raw) >= off else ()
    count = int(np.prod(dims, dtype=object))  # 8 bytes each, after 12 + 5 rank
    if len(raw) < off + 8 * count:
        raise ConfigError(f"{path}: HCL1 container cut short at {len(raw)} bytes")
    flags = struct.unpack_from(f"<{rank}B", raw, 12 + 4 * rank)
    if not set(flags) <= {0, 1}:
        raise ConfigError(f"{path}: periodicity flag not 0 or 1")
    values = np.frombuffer(raw, dtype="<f8", count=count, offset=off).reshape(dims)
    return values.copy(), int(n), tuple(bool(f) for f in flags)


def write_scalar_field(path, f: ScalarField) -> None:
    write_array(path, f.values, f.domain.n, f.domain.periodic)


def _read_on(path, domain: GridDomain, tail=()) -> np.ndarray:
    """A container's values, if its n, shape and flags are the domain's
    followed by the non-periodic trailing axes `tail`."""
    values, n, flags = read_array(path)
    if (n != domain.n or values.shape != domain.shape + tail
            or flags != domain.periodic + (False,) * len(tail)):
        raise ConfigError(f"{path}: container does not match the domain")
    return values


def read_scalar_field(path, domain: GridDomain) -> ScalarField:
    return ScalarField(domain, _read_on(path, domain))


def write_hermitian_field(path, f: HermitianField) -> None:
    v = f.values
    stacked = np.stack([v.real, v.imag], axis=-1)
    flags = list(f.domain.periodic) + [0, 0, 0]
    write_array(path, stacked, f.domain.n, flags)


def read_hermitian_values(path, domain: GridDomain) -> HermitianField:
    values = _read_on(path, domain, (domain.n, domain.n, 2))
    return HermitianField(domain, values[..., 0] + 1j * values[..., 1])


def export_csv(path, f: ScalarField) -> None:
    """Axis indices plus value, one node per row."""
    d = len(f.domain.shape)
    CsvWriter(path, [*(f"i{a}" for a in range(d)), "value"]).flush(
        *np.indices(f.domain.shape).reshape(d, -1), f.values.reshape(-1))


def _formatter(kind):
    """The cell format of one value type: bools as true/false, integers in
    decimal, floats to 17 significant digits, anything else by str."""
    if issubclass(kind, (bool, np.bool_)):
        return lambda x: "true" if x else "false"
    if issubclass(kind, (int, np.integer)):
        return lambda x: str(int(x))
    if issubclass(kind, (float, np.floating)):
        return lambda x: "%.17g" % float(x)
    return str


def _cells(column: list) -> list[str]:
    """A column's cells, formatted once per value type it holds."""
    fmts = {kind: _formatter(kind) for kind in set(map(type, column))}
    return [fmts[type(x)](x) for x in column]


class CsvWriter:
    """The schema line, `# seed N` unless seed is None, the header, then one
    row per entry of the columns given to `flush`, formatted column by column;
    identical (columns, seed, data) give identical bytes."""

    def __init__(self, path, columns, seed=None):
        self.path = Path(path)
        self.columns = list(columns)
        self.seed = seed

    def flush(self, *columns) -> None:
        """Write the file from equally long columns (lists or arrays)."""
        if len(columns) != len(self.columns) or len(set(map(len, columns))) > 1:
            raise ConfigError("row width does not match the column schema")
        cells = [_cells(c.tolist() if isinstance(c, np.ndarray) else c) for c in columns]
        seed = "" if self.seed is None else f"# seed {self.seed}\n"
        with open(self.path, "w", newline="") as fh:
            fh.write(f"{SCHEMA_LINE}\n{seed}{','.join(self.columns)}\n")
            fh.writelines(",".join(row) + "\n" for row in zip(*cells))
