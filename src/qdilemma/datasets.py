"""Figure datasets: named numeric columns plus the config that made them.

Every file embeds its full generating configuration so a run can be
replayed and byte-compared.  CSV numbers are rendered in fixed notation
with 12 significant digits and a locale-independent decimal point.  JSON is
written directly, one column at a time, in exactly the layout of
``json.dumps(payload, sort_keys=True, indent=2)``, whose indented encoder
is pure Python and several times slower.

A column is a list, formatted cell by cell, or a 1-D float64 array (no other
array: its bits would be misread), formatted once per distinct bit pattern,
so ``-0.0`` stays apart from ``0.0``, in one ``%`` pass.  The per-cell
formatter redoes only the cells that pass cannot write: a CSV cell with no
'.' or with an exponent, a non-finite JSON cell.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

CSV_META_PREFIX = "# meta: "
_DECODER = json.JSONDecoder()


@dataclass(frozen=True)
class FigureDataset:
    kind: str
    columns: dict  # name -> list or 1-D float64 array, equal lengths, insertion ordered
    metadata: dict

    def __post_init__(self):
        for name, v in self.columns.items():
            if isinstance(v, np.ndarray) and (v.ndim != 1 or v.dtype != np.float64):
                raise ValueError(f"column {name!r} is a {v.ndim}-D {v.dtype} array, "
                                 "not 1-D float64")
        lengths = {len(v) for v in self.columns.values()}
        if len(lengths) > 1:
            raise ValueError(f"column lengths differ: {lengths}")


def format_number(x) -> str:
    """Fixed-notation rendering, 12 significant digits, '.' decimal point.

    '%.12g' rounds as numpy's Dragon4 does and is positional for magnitudes
    from 1e-4 up to 1e12; exponent forms, inf and nan go to numpy.
    """
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    text = "%.12g" % x
    if "e" in text or "n" in text:
        return np.format_float_positional(x, precision=12, unique=False, fractional=False,
                                          trim="0")
    return text if "." in text else text + ".0"


def format_exact(x: float, min_digits: int | None = None) -> str:
    """Shortest positional rendering that reads back as the same float."""
    return np.format_float_positional(
        x, unique=True, fractional=False, trim="-", min_digits=min_digits
    )


def _column_cells(values, fmt) -> list[str]:
    """fmt(v) for each value; an array column formats each distinct value once."""
    if not isinstance(values, np.ndarray):
        return list(map(fmt, values))
    bits, inverse = np.unique(values.view(np.uint64), return_inverse=True)
    distinct = bits.view(np.float64)
    if fmt is format_number:  # '%.12g' is the whole rendering of a positional float
        cells = ("%.12g\n" * len(bits) % tuple(distinct.tolist())).split("\n")[:-1]
        redo = [i for i, cell in enumerate(cells) if "." not in cell or "e" in cell]
    else:  # '%r' is json's rendering of a finite float
        cells = ("%r\n" * len(bits) % tuple(distinct.tolist())).split("\n")[:-1]
        redo = np.flatnonzero(~np.isfinite(distinct)).tolist()
    for i in redo:
        cells[i] = fmt(distinct[i])
    return np.array(cells, dtype=object)[inverse].tolist()


def to_csv(ds: FigureDataset) -> str:
    meta = {"kind": ds.kind, **ds.metadata}
    lines = [CSV_META_PREFIX + json.dumps(meta, sort_keys=True, separators=(",", ":"))]
    lines.append(",".join(ds.columns))
    cells = [_column_cells(values, format_number) for values in ds.columns.values()]
    lines.extend(map(",".join, zip(*cells)))
    return "\n".join(lines) + "\n"


def _json_item(v) -> str:
    """One column entry as json.dumps writes it: strings as strings, the
    rest as floats."""
    if isinstance(v, str):
        return json.dumps(v)
    x = float(v)
    return float.__repr__(x) if math.isfinite(x) else json.dumps(x)


def to_json(ds: FigureDataset) -> str:
    columns = []
    for name in sorted(ds.columns):
        items = _column_cells(ds.columns[name], _json_item)
        body = "[\n      " + ",\n      ".join(items) + "\n    ]" if items else "[]"
        columns.append(f"    {json.dumps(name)}: {body}")
    columns_text = "{\n" + ",\n".join(columns) + "\n  }" if columns else "{}"
    # json escapes newlines inside strings, so every newline here is layout
    kind, metadata = (
        json.dumps(v, sort_keys=True, indent=2).replace("\n", "\n  ")
        for v in (ds.kind, ds.metadata)
    )
    return (f'{{\n  "columns": {columns_text},\n  "kind": {kind},\n'
            f'  "metadata": {metadata}\n}}\n')


def render(ds: FigureDataset, fmt: str) -> str:
    if fmt == "csv":
        return to_csv(ds)
    if fmt == "json":
        return to_json(ds)
    raise ValueError(f"unknown format {fmt!r} (expected csv or json)")


def read_metadata(text: str) -> dict:
    """Recover the embedded metadata (including kind) from a rendered dataset.

    Reads only the metadata, where the writers put it: the first line of
    to_csv's layout, the trailing kind and metadata of to_json's, and only
    a JSON object there.  The columns are not parsed, so a file whose
    columns are damaged still yields its metadata; its replay then fails on
    the byte comparison.
    """
    if text.startswith(CSV_META_PREFIX):
        meta = json.loads(text.partition("\n")[0][len(CSV_META_PREFIX):])
        if isinstance(meta, dict):
            return meta
    kind_key, metadata_key = '\n  "kind": ', ',\n  "metadata": '
    start = text.rfind(kind_key) if text.startswith("{") else -1
    if start >= 0:
        try:
            kind, end = _DECODER.raw_decode(text, start + len(kind_key))
            if text.startswith(metadata_key, end):
                metadata, end = _DECODER.raw_decode(text, end + len(metadata_key))
                if text[end:] == "\n}\n" and isinstance(metadata, dict):
                    return {"kind": kind, **metadata}
        except ValueError:
            pass
    raise ValueError("no embedded metadata found in dataset file")
