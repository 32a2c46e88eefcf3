"""Figure datasets: named numeric columns plus the config that made them.

Every file embeds its full generating configuration so a run can be
replayed and byte-compared.  CSV numbers are rendered in fixed notation
with 12 significant digits and a locale-independent decimal point.  JSON is
written directly, one column at a time, in exactly the layout of
``json.dumps(payload, sort_keys=True, indent=2)``, whose indented encoder
is pure Python and several times slower.

Both writers format a column once per distinct value (a landscape's t
columns hold only `steps` values).  The memo skips zeros and anything that
is not a float: ``0.0 == -0.0`` and ``1 == 1.0`` compare equal but render
differently, so they must not share an entry.
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
    columns: dict  # name -> list of values, equal lengths, insertion ordered
    metadata: dict

    def __post_init__(self):
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
    """fmt(v) for each value, formatting each distinct nonzero float once."""
    memo = {}
    cells = []
    for v in values:
        if isinstance(v, float) and v:
            cell = memo.get(v)
            if cell is None:
                cell = memo[v] = fmt(v)
        else:
            cell = fmt(v)
        cells.append(cell)
    return cells


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
    to_csv's layout, the trailing kind and metadata of to_json's.  The
    columns are not parsed, so a file whose columns are damaged still
    yields its metadata; its replay then fails on the byte comparison.
    """
    if text.startswith(CSV_META_PREFIX):
        return json.loads(text.partition("\n")[0][len(CSV_META_PREFIX):])
    kind_key, metadata_key = '\n  "kind": ', ',\n  "metadata": '
    start = text.rfind(kind_key) if text.startswith("{") else -1
    if start >= 0:
        try:
            kind, end = _DECODER.raw_decode(text, start + len(kind_key))
            if text.startswith(metadata_key, end):
                metadata, end = _DECODER.raw_decode(text, end + len(metadata_key))
                if text[end:] == "\n}\n":
                    return {"kind": kind, **metadata}
        except ValueError:
            pass
    raise ValueError("no embedded metadata found in dataset file")
