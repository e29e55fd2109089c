"""The standard library's rendering of CLI documents: the oracle for `cli._render_json`.

A JSON document is `json.dumps(indent=2)` of the document with every float
replaced by float(f"{x:.12g}"), tuples and every other sequence but a string
(the CLI's columnar records) read as lists of their items.  A CSV document is
`csv.DictWriter` output of the row dicts, the header read from the first row,
floats written with 12 significant digits.
"""

import csv
import io
import json
from collections.abc import Sequence


def round_floats(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: round_floats(v) for k, v in obj.items()}
    if isinstance(obj, Sequence) and not isinstance(obj, str):
        return [round_floats(v) for v in obj]
    return obj


def render_json(doc) -> str:
    return json.dumps(round_floats(doc), indent=2) + "\n"


def render_csv(rows) -> str:
    rows = list(rows)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: f"{v:.12g}" if isinstance(v, float) else str(v) for k, v in row.items()})
    return buf.getvalue()
