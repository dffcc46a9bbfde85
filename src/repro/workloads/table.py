"""Partitioned tabular dataset with zone maps — the scan substrate.

A "listings" table is hosted as one fixed-width-row CSV virtual object per
city (same hosting trick as the Airbnb reviews: true size, content
generated deterministically per byte range) plus a *zone-map manifest*: a
JSON sidecar recording, for every row group, its byte range and the
min/max of every column.  Fixed-width rows make the byte layout algebraic
— row group ``g`` of an object occupies exactly
``[g * rows_per_group * ROW_BYTES, ...)`` — so a scan planner can turn
"which row groups might match" directly into COS byte ranges without ever
touching the data, and range boundaries never cut a row in half.

The ``day`` column is monotonically non-decreasing within each object
(rows are date-ordered, like real review/booking exports), which is what
makes zone-map pruning on day-range predicates effective; ``price`` /
``stars`` / ``nights`` are per-row randoms, so predicates on them
exercise the worker-side filter rather than the planner.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Optional

from repro.cos.object_store import CloudObjectStorage
from repro.datasets.airbnb import CITIES

#: column order of every row (and of the fixed-width CSV layout)
COLUMNS = ("id", "day", "city", "price", "stars", "nights")

#: columns whose zone-map min/max are numeric
NUMERIC_COLUMNS = ("id", "day", "price", "stars", "nights")

#: bytes per row, newline included — fixed width so group ``g`` starts at
#: byte ``g * rows_per_group * ROW_BYTES`` and rows never straddle ranges
ROW_BYTES = 36

#: days spanned by each object's date ordering
DAYS = 365

#: zone-map granularity (rows per group) unless ``load_table`` overrides
DEFAULT_ROWS_PER_GROUP = 64

DEFAULT_BUCKET = "listings"

#: the zone-map manifest sidecar, one per table bucket
MANIFEST_KEY = "_meta/zonemap.json"

_PRICE_RANGE = (20, 500)
_STARS_RANGE = (1, 5)
_NIGHTS_RANGE = (1, 30)

#: widest city name must fit the fixed-width city field
_CITY_WIDTH = 13

#: the fixed-width row layout, filled from ``(id, day, city, price, stars,
#: nights)`` with ``city`` as ASCII bytes
_ROW_TEMPLATE = b"%%08d,%%03d,%%-%ds,%%03d,%%d,%%02d\n" % _CITY_WIDTH


@dataclass(frozen=True)
class TableInfo:
    """Handle returned by :func:`load_table` (the manifest is the truth)."""

    bucket: str
    keys: tuple[str, ...]
    total_rows: int
    rows_per_group: int

    @property
    def total_bytes(self) -> int:
        return self.total_rows * ROW_BYTES


def format_row(values: dict) -> bytes:
    """Fixed-width CSV encoding of one row (exactly ``ROW_BYTES`` bytes)."""
    encoded = _ROW_TEMPLATE % (
        values["id"],
        values["day"],
        values["city"].encode("ascii"),
        values["price"],
        values["stars"],
        values["nights"],
    )
    if len(encoded) != ROW_BYTES:
        raise ValueError(f"row {values!r} encodes to {len(encoded)} bytes")
    return encoded


def parse_row(line: bytes) -> Optional[dict]:
    """Decode one fixed-width row; ``None`` for blank/malformed lines."""
    parts = line.split(b",")
    if len(parts) != len(COLUMNS):
        return None
    try:
        return {
            "id": int(parts[0]),
            "day": int(parts[1]),
            "city": parts[2].decode("ascii").rstrip(),
            "price": int(parts[3]),
            "stars": int(parts[4]),
            "nights": int(parts[5]),
        }
    except ValueError:
        return None


def parse_rows(data: bytes) -> list[dict]:
    """Decode a group-aligned byte range into row dicts."""
    rows = []
    for offset in range(0, len(data) - ROW_BYTES + 1, ROW_BYTES):
        row = parse_row(data[offset : offset + ROW_BYTES - 1])
        if row is not None:
            rows.append(row)
    return rows


def _draw_spec(bounds: tuple[int, int]) -> tuple[int, int, int]:
    """``(lo, n, k)`` such that ``randint(*bounds)`` is ``lo`` plus the first
    ``getrandbits(k)`` draw below ``n`` (``Random._randbelow``)."""
    lo, hi = bounds
    n = hi - lo + 1
    return lo, n, n.bit_length()


_PRICE_DRAW = _draw_spec(_PRICE_RANGE)
_STARS_DRAW = _draw_spec(_STARS_RANGE)
_NIGHTS_DRAW = _draw_spec(_NIGHTS_RANGE)


def _group_values(
    city: str, group: int, object_rows: int, rows_per_group: int
) -> list[tuple[int, int, int, int, int]]:
    """The ``(id, day, price, stars, nights)`` of one zone-map group, one
    tuple per row in :data:`NUMERIC_COLUMNS` order.

    The single source of the table's values: content bytes, zone maps and
    :func:`group_rows` all come from here.  Each row makes the draws of
    ``rng.randint`` on the three ranges, in order, through ``getrandbits``
    with the same rejection loop, so the stream is the ``randint`` one.
    """
    first = group * rows_per_group
    last = min(object_rows, first + rows_per_group)
    digest = hashlib.sha256(f"listings:{city}:{group}".encode()).digest()
    bits = random.Random(digest).getrandbits
    price_lo, price_n, price_k = _PRICE_DRAW
    stars_lo, stars_n, stars_k = _STARS_DRAW
    nights_lo, nights_n, nights_k = _NIGHTS_DRAW
    per_day = max(1, object_rows)
    values = []
    for rid in range(first, last):
        price = bits(price_k)
        while price >= price_n:
            price = bits(price_k)
        stars = bits(stars_k)
        while stars >= stars_n:
            stars = bits(stars_k)
        nights = bits(nights_k)
        while nights >= nights_n:
            nights = bits(nights_k)
        values.append(
            (
                rid,
                # date-ordered: monotone non-decreasing over the object
                rid * DAYS // per_day,
                price_lo + price,
                stars_lo + stars,
                nights_lo + nights,
            )
        )
    return values


def group_rows(
    city: str, group: int, object_rows: int, rows_per_group: int
) -> list[dict]:
    """The rows of one zone-map group, generated deterministically.

    The same values as the content generator and the zone-map
    computation, so the manifest's statistics are exact for the bytes a
    scan will read.
    """
    return [
        {
            "id": rid,
            "day": day,
            "city": city,
            "price": price,
            "stars": stars,
            "nights": nights,
        }
        for rid, day, price, stars, nights in _group_values(
            city, group, object_rows, rows_per_group
        )
    ]


def _group_stats(city: str, values: list[tuple]) -> dict:
    """Zone-map ``min``/``max`` of every column over one group's values."""
    columns = dict(zip(NUMERIC_COLUMNS, zip(*values)))
    return {
        "min": {**{col: min(v) for col, v in columns.items()}, "city": city},
        "max": {**{col: max(v) for col, v in columns.items()}, "city": city},
    }


def make_table_content_fn(city: str, object_rows: int, rows_per_group: int):
    """Deterministic byte-range generator for one table object."""
    group_bytes = rows_per_group * ROW_BYTES
    city_bytes = city.encode("ascii")

    def group_content(group: int) -> bytes:
        values = _group_values(city, group, object_rows, rows_per_group)
        blob = b"".join(
            [
                _ROW_TEMPLATE % (rid, day, city_bytes, price, stars, nights)
                for rid, day, price, stars, nights in values
            ]
        )
        if len(blob) != len(values) * ROW_BYTES:
            raise ValueError(
                f"group {group} of {city!r} does not encode to "
                f"{ROW_BYTES}-byte rows"
            )
        return blob

    def content_fn(start: int, end: int) -> bytes:
        if end <= start:
            return b""
        first = start // group_bytes
        last = (end - 1) // group_bytes
        blob = b"".join(group_content(g) for g in range(first, last + 1))
        offset = start - first * group_bytes
        return blob[offset : offset + (end - start)]

    return content_fn


def load_table(
    storage: CloudObjectStorage,
    bucket: str = DEFAULT_BUCKET,
    total_rows: int = 50_000,
    n_cities: int = 8,
    rows_per_group: int = DEFAULT_ROWS_PER_GROUP,
) -> TableInfo:
    """Create the table as virtual objects plus its zone-map manifest.

    One object per city (``rows/{city}.csv``), rows split evenly; the
    manifest at :data:`MANIFEST_KEY` records per-group byte ranges and
    min/max statistics that :func:`repro.workloads.scan.scan` prunes with.
    """
    if n_cities < 1 or n_cities > len(CITIES):
        raise ValueError(f"n_cities must be in [1, {len(CITIES)}]")
    if rows_per_group < 1:
        raise ValueError("rows_per_group must be positive")
    storage.create_bucket(bucket, exist_ok=True)
    cities = CITIES[:n_cities]
    base = total_rows // n_cities
    manifest: dict = {
        "row_bytes": ROW_BYTES,
        "rows_per_group": rows_per_group,
        "columns": list(COLUMNS),
        "objects": {},
    }
    keys = []
    for i, city in enumerate(cities):
        object_rows = base + (1 if i < total_rows % n_cities else 0)
        if object_rows == 0:
            continue
        key = f"rows/{city}.csv"
        keys.append(key)
        storage.put_virtual_object(
            bucket,
            key,
            object_rows * ROW_BYTES,
            content_fn=make_table_content_fn(city, object_rows, rows_per_group),
            metadata={"city": city, "rows": str(object_rows)},
        )
        groups = []
        n_groups = -(-object_rows // rows_per_group)
        for g in range(n_groups):
            values = _group_values(city, g, object_rows, rows_per_group)
            start = g * rows_per_group * ROW_BYTES
            groups.append(
                {
                    "start": start,
                    "end": start + len(values) * ROW_BYTES,
                    "rows": len(values),
                    **_group_stats(city, values),
                }
            )
        manifest["objects"][key] = {
            "rows": object_rows,
            "size": object_rows * ROW_BYTES,
            "groups": groups,
        }
    storage.put_object(
        bucket,
        MANIFEST_KEY,
        json.dumps(manifest, sort_keys=True).encode("ascii"),
        metadata={"kind": "zonemap"},
    )
    return TableInfo(
        bucket=bucket,
        keys=tuple(keys),
        total_rows=total_rows,
        rows_per_group=rows_per_group,
    )
