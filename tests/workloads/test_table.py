"""The zone-mapped table substrate: layout algebra and manifest truth."""

from __future__ import annotations

import hashlib
import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cos.object_store import CloudObjectStorage
from repro.datasets.airbnb import CITIES
from repro.workloads import table as tbl
from repro.workloads.table import DAYS, _NIGHTS_RANGE, _PRICE_RANGE, _STARS_RANGE


@pytest.fixture()
def storage(kernel) -> CloudObjectStorage:
    return CloudObjectStorage(kernel)


class TestRowLayout:
    def test_row_roundtrip_is_exact(self):
        row = {"id": 7, "day": 123, "city": "san-francisco",
               "price": 499, "stars": 5, "nights": 30}
        encoded = tbl.format_row(row)
        assert len(encoded) == tbl.ROW_BYTES
        assert tbl.parse_row(encoded[:-1]) == row

    def test_every_city_name_fits(self):
        from repro.datasets.airbnb import CITIES

        for city in CITIES:
            row = {"id": 0, "day": 0, "city": city,
                   "price": 20, "stars": 1, "nights": 1}
            assert tbl.parse_row(tbl.format_row(row)[:-1])["city"] == city

    def test_parse_rows_skips_garbage(self):
        good = tbl.format_row(
            {"id": 1, "day": 2, "city": "rome", "price": 30,
             "stars": 3, "nights": 4}
        )
        assert tbl.parse_rows(b"x" * tbl.ROW_BYTES + good) == [
            tbl.parse_row(good[:-1])
        ]

    @settings(max_examples=50, deadline=None)
    @given(
        object_rows=st.integers(min_value=1, max_value=300),
        rows_per_group=st.integers(min_value=1, max_value=64),
        window=st.tuples(
            st.integers(min_value=0, max_value=10_000),
            st.integers(min_value=0, max_value=10_000),
        ),
    )
    def test_content_fn_slices_consistently(
        self, object_rows, rows_per_group, window
    ):
        """Any byte range equals the same slice of the full object."""
        fn = tbl.make_table_content_fn("venice", object_rows, rows_per_group)
        size = object_rows * tbl.ROW_BYTES
        full = fn(0, size)
        assert len(full) == size
        start, end = sorted(w % (size + 1) for w in window)
        assert fn(start, end) == full[start:end]


def reference_group_rows(
    city: str, group: int, object_rows: int, rows_per_group: int
) -> list[dict]:
    """The ``randint``-based row generator the table's stream is pinned to."""
    first = group * rows_per_group
    last = min(object_rows, first + rows_per_group)
    digest = hashlib.sha256(f"listings:{city}:{group}".encode()).digest()
    rng = random.Random(digest)
    rows = []
    for rid in range(first, last):
        rows.append(
            {
                "id": rid,
                # date-ordered: monotone non-decreasing over the object
                "day": rid * DAYS // max(1, object_rows),
                "city": city,
                "price": rng.randint(*_PRICE_RANGE),
                "stars": rng.randint(*_STARS_RANGE),
                "nights": rng.randint(*_NIGHTS_RANGE),
            }
        )
    return rows


class TestReferenceStream:
    """Rows, and the bytes of every group, equal the ``randint`` stream."""

    @settings(max_examples=80, deadline=None)
    @given(
        city=st.sampled_from(CITIES),
        object_rows=st.integers(min_value=1, max_value=400),
        rows_per_group=st.integers(min_value=1, max_value=96),
        group_pick=st.integers(min_value=0),
    )
    @example(city="venice", object_rows=100, rows_per_group=1, group_pick=99)
    @example(city="rome", object_rows=100, rows_per_group=64, group_pick=1)
    @example(city="san-francisco", object_rows=1, rows_per_group=64, group_pick=0)
    def test_group_matches_randint_reference(
        self, city, object_rows, rows_per_group, group_pick
    ):
        n_groups = -(-object_rows // rows_per_group)
        group = group_pick % n_groups
        reference = reference_group_rows(city, group, object_rows, rows_per_group)
        assert tbl.group_rows(city, group, object_rows, rows_per_group) == reference

        fn = tbl.make_table_content_fn(city, object_rows, rows_per_group)
        start = group * rows_per_group * tbl.ROW_BYTES
        end = start + len(reference) * tbl.ROW_BYTES
        assert fn(start, end) == b"".join(tbl.format_row(r) for r in reference)


class TestLoadTable:
    def test_manifest_matches_object_bytes(self, storage):
        info = tbl.load_table(
            storage, total_rows=500, n_cities=3, rows_per_group=32
        )
        manifest = json.loads(
            storage.get_object(info.bucket, tbl.MANIFEST_KEY).read()
        )
        assert set(manifest["objects"]) == set(info.keys)
        total_rows = 0
        for key, obj in manifest["objects"].items():
            data = storage.get_object(info.bucket, key).read()
            assert len(data) == obj["size"]
            rows = tbl.parse_rows(data)
            assert len(rows) == obj["rows"]
            total_rows += obj["rows"]
            for group in obj["groups"]:
                group_rows = tbl.parse_rows(data[group["start"]:group["end"]])
                assert len(group_rows) == group["rows"]
                for col in tbl.NUMERIC_COLUMNS + ("city",):
                    values = [r[col] for r in group_rows]
                    assert group["min"][col] == min(values)
                    assert group["max"][col] == max(values)
        assert total_rows == info.total_rows == 500

    def test_day_column_is_date_ordered(self, storage):
        info = tbl.load_table(
            storage, total_rows=300, n_cities=2, rows_per_group=16
        )
        for key in info.keys:
            rows = tbl.parse_rows(storage.get_object(info.bucket, key).read())
            days = [r["day"] for r in rows]
            assert days == sorted(days)
            assert [r["id"] for r in rows] == list(range(len(rows)))

    def test_rejects_bad_parameters(self, storage):
        with pytest.raises(ValueError):
            tbl.load_table(storage, n_cities=0)
        with pytest.raises(ValueError):
            tbl.load_table(storage, n_cities=99)
        with pytest.raises(ValueError):
            tbl.load_table(storage, rows_per_group=0)
