"""Float64 arrays through the framing and protocol helpers.

* the client's list-lifting decision is unchanged by its one-pass
  implementation: exact floats only, at least 32 of them;
* ``decode_body(..., lists=False)`` hands a request grid back as the
  float64 array it was sent as, with the same values as the list form;
* an ndarray grid encodes as the JSON list it stands for and hashes to
  the same response-cache key.
"""

from __future__ import annotations

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import wire
from repro.service.protocol import encode, request_cache_key


def reference_liftable(value):
    """The lift decision as a per-element check, for comparison."""
    if (
        isinstance(value, list)
        and len(value) >= 32
        and all(type(v) is float for v in value)
    ):
        return np.asarray(value, dtype=np.float64)
    return None


#: Elements that must keep a list in JSON, mixed in with floats.
NON_FLOATS = st.one_of(
    st.integers(-5, 5),
    st.booleans(),
    st.floats(allow_nan=False).map(np.float64),
    st.none(),
    st.text(max_size=2),
)


@st.composite
def field_values(draw):
    floats = st.floats(allow_nan=False)
    size = draw(st.integers(0, 80))
    values = draw(st.lists(floats, min_size=size, max_size=size))
    for _ in range(draw(st.integers(0, 2))):
        if values:
            spot = draw(st.integers(0, len(values) - 1))
            values[spot] = draw(NON_FLOATS)
    return values


class TestLiftDecision:
    @settings(max_examples=300, deadline=None)
    @given(field_values())
    def test_matches_the_per_element_reference(self, value):
        lifted = wire._liftable(value)
        expected = reference_liftable(value)
        if expected is None:
            assert lifted is None
        else:
            assert lifted is not None and lifted.dtype == np.float64
            assert lifted.tolist() == expected.tolist()

    def test_edge_cases_stay_json(self):
        floats = [0.5 * i for i in range(40)]
        assert wire._liftable(floats) is not None
        assert wire._liftable(floats[:31]) is None
        assert wire._liftable([*floats, 1]) is None
        assert wire._liftable([*floats, True]) is None
        assert wire._liftable([*floats, np.float64(1.0)]) is None
        assert wire._liftable(tuple(floats)) is None


class TestRequestGridArrays:
    GRID = [0.25 * i for i in range(1, 65)]
    BODY = {"op": "eval", "machine": "gtx580-double", "model": "power",
            "metric": "power", "intensities": GRID, "id": 3}

    def frame_body(self):
        frame = wire.encode_frame(wire.KIND_REQUEST, 3, self.BODY)
        kind, nsections, _, _ = wire.parse_header(frame[: wire.HEADER_SIZE])
        return kind, nsections, frame[wire.HEADER_SIZE:]

    def test_decode_keeps_the_grid_an_array_on_request(self):
        kind, nsections, body = self.frame_body()
        as_lists = wire.decode_body(kind, nsections, body)
        as_array = wire.decode_body(kind, nsections, body, lists=False)
        grid = as_array.pop("intensities")
        assert isinstance(grid, np.ndarray) and grid.dtype == np.float64
        assert grid.ndim == 1 and grid.tolist() == self.GRID
        assert as_lists.pop("intensities") == self.GRID
        assert as_array == as_lists

    def test_ndarray_grid_encodes_and_hashes_as_its_list(self):
        kind, nsections, body = self.frame_body()
        request = wire.decode_body(kind, nsections, body, lists=False)
        assert json.loads(encode(request)) == self.BODY
        assert request_cache_key(request) == request_cache_key(self.BODY)
        same_order = {**self.BODY, "intensities": np.array(self.GRID)}
        assert encode(same_order) == encode(self.BODY)
