"""Property tests for cache-key stability (``diskcache.content_key``).

The on-disk cache is only correct if the same logical spec always hashes
to the same key — across dict insertion orders, numpy dtype aliases of the
same value, and process boundaries — and different specs hash to different
keys.  A key that wobbles turns the cache into a write-only store; a key
that collides serves the wrong artifact.
"""

import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec.gop import EncoderParameters
from repro.datasets import diskcache
from repro.experiments import ExperimentConfig
from repro.errors import DatasetError

#: JSON-representable scalars usable as canonical leaves.
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=20),
)

#: Nested spec-like values: dicts/lists/tuples of scalars.
specs = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=12,
)


def shuffled_dicts(value, order):
    """``value`` with every dict's insertion order permuted by ``order``."""
    if isinstance(value, dict):
        keys = sorted(value, key=lambda key: (order(key), key))
        return {key: shuffled_dicts(value[key], order) for key in keys}
    if isinstance(value, list):
        return [shuffled_dicts(item, order) for item in value]
    return value


class TestSameSpecSameKey:
    @given(spec=specs, salt=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=80, deadline=None)
    def test_dict_insertion_order_is_irrelevant(self, spec, salt):
        reordered = shuffled_dicts(spec, order=lambda key: hash((salt, key)))
        assert diskcache.content_key(spec) == diskcache.content_key(reordered)

    @given(value=st.integers(min_value=-(2**31), max_value=2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_integer_dtype_aliases_share_the_key(self, value):
        base = diskcache.content_key(value)
        for dtype in (np.int32, np.int64):
            assert diskcache.content_key(dtype(value)) == base
        if value >= 0:
            for dtype in (np.uint32, np.uint64):
                assert diskcache.content_key(dtype(value)) == base

    @given(value=st.floats(allow_nan=False, allow_infinity=False, width=32))
    @settings(max_examples=60, deadline=None)
    def test_float_dtype_aliases_share_the_key(self, value):
        # width=32 floats are exactly representable in float32, so the
        # float32 alias carries the identical value.
        assert (diskcache.content_key(np.float32(value))
                == diskcache.content_key(float(value)))
        assert (diskcache.content_key(np.float64(value))
                == diskcache.content_key(float(value)))

    @given(spec=specs)
    @settings(max_examples=40, deadline=None)
    def test_keys_are_deterministic_within_a_process(self, spec):
        assert diskcache.content_key(spec) == diskcache.content_key(spec)

    def test_dataclass_and_tuple_orderings(self):
        """The experiment key ingredients (frozen dataclasses) are keyed by
        field value, independent of construction order."""
        a = EncoderParameters(gop_size=120, scenecut_threshold=40.0)
        b = EncoderParameters(scenecut_threshold=40.0, gop_size=120)
        assert diskcache.content_key(a) == diskcache.content_key(b)
        config_a = ExperimentConfig(duration_seconds=8.0, render_scale=0.06)
        config_b = ExperimentConfig(render_scale=0.06, duration_seconds=8.0)
        assert (diskcache.content_key(config_a)
                == diskcache.content_key(config_b))


class TestDifferentSpecDifferentKey:
    @given(left=specs, right=specs)
    @settings(max_examples=80, deadline=None)
    def test_distinct_canonical_specs_get_distinct_keys(self, left, right):
        # The oracle is the canonical JSON serialisation (what the key
        # hashes), not Python equality: ``[False] == [0]`` in Python, but
        # the cache rightly keys booleans and integers apart.
        canonical_left = json.dumps(diskcache._canonical(left),
                                    sort_keys=True)
        canonical_right = json.dumps(diskcache._canonical(right),
                                     sort_keys=True)
        if canonical_left == canonical_right:
            assert (diskcache.content_key(left)
                    == diskcache.content_key(right))
        else:
            assert (diskcache.content_key(left)
                    != diskcache.content_key(right))

    def test_bool_and_int_are_distinct_keys(self):
        """Found by hypothesis: Python conflates ``False == 0`` but the
        cache must not — a boolean flag and an integer 0/1 are different
        spec ingredients."""
        assert diskcache.content_key(False) != diskcache.content_key(0)
        assert diskcache.content_key(True) != diskcache.content_key(1)

    def test_every_experiment_ingredient_moves_the_key(self):
        base = dict(name="jackson_square", split="full", duration=8.0,
                    scale=0.06)
        key = diskcache.content_key(base)
        for field, changed in [("name", "venice"), ("split", "train"),
                               ("duration", 9.0), ("scale", 0.08)]:
            assert diskcache.content_key({**base, field: changed}) != key


#: Computes keys for specs received as JSON on argv; prints them as JSON.
_CHILD_SCRIPT = """
import json
import sys

sys.path.insert(0, sys.argv[1])
from repro.codec.gop import EncoderParameters
from repro.datasets import diskcache
from repro.experiments import ExperimentConfig

specs = json.loads(sys.argv[2])
keys = [diskcache.content_key(spec) for spec in specs]
keys.append(diskcache.content_key(
    EncoderParameters(gop_size=120, scenecut_threshold=40.0)))
keys.append(diskcache.content_key(
    ExperimentConfig(duration_seconds=8.0, render_scale=0.06,
                     datasets=("jackson_square",))))
print(json.dumps(keys))
"""


class TestCrossProcessStability:
    def test_keys_match_across_interpreter_sessions(self):
        """A fresh interpreter (different hash seed, fresh imports) must
        derive the same keys — otherwise the cross-session cache is a
        write-only store."""
        import repro
        src = repro.__file__.rsplit("/repro/", 1)[0]
        json_specs = [
            {"b": 2, "a": [1, 2.5, None], "nested": {"y": False, "x": "s"}},
            ["unicode-é中", 3.14159, -7],
            {"duration": 8.0, "scale": 0.06, "name": "jackson_square"},
        ]
        expected = [diskcache.content_key(spec) for spec in json_specs]
        expected.append(diskcache.content_key(
            EncoderParameters(gop_size=120, scenecut_threshold=40.0)))
        expected.append(diskcache.content_key(
            ExperimentConfig(duration_seconds=8.0, render_scale=0.06,
                             datasets=("jackson_square",))))
        result = subprocess.run(
            [sys.executable, "-c", _CHILD_SCRIPT, src, json.dumps(json_specs)],
            capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout) == expected

    def test_unpicklable_spec_parts_fail_loudly(self):
        """Anything keyed by memory address must raise rather than produce
        a per-process key (regression guard mirrored from the unit suite,
        kept here because it is the property the rest relies on)."""
        with pytest.raises(DatasetError):
            diskcache.content_key(object())
