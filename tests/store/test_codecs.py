"""Object-graph codecs: containers, shared refs, cycles, and the whitelist."""

from __future__ import annotations

import io
import threading
from collections import Counter, OrderedDict, defaultdict, deque

import numpy as np
import pytest

from repro.serving.registry import default_record_key
from repro.store import SnapshotError, SnapshotFormatError
from repro.store.codecs import GraphDecoder, GraphEncoder
from repro.store.format import LazyArrayReader


def roundtrip(value):
    encoder = GraphEncoder()
    encoded = encoder.encode(value)
    reader = LazyArrayReader(io.BytesIO(encoder.writer.payload()), encoder.writer.entries)
    return GraphDecoder(encoder.objects, reader).decode(encoded)


class TestScalarsAndContainers:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            -17,
            2**80,  # beyond float53 JSON precision
            3.5,
            float("inf"),
            -0.0,
            "héllo",
            b"\x00\xffbytes",
            (1, "two", 3.0),
            [1, [2, [3]]],
            {"a": 1, "b": [2]},
            {1: "int-key", (2, 3): "tuple-key", b"k": "bytes-key"},
            {4, 5, 6},
            frozenset({7, 8}),
        ],
        ids=str,
    )
    def test_value_round_trip(self, value):
        restored = roundtrip(value)
        assert restored == value
        assert type(restored) is type(value)

    def test_nan_round_trips(self):
        restored = roundtrip(float("nan"))
        assert isinstance(restored, float) and np.isnan(restored)

    def test_float_bits_survive(self):
        import struct

        for value in (0.1, 1e-308, 1.7976931348623157e308, -2.5e-10):
            assert struct.pack("<d", roundtrip(value)) == struct.pack("<d", value)

    def test_ordered_dict_preserves_order(self):
        value = OrderedDict([("z", 1), ("a", 2), ("m", 3)])
        restored = roundtrip(value)
        assert isinstance(restored, OrderedDict)
        assert list(restored.items()) == list(value.items())

    def test_defaultdict_keeps_factory(self):
        value = defaultdict(list, {"x": [1]})
        restored = roundtrip(value)
        assert isinstance(restored, defaultdict)
        assert restored.default_factory is list
        assert restored["x"] == [1]
        restored["new"].append(2)  # the factory still works
        assert restored["new"] == [2]

    def test_counter_round_trips(self):
        value = Counter({"ab": 2, "cd": 1})
        restored = roundtrip(value)
        assert isinstance(restored, Counter) and restored == value

    def test_deque_keeps_maxlen(self):
        value = deque([1.0, 2.0, 3.0], maxlen=5)
        restored = roundtrip(value)
        assert isinstance(restored, deque)
        assert restored.maxlen == 5 and list(restored) == [1.0, 2.0, 3.0]

    def test_numpy_scalars(self):
        for value in (np.float64(2.5), np.int64(-3), np.uint8(7), np.bool_(True)):
            restored = roundtrip(value)
            assert restored == value and restored.dtype == value.dtype

    def test_numpy_scalar_subclasses_of_builtins_keep_their_type(self):
        # Regression: np.float64 is a float subclass (np.str_ a str subclass);
        # a naive isinstance order would silently decode them as builtins and
        # strip the numpy scalar API from the restored object.
        restored = roundtrip(np.float64(1.5))
        assert type(restored) is np.float64
        assert restored.dtype == np.float64  # the numpy API survives
        restored_str = roundtrip(np.str_("ab"))
        assert isinstance(restored_str, np.str_)

    def test_dtype_round_trips(self):
        assert roundtrip(np.dtype("<f4")) == np.dtype("<f4")

    def test_rng_resumes_identically(self):
        rng = np.random.default_rng(123)
        rng.integers(0, 100, size=7)  # advance the state
        restored = roundtrip(rng)
        np.testing.assert_array_equal(
            rng.integers(0, 1000, size=16), restored.integers(0, 1000, size=16)
        )

    @pytest.mark.parametrize(
        "bit_generator", ["PCG64", "MT19937", "Philox", "SFC64"]
    )
    def test_every_whitelisted_bit_generator_round_trips(self, bit_generator):
        # Regression: MT19937/Philox/SFC64 states hold ndarrays — they must
        # flow through the codec, not be embedded raw into the JSON manifest.
        rng = np.random.Generator(getattr(np.random, bit_generator)(42))
        rng.integers(0, 100, size=5)
        restored = roundtrip(rng)
        assert type(restored.bit_generator).__name__ == bit_generator
        np.testing.assert_array_equal(
            rng.integers(0, 1000, size=16), restored.integers(0, 1000, size=16)
        )


class TestSharingAndCycles:
    def test_shared_array_identity_survives(self):
        shared = np.arange(6.0)
        restored = roundtrip({"a": shared, "b": shared})
        assert restored["a"] is restored["b"]
        np.testing.assert_array_equal(restored["a"], shared)

    def test_shared_object_identity_survives(self):
        from repro.workloads.examples import QueryExample

        example = QueryExample(record="abc", theta=1.0, cardinality=3)
        restored = roundtrip([example, example, QueryExample("d", 2.0, 4)])
        assert restored[0] is restored[1]
        assert restored[0] is not restored[2]
        assert restored[0].record == "abc" and restored[0].cardinality == 3

    def test_reference_cycle_closes(self):
        from repro.engine.catalog import AttributeCatalog

        catalog = AttributeCatalog()
        # Manufacture a cycle through plain attributes.
        catalog.loop = {"self": catalog}
        try:
            restored = roundtrip(catalog)
        finally:
            del catalog.loop
        assert restored.loop["self"] is restored

    def test_long_homogeneous_array_list_is_stacked(self):
        rows = [np.full(4, i, dtype=np.uint8) for i in range(32)]
        encoder = GraphEncoder()
        encoded = encoder.encode(rows)
        assert encoded["t"] == "astack"
        assert len(encoder.writer.entries) == 1  # ONE entry, not 32
        reader = LazyArrayReader(io.BytesIO(encoder.writer.payload()), encoder.writer.entries)
        restored = GraphDecoder(encoder.objects, reader).decode(encoded)
        assert len(restored) == 32
        for i, row in enumerate(restored):
            np.testing.assert_array_equal(row, rows[i])

    def test_heterogeneous_list_is_not_stacked(self):
        rows = [np.zeros(3), np.zeros(4)] * 20
        encoder = GraphEncoder()
        assert encoder.encode(rows)["t"] == "list"


class TestLocks:
    def test_locks_restore_fresh_and_unlocked_of_the_same_kind(self):
        held, free = threading.Lock(), threading.RLock()
        with held:
            encoder = GraphEncoder()
            encoded = encoder.encode({"held": held, "free": free})
        assert [node for _, node in encoded["items"]] == [{"t": "lock"}, {"t": "rlock"}]
        restored = roundtrip({"held": held, "free": free})
        for key, original in (("held", held), ("free", free)):
            lock = restored[key]
            assert type(lock) is type(original)
            assert lock is not original
            assert lock.acquire(blocking=False)
            lock.release()
        with restored["free"], restored["free"]:  # still re-entrant
            pass


class TestCallableReferences:
    def test_module_function_round_trips_to_same_object(self):
        assert roundtrip(default_record_key) is default_record_key

    def test_bound_method_rebinds_to_restored_owner(self):
        from repro.featurization.hamming import HammingFeatureExtractor

        extractor = HammingFeatureExtractor(dimension=8, theta_max=4.0)
        restored = roundtrip({"fn": extractor.transform_record, "owner": extractor})
        assert restored["fn"].__self__ is restored["owner"]
        record = np.ones(8, dtype=np.uint8)
        np.testing.assert_array_equal(
            restored["fn"](record), extractor.transform_record(record)
        )

    def test_closure_fails_loudly_at_save_time(self):
        def local_function():  # pragma: no cover - never called
            return 1

        with pytest.raises(SnapshotError, match="stable import path"):
            roundtrip(local_function)

    def test_lambda_fails_loudly_at_save_time(self):
        with pytest.raises(SnapshotError):
            roundtrip(lambda x: x)


class TestWhitelist:
    def test_non_repro_object_is_rejected_at_save(self):
        import json

        with pytest.raises(SnapshotError, match="only objects from"):
            roundtrip(json.JSONDecoder())

    def test_decoder_refuses_imports_outside_repro(self):
        reader = LazyArrayReader(io.BytesIO(), [])
        decoder = GraphDecoder([{"class": "os:system", "state": []}], reader)
        with pytest.raises(SnapshotFormatError, match="refusing"):
            decoder.decode({"t": "obj", "id": 0})

    def test_decoder_refuses_unlisted_builtins(self):
        reader = LazyArrayReader(io.BytesIO(), [])
        decoder = GraphDecoder([], reader)
        with pytest.raises(SnapshotFormatError, match="whitelist"):
            decoder.decode({"t": "fn", "ref": "builtins:eval"})

    def test_decoder_refuses_attribute_traversal_out_of_repro(self):
        # Regression: "repro.store.format:os.system" passes the module-prefix
        # check but resolves INTO the imported os module — the round-trip
        # identity check must reject the alias (a tampered manifest could
        # otherwise execute it, e.g. as a defaultdict factory).
        reader = LazyArrayReader(io.BytesIO(), [])
        decoder = GraphDecoder([], reader)
        for node in (
            {"t": "fn", "ref": "repro.store.format:os.system"},
            {"t": "cls", "ref": "repro.store.format:Path"},
            {"t": "ddict", "factory": "repro.store.format:os.getcwd", "items": []},
        ):
            with pytest.raises(SnapshotFormatError):
                decoder.decode(node)

    def test_unknown_tag_raises(self):
        reader = LazyArrayReader(io.BytesIO(), [])
        with pytest.raises(SnapshotFormatError, match="unknown node tag"):
            GraphDecoder([], reader).decode({"t": "mystery"})
