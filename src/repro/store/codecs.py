"""Object-graph codecs: the library's state ↔ (JSON manifest + array table).

The encoder walks the object graph rooted at the component being
snapshotted and lowers it to exactly two representations:

* **numpy arrays** go to the snapshot's array table (little-endian bytes with
  pinned dtype/shape/checksum, :mod:`repro.store.format`);
* **everything else** goes to a tagged JSON structure.

It knows the kinds of value the library's state holds, and no more.  JSON
scalars (``None``, bools, strings, floats, ints below 2**53) are themselves;
every other value is a node tagged with one of 15 kinds: ``array`` and
``astack`` (array-table entries), ``obj`` (an entry in a shared *object
table*), ``int`` (a big int), ``bytes``, ``npscalar`` (an ``np.generic`` —
without it an ``np.float64`` would decode as a ``float``), ``list``,
``tuple``, ``frozenset``, ``dict``, ``odict``, ``deque`` (with its
``maxlen``), ``rng`` (an ``np.random.Generator``), ``lock`` and ``rlock``.
Containers match their exact type: a ``Counter``, ``defaultdict``, ``set``,
dtype, function, method or class in state is not a repro object and fails at
save, and a manifest naming any other tag fails at load as an unknown node.

Three properties make restored components behave exactly like the originals:

1. **Shared references and cycles survive** — for class instances and
   directly referenced arrays.  Each is encoded once (by identity) and
   referenced thereafter; decode memoizes the same way, so e.g. the
   estimator registered on a serving endpoint and the one held by an
   :class:`~repro.core.IncrementalUpdateManager` restore to the *same*
   object.  Plain containers (lists/dicts/frozensets) are values: two holders
   of one list decode to two equal lists, and an array inside a stacked list
   is distinct from a standalone reference to it — the library shares state
   through objects and reassigns containers rather than mutating them in
   place, so this is unobservable today; don't build in-place container
   sharing on top of it.
2. **Only repro classes decode.**  An object's class is stored as a
   ``module:qualname`` string and re-resolved on load; anything outside the
   ``repro`` package, or a name that does not resolve back to itself, raises
   :class:`SnapshotFormatError` — a snapshot can never make the loader import
   arbitrary code.
3. **Locks restore fresh; other live state fails loudly at save time.**  A
   ``threading.Lock`` or ``RLock`` is written as a stateless node and
   restores as a new, unlocked lock of the same kind — held or not at save
   time, since it guards live threads rather than state — so no class needs a
   hook for its lock.  Closures, lambdas, open thread pools, or an autograd
   graph in flight raise :class:`SnapshotError` naming the offending object.

Hook protocol: ``__snapshot_state__(self) -> dict`` returns the attribute
dict to persist (defaults to ``__dict__`` / ``__slots__``);
``__snapshot_restore__(self, state)`` rebuilds the instance from the decoded
dict (defaults to attribute assignment).  Instances are created with
``cls.__new__(cls)`` — ``__init__`` never runs on restore.  A class defines
the pair only to drop what is derived or live and rebuild it.  Five do: the
engine (drops caller-supplied estimator factories), the merged shard
estimator (drops its stacked weights), the curve cache (re-freezes its
curves), the delta indexes (compact first, write the tombstone view as a row
count, drop index-derived caches) and their growable arrays (trim capacity
slack).

One deliberate non-guarantee: long homogeneous lists of equal-shape arrays
(dataset columns) are stacked into a single array entry for compactness, so
their restored elements are views of one base array.  Values are identical;
the library treats record arrays as immutable, so the aliasing is unobservable.
"""

from __future__ import annotations

import importlib
import json
import threading
from collections import OrderedDict, deque
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from .format import ArrayWriter, LazyArrayReader, SnapshotError, SnapshotFormatError

#: The package object references may resolve into at load time.
_ALLOWED_MODULE_ROOT = "repro"

#: numpy BitGenerator names allowed when restoring ``np.random.Generator``s.
_ALLOWED_BIT_GENERATORS = {"PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64"}

#: Lock types written as stateless nodes, and the factories restoring them.
_LOCK_TAGS = {type(threading.Lock()): "lock", type(threading.RLock()): "rlock"}
_LOCK_FACTORIES = {"lock": threading.Lock, "rlock": threading.RLock}

#: Lists of at least this many same-dtype/shape arrays are stacked into one
#: array-table entry instead of one entry per element.
_STACK_THRESHOLD = 16


def _qualified_ref(obj: Any) -> str:
    module = getattr(obj, "__module__", None)
    qualname = getattr(obj, "__qualname__", None)
    if not module or not qualname:
        raise SnapshotError(f"cannot build a stable reference for {obj!r}")
    if "<locals>" in qualname:
        raise SnapshotError(
            f"cannot snapshot {module}:{qualname}: a class defined inside a "
            "function has no stable import path.  Move it to module level."
        )
    return f"{module}:{qualname}"


def _resolve_ref(ref: str) -> Any:
    """Resolve a ``module:qualname`` reference inside the ``repro`` package.

    Resolution must *round-trip*: the resolved object's own
    ``__module__:__qualname__`` has to equal ``ref``.  Without this check a
    tampered manifest could tunnel through a repro module into its imports
    (``repro.store.format:os.system`` resolves via attribute traversal!) and
    reach arbitrary callables.
    """
    module_name, _, qualname = ref.partition(":")
    if not module_name or not qualname:
        raise SnapshotFormatError(f"malformed reference {ref!r}")
    if module_name != _ALLOWED_MODULE_ROOT and not module_name.startswith(
        _ALLOWED_MODULE_ROOT + "."
    ):
        raise SnapshotFormatError(
            f"snapshot references {ref!r}, outside the {_ALLOWED_MODULE_ROOT!r} "
            "package; refusing to import it"
        )
    try:
        target: Any = importlib.import_module(module_name)
        for part in qualname.split("."):
            target = getattr(target, part)
    except (ImportError, AttributeError) as error:
        raise SnapshotFormatError(f"cannot resolve snapshot reference {ref!r}") from error
    try:
        canonical = _qualified_ref(target)
    except SnapshotError as error:
        raise SnapshotFormatError(
            f"snapshot reference {ref!r} resolved to an unverifiable object"
        ) from error
    if canonical != ref:
        raise SnapshotFormatError(
            f"snapshot reference {ref!r} resolved to {canonical!r}; refusing "
            "an alias that escapes the whitelist"
        )
    return target


def _sort_key(encoded: Any) -> str:
    """Deterministic ordering key for frozenset elements (content-based)."""
    return json.dumps(encoded, sort_keys=True, default=str)


class GraphEncoder:
    """Encodes one object graph into (root value, object table, array table)."""

    def __init__(self) -> None:
        self.writer = ArrayWriter()
        self.objects: List[Optional[Dict[str, Any]]] = []
        # Memos hold the objects themselves so ids stay unique for the
        # encoder's lifetime (id() values can be recycled after a gc).
        self._object_memo: Dict[int, Tuple[Any, int]] = {}
        self._array_memo: Dict[int, Tuple[Any, int]] = {}

    # ------------------------------------------------------------------ #
    # Values
    # ------------------------------------------------------------------ #
    def encode(self, value: Any) -> Any:
        if value is None or value is True or value is False:
            return value
        if isinstance(value, np.ndarray):
            return {"t": "array", "id": self._array_id(value)}
        if isinstance(value, np.generic):
            # Before the plain str/int/float branches: np.float64 IS a float
            # subclass (and np.str_ a str subclass) — letting them fall
            # through would silently decode to builtins and lose the numpy
            # scalar API on the restored object.
            return self._encode_npscalar(value)
        if isinstance(value, str):
            return value
        if isinstance(value, int):
            return {"t": "int", "v": str(value)} if abs(value) >= 2**53 else value
        if isinstance(value, float):
            return value
        if isinstance(value, (bytes, bytearray)):
            return {"t": "bytes", "hex": bytes(value).hex()}
        if isinstance(value, deque):
            return {
                "t": "deque",
                "maxlen": value.maxlen,
                "items": [self.encode(item) for item in value],
            }
        if type(value) is OrderedDict:
            return {"t": "odict", "items": self._encode_pairs(value.items())}
        if type(value) is dict:
            return {"t": "dict", "items": self._encode_pairs(value.items())}
        if isinstance(value, list):
            stacked = self._try_stack(value)
            if stacked is not None:
                return stacked
            return {"t": "list", "items": [self.encode(item) for item in value]}
        if isinstance(value, tuple):
            return {"t": "tuple", "items": [self.encode(item) for item in value]}
        if type(value) is frozenset:
            items = sorted((self.encode(item) for item in value), key=_sort_key)
            return {"t": "frozenset", "items": items}
        if isinstance(value, np.random.Generator):
            name = type(value.bit_generator).__name__
            if name not in _ALLOWED_BIT_GENERATORS:
                raise SnapshotError(f"unsupported bit generator {name!r}")
            # The state dict is NOT plain JSON — MT19937/Philox/SFC64 states
            # hold ndarrays — so it goes through the codec like everything else.
            return {
                "t": "rng",
                "bit_generator": name,
                "state": self.encode(value.bit_generator.state),
            }
        lock_tag = _LOCK_TAGS.get(type(value))
        if lock_tag is not None:
            return {"t": lock_tag}
        return {"t": "obj", "id": self._object_id(value)}

    def _encode_pairs(self, pairs: Any) -> List[List[Any]]:
        return [[self.encode(key), self.encode(item)] for key, item in pairs]

    def _encode_npscalar(self, value: np.generic) -> Dict[str, Any]:
        array = np.asarray(value)
        if array.dtype.hasobject:
            raise SnapshotError(f"cannot snapshot object-dtype numpy scalar {value!r}")
        little = array.dtype.newbyteorder("<")
        if array.dtype != little:
            array = array.astype(little)
        return {"t": "npscalar", "dtype": array.dtype.str, "hex": array.tobytes().hex()}

    def _try_stack(self, value: list) -> Optional[Dict[str, Any]]:
        """Lower a long homogeneous list of arrays to ONE stacked array entry."""
        if len(value) < _STACK_THRESHOLD:
            return None
        first = value[0]
        if not isinstance(first, np.ndarray) or first.dtype.hasobject:
            return None
        for item in value[1:]:
            if (
                not isinstance(item, np.ndarray)
                or item.dtype != first.dtype
                or item.shape != first.shape
            ):
                return None
        stacked = np.stack(value)
        index = self.writer.add(stacked)
        return {"t": "astack", "id": index, "count": len(value)}

    # ------------------------------------------------------------------ #
    # Tables
    # ------------------------------------------------------------------ #
    def _array_id(self, array: np.ndarray) -> int:
        key = id(array)
        if key in self._array_memo:
            return self._array_memo[key][1]
        index = self.writer.add(array)
        self._array_memo[key] = (array, index)
        return index

    def _object_id(self, obj: Any) -> int:
        key = id(obj)
        if key in self._object_memo:
            return self._object_memo[key][1]
        cls = type(obj)
        ref = _qualified_ref(cls)
        module = cls.__module__ or ""
        if module != _ALLOWED_MODULE_ROOT and not module.startswith(
            _ALLOWED_MODULE_ROOT + "."
        ):
            raise SnapshotError(
                f"cannot snapshot {ref}: only objects from the "
                f"{_ALLOWED_MODULE_ROOT!r} package are snapshottable.  Wrap or "
                "drop the attribute in the owning class's __snapshot_state__."
            )
        # Reserve the slot BEFORE encoding state so cycles terminate.
        index = len(self.objects)
        self.objects.append(None)
        self._object_memo[key] = (obj, index)
        state = self._object_state(obj, ref)
        try:
            encoded_state = self._encode_pairs(state.items())
        except SnapshotError as error:
            raise SnapshotError(f"while encoding {ref}: {error}") from error
        self.objects[index] = {"class": ref, "state": encoded_state}
        return index

    @staticmethod
    def _object_state(obj: Any, ref: str) -> Dict[str, Any]:
        hook = getattr(obj, "__snapshot_state__", None)
        if hook is not None:
            return hook()
        if hasattr(obj, "__dict__"):
            return dict(obj.__dict__)
        state: Dict[str, Any] = {}
        for klass in type(obj).__mro__:
            for name in getattr(klass, "__slots__", ()):
                if name in ("__dict__", "__weakref__") or name in state:
                    continue
                if hasattr(obj, name):
                    state[name] = getattr(obj, name)
        if not state and not hasattr(obj, "__slots__"):
            raise SnapshotError(f"{ref} exposes neither __dict__ nor __slots__")
        return state


class GraphDecoder:
    """Decodes what :class:`GraphEncoder` produced, preserving shared refs."""

    def __init__(self, objects: List[Dict[str, Any]], reader: LazyArrayReader) -> None:
        self._objects = objects
        self._reader = reader
        self._memo: Dict[int, Any] = {}

    def decode(self, encoded: Any) -> Any:
        if encoded is None or isinstance(encoded, (bool, int, float, str)):
            return encoded
        if not isinstance(encoded, dict):
            raise SnapshotFormatError(f"unexpected node {encoded!r}")
        tag = encoded.get("t")
        if tag == "array":
            return self._reader.get(int(encoded["id"]))
        if tag == "astack":
            stacked = self._reader.get(int(encoded["id"]))
            count = int(encoded["count"])
            if len(stacked) != count:
                raise SnapshotFormatError(
                    f"stacked list expects {count} rows, array holds {len(stacked)}"
                )
            return [stacked[i] for i in range(count)]
        if tag == "obj":
            return self._decode_object(int(encoded["id"]))
        if tag == "int":
            return int(encoded["v"])
        if tag == "bytes":
            return bytes.fromhex(encoded["hex"])
        if tag == "npscalar":
            dtype = np.dtype(encoded["dtype"])
            array = np.frombuffer(bytes.fromhex(encoded["hex"]), dtype=dtype)
            if array.size != 1:
                raise SnapshotFormatError("npscalar payload is not a single element")
            return array.astype(dtype.newbyteorder("="), copy=True)[0]
        if tag == "list":
            return [self.decode(item) for item in encoded["items"]]
        if tag == "tuple":
            return tuple(self.decode(item) for item in encoded["items"])
        if tag == "frozenset":
            return frozenset(self.decode(item) for item in encoded["items"])
        if tag == "dict":
            return {self.decode(k): self.decode(v) for k, v in encoded["items"]}
        if tag == "odict":
            return OrderedDict((self.decode(k), self.decode(v)) for k, v in encoded["items"])
        if tag == "deque":
            return deque(
                (self.decode(item) for item in encoded["items"]), maxlen=encoded["maxlen"]
            )
        if tag == "rng":
            name = encoded["bit_generator"]
            if name not in _ALLOWED_BIT_GENERATORS:
                raise SnapshotFormatError(f"unsupported bit generator {name!r}")
            generator = np.random.Generator(getattr(np.random, name)())
            generator.bit_generator.state = self.decode(encoded["state"])
            return generator
        if tag in _LOCK_FACTORIES:
            return _LOCK_FACTORIES[tag]()
        raise SnapshotFormatError(f"unknown node tag {tag!r}")

    def _decode_object(self, index: int) -> Any:
        if index in self._memo:
            return self._memo[index]
        try:
            entry = self._objects[index]
        except IndexError as error:
            raise SnapshotFormatError(f"object index {index} out of range") from error
        cls = _resolve_ref(entry["class"])
        if not isinstance(cls, type):
            raise SnapshotFormatError(f"{entry['class']!r} is not a class")
        obj = cls.__new__(cls)
        # Memoize BEFORE decoding state so reference cycles close on `obj`.
        self._memo[index] = obj
        state = {self.decode(k): self.decode(v) for k, v in entry["state"]}
        hook = getattr(obj, "__snapshot_restore__", None)
        if hook is not None:
            hook(state)
        elif hasattr(obj, "__dict__"):
            obj.__dict__.update(state)
        else:
            for name, value in state.items():
                object.__setattr__(obj, name, value)
        return obj
