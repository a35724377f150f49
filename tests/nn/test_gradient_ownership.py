"""The ownership rule of ``repro.nn.tensor``, checked on generated graphs.

Two properties, for random small programs over ``+``, ``*``, ``reshape``,
``concatenate``, ``stack`` and ``__getitem__`` (basic and integer-array, with
repeated indices), where operands are drawn with replacement so ``x + x`` and a
leaf used many times occur:

* **Same numbers as the parent semantics.**  The engine used to give every
  node a ``zeros_like`` array and ``+=`` each gradient into it (``__getitem__``
  through ``np.add.at`` on a fresh full-size array).  That rule is
  re-implemented here, on plain arrays, and the leaf gradients must be
  *bit-identical*: taking the first gradient instead of adding it to zero, and
  adding through a view, are the same floating-point operations.
* **No aliasing.**  No leaf's ``.grad`` shares memory with another leaf's or
  with the array the caller passed to ``backward``; overwriting one in place
  changes nothing else; nodes that are not leaves hold no gradient afterwards.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.nn import Tensor

SHAPE = (2, 3)
NUM_LEAVES = 3

# Every instruction maps (2, 3) operands to a (2, 3) result, so any sequence is
# well-formed.  ``index`` entries are applied after the named operation.
BASIC_INDICES = [
    (slice(1, 3),),                         # rows 1..2 of a (4, 3) concatenation
    (slice(0, 4, 2),),                      # a strided view
    (slice(None), slice(0, 3)),
]
ARRAY_INDICES = [
    (np.array([0, 0]),),                    # one row twice
    (np.array([1, 0]),),
    (slice(None), np.array([2, 2, 0])),     # one column twice
    (np.array([[True, True, True], [True, True, True]]),),
]

instruction = st.one_of(
    st.tuples(st.just("add"), st.integers(0, 99), st.integers(0, 99)),
    st.tuples(st.just("mul"), st.integers(0, 99), st.integers(0, 99)),
    st.tuples(st.just("reshape"), st.integers(0, 99), st.sampled_from([(3, 2), (6,), (1, 6)])),
    st.tuples(st.just("concatenate"), st.integers(0, 99), st.integers(0, 99),
              st.integers(0, len(BASIC_INDICES) - 2)),
    st.tuples(st.just("stack"), st.integers(0, 99), st.integers(0, 99), st.integers(0, 1)),
    st.tuples(st.just("basic"), st.integers(0, 99), st.just(len(BASIC_INDICES) - 1)),
    st.tuples(st.just("gather"), st.integers(0, 99), st.integers(0, len(ARRAY_INDICES) - 1)),
)
programs = st.lists(instruction, min_size=1, max_size=8)


def run_engine(program, leaf_values, upstream):
    """The program on Tensors; returns (leaves, every intermediate node)."""
    leaves = [Tensor(value.copy(), requires_grad=True) for value in leaf_values]
    values = list(leaves)
    for op, *args in program:
        a = values[args[0] % len(values)]
        if op in ("add", "mul", "concatenate", "stack"):
            b = values[args[1] % len(values)]
        if op == "add":
            out = a + b
        elif op == "mul":
            out = a * b
        elif op == "reshape":
            out = a.reshape(*args[1]).reshape(*SHAPE)
        elif op == "concatenate":
            out = nn.concatenate([a, b], axis=0)[BASIC_INDICES[args[2]]]
        elif op == "stack":
            out = nn.stack([a, b], axis=0)[args[2]]
        elif op == "basic":
            out = a[BASIC_INDICES[args[1]]]
        else:
            out = a[ARRAY_INDICES[args[1]]].reshape(*SHAPE)
        values.append(out)
    values[-1].backward(upstream)
    return leaves, values[NUM_LEAVES:]


def run_reference(program, leaf_values, upstream):
    """The same program with the parent's rule: zeros_like, then ``+=`` every gradient."""
    values = [value.copy() for value in leaf_values]
    tape = []  # (output slot, [(input slot, vjp)])

    def emit(result, *routes):
        values.append(result)
        tape.append((len(values) - 1, routes))
        return len(values) - 1

    def scatter(shape, index):
        def vjp(grad):
            full = np.zeros(shape)
            np.add.at(full, index, grad)
            return full
        return vjp

    results = list(range(NUM_LEAVES))  # the slots an instruction may name as operands
    for op, *args in program:
        i = results[args[0] % len(results)]
        a = values[i]
        if op in ("add", "mul", "concatenate", "stack"):
            j = results[args[1] % len(results)]
            b = values[j]
        if op == "add":
            out = emit(a + b, (i, lambda g: g), (j, lambda g: g))
        elif op == "mul":
            out = emit(a * b, (i, lambda g, b=b: g * b), (j, lambda g, a=a: g * a))
        elif op == "reshape":
            middle = emit(a.reshape(args[1]), (i, lambda g: g.reshape(SHAPE)))
            out = emit(values[middle].reshape(SHAPE), (middle, lambda g, s=args[1]: g.reshape(s)))
        elif op == "concatenate":
            joined = emit(np.concatenate([a, b], axis=0),
                          (i, lambda g: g[:2]), (j, lambda g: g[2:]))
            index = BASIC_INDICES[args[2]]
            out = emit(values[joined][index], (joined, scatter((4, 3), index)))
        elif op == "stack":
            stacked = emit(np.stack([a, b], axis=0), (i, lambda g: g[0]), (j, lambda g: g[1]))
            out = emit(values[stacked][args[2]], (stacked, scatter((2, 2, 3), args[2])))
        elif op == "basic":
            index = BASIC_INDICES[args[1]]
            out = emit(a[index], (i, scatter(SHAPE, index)))
        else:
            index = ARRAY_INDICES[args[1]]
            gathered = emit(a[index], (i, scatter(SHAPE, index)))
            out = emit(values[gathered].reshape(SHAPE),
                       (gathered, lambda g, s=values[gathered].shape: g.reshape(s)))
        results.append(out)

    # The engine's reverse sweep order (depth-first post-order from the root,
    # parents pushed in operand order), so sums of three or more terms associate
    # the same way on both sides.
    producers = dict(tape)
    order, visited, stack = [], set(), [(len(values) - 1, False)]
    while stack:
        slot, processed = stack.pop()
        if processed:
            order.append(slot)
        elif slot not in visited:
            visited.add(slot)
            stack.append((slot, True))
            stack.extend(
                (source, False) for source, _ in producers[slot]
                if source in producers and source not in visited
            )

    grads = [None] * len(values)
    grads[-1] = np.zeros_like(values[-1])
    grads[-1] += upstream
    for slot in reversed(order):
        if grads[slot] is None:
            continue
        for source, vjp in producers[slot]:
            if grads[source] is None:
                grads[source] = np.zeros_like(values[source])
            grads[source] += vjp(grads[slot])
    return grads[:NUM_LEAVES]


@settings(max_examples=150, deadline=None)
@given(programs, st.integers(0, 2**32 - 1))
def test_gradients_match_zero_and_add_semantics_and_alias_nothing(program, seed):
    rng = np.random.default_rng(seed)
    leaf_values = [rng.normal(size=SHAPE) for _ in range(NUM_LEAVES)]
    upstream = rng.normal(size=SHAPE)
    upstream_before = upstream.copy()

    leaves, intermediates = run_engine(program, leaf_values, upstream)
    expected = run_reference(program, leaf_values, upstream)

    for leaf, reference in zip(leaves, expected):
        if reference is None:
            assert leaf.grad is None
        else:
            assert leaf.grad is not None
            assert np.array_equal(leaf.grad, reference, equal_nan=True)
    assert all(node.grad is None for node in intermediates)

    held = [leaf.grad for leaf in leaves if leaf.grad is not None]
    for position, grad in enumerate(held):
        assert not np.shares_memory(grad, upstream)
        for other in held[position + 1:]:
            assert not np.shares_memory(grad, other)
    snapshots = [grad.copy() for grad in held]
    for position, grad in enumerate(held):
        grad[...] = np.nan
        assert np.array_equal(upstream, upstream_before)
        for other_position in range(position + 1, len(held)):
            assert np.array_equal(held[other_position], snapshots[other_position], equal_nan=True)


class TestNamedCases:
    """The aliasing hazards the rule exists for, one per test."""

    def test_add_hands_one_array_to_two_parents(self):
        a, b = Tensor(np.ones(3), requires_grad=True), Tensor(np.ones(3), requires_grad=True)
        (a + b).sum().backward()
        a.grad *= 5.0
        assert np.array_equal(b.grad, np.ones(3))

    def test_x_plus_x(self):
        x = Tensor(np.arange(3.0), requires_grad=True)
        (x + x).sum().backward()
        assert np.array_equal(x.grad, [2.0, 2.0, 2.0])

    def test_reshape_and_transpose_pass_views(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        upstream = np.arange(6.0).reshape(3, 2)
        x.reshape(3, 2).backward(upstream)
        x.grad += 1.0
        assert np.array_equal(upstream, np.arange(6.0).reshape(3, 2))
        y = Tensor(np.ones((2, 3)), requires_grad=True)
        y.T.backward(upstream)
        y.grad += 1.0
        assert np.array_equal(upstream, np.arange(6.0).reshape(3, 2))

    def test_concatenate_and_stack_pass_slices_of_one_array(self):
        for join in (lambda a, b: nn.concatenate([a, b], axis=0), lambda a, b: nn.stack([a, b])):
            a, b = Tensor(np.ones((1, 2)), requires_grad=True), Tensor(np.ones((1, 2)), requires_grad=True)
            join(a, b).sum().backward()
            assert not np.shares_memory(a.grad, b.grad)

    def test_clip_grad_norm_scales_only_its_own_parameters(self):
        shared = Tensor(np.ones(4), requires_grad=True)
        other = Tensor(np.ones(4), requires_grad=True)
        ((shared + other) * 100.0).sum().backward()
        nn.SGD([shared]).clip_grad_norm(1.0)
        assert np.array_equal(other.grad, np.full(4, 100.0))
        assert np.linalg.norm(shared.grad) == pytest.approx(1.0)

    def test_basic_index_adds_through_a_view(self):
        x = Tensor(np.zeros((4, 3)), requires_grad=True)
        (x[1:3].sum() + x[2:4].sum() * 2.0 + x[:, 0].sum() * 4.0).backward()
        assert np.array_equal(x.grad, [[4, 0, 0], [5, 1, 1], [7, 3, 3], [6, 2, 2]])

    def test_repeated_integer_indices_accumulate(self):
        table = Tensor(np.zeros((3, 2)), requires_grad=True)
        table[np.array([0, 2, 0, 0])].sum().backward()
        assert np.array_equal(table.grad, [[3, 3], [0, 0], [1, 1]])

    def test_intermediate_gradients_are_released(self):
        x = Tensor(np.ones(3), requires_grad=True)
        hidden = x * 2.0
        loss = hidden.sum()
        loss.backward()
        assert hidden.grad is None and loss.grad is None
        assert np.array_equal(x.grad, [2.0, 2.0, 2.0])

    def test_second_backward_adds_one_more_gradient(self):
        x = Tensor(np.ones(3), requires_grad=True)
        loss = (x * 3.0).sum()
        loss.backward()
        loss.backward()
        assert np.array_equal(x.grad, [6.0, 6.0, 6.0])
