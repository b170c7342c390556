"""Self-time arithmetic and span recording of the benchmark's tracer."""

import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from tracing import END, NAME, OP, PARENT, START, Tracer, self_times  # noqa: E402


def span(name, start, end, parent=-1):
    return [name, start, end, parent, 0, None]


def test_nested_spans_subtract_only_direct_children():
    spans = [span("a", 0.0, 10.0), span("b", 2.0, 5.0, 0), span("c", 3.0, 4.0, 1)]
    assert self_times(spans) == [7.0, 2.0, 1.0]


def test_sibling_spans_are_both_subtracted():
    spans = [span("a", 0.0, 10.0), span("b", 1.0, 3.0, 0), span("c", 4.0, 8.0, 0)]
    assert self_times(spans) == [4.0, 2.0, 4.0]


def test_overlapping_siblings_are_not_subtracted_twice():
    spans = [span("a", 0.0, 10.0), span("b", 1.0, 5.0, 0), span("c", 3.0, 8.0, 0)]
    assert self_times(spans)[0] == 3.0


def test_child_outside_its_parent_is_clipped():
    spans = [span("a", 2.0, 6.0), span("b", 0.0, 3.0, 0), span("c", 5.0, 9.0, 0)]
    assert self_times(spans)[0] == 2.0


@st.composite
def call_trees(draw, depth=0):
    """A call tree as (name, [children]) with at most four levels."""
    children = [] if depth == 3 else draw(st.lists(call_trees(depth=depth + 1), max_size=3))
    return (f"f{depth}", children)


def record(tree):
    """Runs a call tree through the tracer with a clock that ticks once per read."""
    ticks = iter(range(10_000))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    tracer.op = 7

    def call(node):
        name, children = node
        tracer.wrap(lambda: [call(c) for c in children], name)()

    call(tree)
    return tracer.spans


@given(call_trees())
def test_self_times_of_a_call_tree_sum_to_the_root_duration(tree):
    spans = record(tree)
    selfs = self_times(spans)
    assert sum(selfs) == pytest.approx(spans[0][END] - spans[0][START])
    assert all(s > 0 for s in selfs)


@given(call_trees())
def test_recorded_parents_match_the_call_tree(tree):
    spans = record(tree)
    assert spans[0][PARENT] == -1
    for s in spans:
        assert s[OP] == 7
        if s[PARENT] >= 0:
            parent = spans[s[PARENT]]
            assert parent[START] < s[START] and s[END] < parent[END]
            assert int(parent[NAME][1:]) + 1 == int(s[NAME][1:])


def test_calls_are_not_recorded_without_an_op():
    tracer = Tracer()
    assert tracer.wrap(lambda x: x + 1, "f")(1) == 2
    assert tracer.spans == []


def test_span_is_closed_when_the_call_raises():
    tracer = Tracer(clock=iter([1.0, 4.0]).__next__)
    tracer.op = 0

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap(boom, "boom")()
    assert tracer.spans[0][START:END + 1] == [1.0, 4.0]
    assert tracer._stack == []
