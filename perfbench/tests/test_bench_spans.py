import time

import pytest

from spans import Tracer, percentile


def test_self_time_subtracts_nested_children():
    tracer = Tracer()
    inner = tracer.wrap("b.inner", lambda: time.sleep(0.02))

    def outer_body():
        time.sleep(0.01)
        inner()
        inner()

    tracer.wrap("a.outer", outer_body)()
    outer, first, second = tracer.spans
    assert first[3] == second[3] == 0 and outer[3] == -1
    own = tracer.self_times()
    assert own[0] == pytest.approx(outer[2] - outer[1] - (first[2] - first[1])
                                   - (second[2] - second[1]))
    assert own[0] >= 0.009            # the outer body's own sleep
    layers = tracer.layer_self()
    assert layers["b"] == pytest.approx(own[1] + own[2])
    assert layers["a"] + layers["b"] == pytest.approx(outer[2] - outer[1])


def test_synthetic_spans_self_time_and_layers():
    tracer = Tracer()
    # root [0,10] with children [1,4] and [5,9]; the second has a child [6,8]
    tracer.spans = [["x.root", 0.0, 10.0, -1], ["y.a", 1.0, 4.0, 0],
                    ["y.b", 5.0, 9.0, 0], ["x.leaf", 6.0, 8.0, 2]]
    assert tracer.self_times() == [3.0, 3.0, 2.0, 2.0]
    assert tracer.layer_self() == {"x": 5.0, "y": 5.0}


def test_recording_off_and_counts():
    tracer = Tracer()
    f = tracer.wrap_count("graphs.in_row", lambda x: x + 1)
    g = tracer.wrap("gl2.reduce", lambda x: (x, []),
                    lambda tr, args, res: tr.counts.update({"gl2.ops": res[0]}))
    assert f(1) == 2 and g(5) == (5, [])
    tracer.recording = False
    f(1), g(7)
    assert tracer.counts == {"graphs.in_row": 1, "gl2.ops": 5}
    assert len(tracer.spans) == 1


def test_span_closes_when_the_call_raises():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap("a.f", boom)()
    assert tracer.stack == [] and tracer.spans[0][2] >= tracer.spans[0][1]


def test_percentile_nearest_rank():
    xs = list(range(1, 101))
    assert percentile(xs, 50) == 50 and percentile(xs, 99) == 99
    assert percentile([3.0], 99) == 3.0 and percentile([], 50) == 0.0


def test_rebuilt_levels_count_their_classes_once():
    import spans
    from combench import generate

    tracer = Tracer()
    patches = spans.install(tracer)
    try:
        generate.graphs_upto(4)
        once = spans.layer_metrics(tracer)
        generate.graphs_upto(4)
        generate.graphs_upto(3)
        again = spans.layer_metrics(tracer)
    finally:
        spans.uninstall(patches)
    assert once["generate.classes_kept"][0] == 2 + 4 + 11 == again["generate.classes_kept"][0]
    assert again["generate.children_tried"][0] > 2 * once["generate.children_tried"][0]
