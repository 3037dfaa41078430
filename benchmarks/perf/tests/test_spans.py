from benchmarks.perf.spans import Recorder, Span, group_seconds, self_times


def _span(id_, group, parent, op, start, end):
    return Span(id_, f"s{id_}", group, parent, op, start, end)


def test_self_time_is_duration_minus_children():
    spans = [
        _span(0, "service", None, 0, 0, 100),
        _span(1, "store", 0, 0, 10, 40),      # nested child
        _span(2, "sampling", 0, 0, 200, 250),  # twin: ran after its parent
        _span(3, "store", 1, 0, 15, 25),      # grandchild
    ]
    assert self_times(spans) == {0: 20, 1: 20, 2: 50, 3: 10}


def test_self_time_never_negative():
    # a noisy twin can outlast the call it stands in for
    spans = [_span(0, "service", None, 0, 0, 10), _span(1, "store", 0, 0, 20, 50)]
    assert self_times(spans)[0] == 0


def test_group_seconds_by_op():
    spans = [
        _span(0, "service", None, 0, 0, 3_000_000_000),
        _span(1, "store", 0, 0, 0, 1_000_000_000),
        _span(2, "service", None, 1, 0, 5_000_000_000),
    ]
    assert group_seconds(spans) == {"service": 7.0, "store": 1.0}
    assert group_seconds(spans, {0}) == {"service": 2.0, "store": 1.0}


def test_recorder_nests_and_adopts():
    recorder = Recorder()
    with recorder.span("op", "service", op=4) as root:
        with recorder.span("inner", "store") as inner:
            pass
    with recorder.span("twin", "sampling", parent=inner) as twin:
        pass
    assert (root.parent, inner.parent, twin.parent) == (None, root.id, inner.id)
    assert {span.op for span in recorder.spans} == {4}  # inherited
    assert all(span.end_ns >= span.start_ns for span in recorder.spans)


def test_disabled_recorder_records_nothing():
    recorder = Recorder(enabled=False)
    with recorder.span("op", "service", op=0) as span:
        assert span is None
    assert recorder.spans == []
