import pytest

import burnside
import tracing
import workloads


def _bindings():
    return {(m.__name__, k): v for m in tracing._burnside_modules()
            for k, v in vars(m).items() if callable(v)}


def test_install_wraps_reexported_names_and_restore_puts_originals_back():
    import burnside.canonical as canonical
    import burnside.occurrences as occurrences
    import burnside.periodicity as periodicity
    import burnside.relators as relators
    import burnside.semican as semican
    import burnside.turns as turns

    before = _bindings()
    original = periodicity.find_runs
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for module in (periodicity, relators, occurrences, turns, burnside):
            assert module.find_runs is not original
            assert module.find_runs.__wrapped__ is original
        assert canonical._descend is semican._descend
        assert canonical._descend.__wrapped__ is not None
    finally:
        tracer.restore()
    assert _bindings() == before
    assert not any(getattr(v, "_perfbench_wrapper", False) for v in before.values())


def test_lazy_imports_reach_the_wrappers_and_table_covers_item_time():
    host = workloads.roundtrip_inputs(2, 1)[0]
    params = burnside.default_params()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        item = tracer.begin(tracer.name_id(tracing.ITEM))
        occ = next(o for o in burnside.maximal_occurrences(host, 2, 16, params)
                   if len(o.period) == 3)
        tr = burnside.turn(host, occ, 2, params)
        burnside.inverse_turn(tr, 2, params)
        tracer.end(item)
    finally:
        tracer.restore()
    table = tracer.table()
    # can_word is only reached through the lazy import in turns._can_prev
    assert table["canonical.can_word.calls"] > 0
    assert table["turns.turn.Type2"] >= 1
    assert table["periodicity.find_runs.calls"] > 0
    assert abs(table["trace.coverage"] - 1.0) < 1e-9
    layers = sum(v for k, v in table.items() if k.endswith(".self_s"))
    assert abs(layers + table["trace.outside_s"] - table["trace.wall_s"]) < 1e-6
    assert set(table) == set(tracing.metric_units())


def test_repeat_ratio_counts_exact_repeated_queries():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        w = (1, 2) * 20
        burnside.find_runs(w, 2)
        burnside.find_runs(w, min_measure=2)
        burnside.find_runs(w, 3)
    finally:
        tracer.restore()
    assert tracer.table()["periodicity.find_runs.repeat_ratio"] == 1 / 3


def test_traced_iterator_records_each_next():
    tracer = tracing.Tracer()
    it = tracer.wrap_iterator(tracing.STREAM_NEXT, iter([1, 2, 3]))
    assert list(it) == [1, 2, 3]
    assert tracer.table()[f"{tracing.STREAM_NEXT}.calls"] == 4  # 3 items + StopIteration


def test_restore_refuses_to_leave_a_wrapper_bound():
    import burnside.periodicity as periodicity

    tracer = tracing.Tracer()
    stray = tracer.wrap("stray", periodicity.find_runs)
    periodicity.stray_find_runs = stray
    try:
        with pytest.raises(RuntimeError):
            tracer.restore()
    finally:
        del periodicity.stray_find_runs
