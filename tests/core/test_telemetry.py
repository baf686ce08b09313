"""Registry/tracer instrumentation across engine and server."""

import pytest

from repro.core import IncrementalEngine, LocationAwareServer
from repro.core.engine import EVALUATION_PHASES
from repro.geometry import Point, Rect
from repro.obs import (
    NULL_REGISTRY,
    MetricsRegistry,
    NullTracer,
    prometheus_text,
)


def busy_engine(**kwargs) -> IncrementalEngine:
    engine = IncrementalEngine(grid_size=8, **kwargs)
    engine.report_object(1, Point(0.5, 0.5), 0.0)
    engine.report_object(2, Point(0.2, 0.8), 0.0)
    engine.register_range_query(100, Rect(0.4, 0.4, 0.7, 0.7))
    engine.register_knn_query(200, Point(0.5, 0.5), 1)
    engine.evaluate(0.0)
    return engine


class TestEngineRegistry:
    def test_counters_match_stats_snapshot(self):
        engine = busy_engine()
        reg = engine.registry
        assert reg.value_of("engine_evaluations_total") == 1.0
        assert reg.value_of("engine_object_reports_total") == 2.0
        assert reg.value_of("engine_query_registrations_total") == 2.0
        assert reg.value_of("engine_knn_repairs_total") == 1.0
        assert reg.value_of("engine_updates_emitted_total") == float(
            engine.stats.updates_emitted
        )

    def test_population_gauges_track_engine(self):
        engine = busy_engine()
        assert engine.registry.value_of("engine_objects") == 2.0
        assert engine.registry.value_of("engine_queries") == 2.0
        engine.remove_object(1)
        engine.evaluate(1.0)
        assert engine.registry.value_of("engine_objects") == 1.0

    def test_phase_counters_back_phase_seconds(self):
        engine = busy_engine()
        for phase in EVALUATION_PHASES:
            assert engine.registry.value_of(
                "engine_phase_seconds_total", {"phase": phase}
            ) == engine.stats.phase_seconds[phase]

    def test_two_engines_have_isolated_registries(self):
        a = busy_engine()
        b = IncrementalEngine(grid_size=8)
        assert b.registry.value_of("engine_evaluations_total") == 0.0
        assert a.registry is not b.registry

    def test_injected_registry_is_used(self):
        reg = MetricsRegistry()
        engine = IncrementalEngine(grid_size=8, registry=reg)
        engine.evaluate(0.0)
        assert engine.registry is reg
        assert reg.value_of("engine_evaluations_total") == 1.0

    def test_grid_occupancy_sampled_per_evaluation(self):
        engine = busy_engine()
        snap = engine.registry.to_dict()
        assert snap["grid_cell_occupancy"]["series"][0]["count"] >= 2
        assert engine.registry.value_of("grid_indexed_objects") == 2.0
        hot = engine.registry.value_of(
            "grid_hot_cell_occupancy", {"rank": "0"}
        )
        assert hot >= 1.0

    def test_exports_as_prometheus_text(self):
        engine = busy_engine()
        text = prometheus_text(engine.registry)
        assert "engine_evaluations_total 1.0" in text
        assert 'engine_phase_seconds_total{phase="object_reports"}' in text

    def test_occupancy_counts_objects_per_home_cell(self):
        """Both pipelines sample the same occupancy from their own
        source — the store's ``cells`` column on the production path,
        the index's object buckets on the reference — and a moving
        object counts in its home cell only on the production path,
        whose index holds no object at all."""
        from repro.geometry import Velocity

        def occupancy(engine):
            value_of = engine.registry.value_of
            return (
                value_of("grid_indexed_objects"),
                value_of("grid_populated_cells"),
                value_of("grid_hot_cell_occupancy", {"rank": "0"}),
                value_of("grid_hot_cell_id", {"rank": "0"}),
            )

        engines = [busy_engine(), busy_engine(pipeline="per-object")]
        for engine in engines:
            engine.report_object(3, Point(0.51, 0.52), 1.0)
            engine.evaluate(1.0)
        home = float(engines[0].grid.cell_of(Point(0.5, 0.5)))
        assert occupancy(engines[0]) == occupancy(engines[1]) == (3, 10, 2, home)
        columnar = engines[0]
        columnar.report_object(2, Point(0.2, 0.8), 2.0, Velocity(0.01, 0.0))
        columnar.evaluate(2.0)
        hist = columnar.registry.histogram("grid_cell_occupancy")
        assert (hist.count, hist.sum) == (6, 8.0)  # two cells per sample
        assert columnar.index.object_count == 0

    def test_query_side_path_counters_say_which_path_ran(self):
        """`engine_query_moves_total{path}`, `engine_knn_repairs_total
        {path}` and `engine_predictive_refreshes_total{path}` partition
        the unlabelled totals: all `scalar` off the production path; on
        it only a flip-due predictive refresh is; and the range CSR is
        rebuilt at most once per evaluation."""

        def drive(**kwargs):
            engine = busy_engine(**kwargs)
            engine.register_predictive_query(300, Rect(0.1, 0.1, 0.6, 0.6), 5.0)
            engine.evaluate(1.0)
            engine.move_range_query(100, Rect(0.1, 0.7, 0.4, 0.9), 2.0)
            engine.move_knn_query(200, Point(0.2, 0.8), 2.0)
            engine.report_object(1, Point(0.45, 0.5), 2.0)
            engine.evaluate(2.0)
            value_of = engine.registry.value_of
            return engine, {
                (name, path): value_of(f"engine_{name}_total", {"path": path})
                for name in ("query_moves", "knn_repairs", "predictive_refreshes")
                for path in ("batch", "scalar")
            }

        reference, paths = drive(pipeline="per-object")
        assert paths["query_moves", "scalar"] == reference.stats.query_moves == 2
        assert paths["knn_repairs", "scalar"] == reference.stats.knn_repairs == 2
        assert paths["predictive_refreshes", "scalar"] == 2
        assert not any(n for (_, path), n in paths.items() if path == "batch")
        assert reference.registry.value_of("engine_range_csr_rebuilds_total") == 0
        engine, paths = drive()
        assert (paths["query_moves", "batch"], paths["query_moves", "scalar"]) == (2, 0)
        assert (paths["knn_repairs", "batch"], paths["knn_repairs", "scalar"]) == (2, 0)
        assert paths["predictive_refreshes", "batch"] == 2
        assert paths["predictive_refreshes", "scalar"] == 0
        rebuilds = engine.registry.value_of("engine_range_csr_rebuilds_total")
        assert 1 <= rebuilds <= engine.stats.evaluations
        assert 'engine_knn_repairs_total{path="batch"} 2' in prometheus_text(
            engine.registry
        )


class TestEngineTracer:
    def test_every_phase_emits_a_span(self):
        engine = busy_engine()
        names = {record.name for record in engine.tracer.events}
        assert set(EVALUATION_PHASES) <= names
        assert "evaluate" in names

    def test_phase_spans_nest_under_evaluate(self):
        engine = busy_engine()
        depths = {r.name: r.depth for r in engine.tracer.events}
        assert depths["evaluate"] == 0
        assert all(depths[phase] == 1 for phase in EVALUATION_PHASES)

    def test_null_tracer_keeps_phase_metrics(self):
        engine = busy_engine(tracer=NullTracer())
        assert engine.tracer.events == []
        assert set(engine.stats.phase_seconds) == set(EVALUATION_PHASES)

    def test_raising_phase_still_records_lap_and_span(self):
        """Satellite regression: an exception mid-phase must not lose
        the elapsed time (or the span) of the phase that failed."""
        engine = IncrementalEngine(grid_size=8)
        engine.register_knn_query(200, Point(0.5, 0.5), 1)

        def boom(knn_dirty, updates):
            raise RuntimeError("repair failed")

        engine._repair_knn = boom
        with pytest.raises(RuntimeError):
            engine.evaluate(0.0)

        stats = engine.stats
        assert stats.evaluations == 1
        assert "knn_repair" in stats.phase_seconds
        assert stats.phase_seconds["registrations"] > 0.0
        failed = [r for r in engine.tracer.events if r.name == "knn_repair"]
        assert failed and failed[0].error
        outer = [r for r in engine.tracer.events if r.name == "evaluate"]
        assert outer and outer[0].error


class TestNullRegistryEngine:
    def test_evaluation_still_correct(self):
        engine = busy_engine(registry=NULL_REGISTRY)
        assert engine.answer_of(100) == frozenset({1})
        assert engine.registry.to_dict() == {}

    def test_stats_surface_goes_dark_not_broken(self):
        engine = busy_engine(registry=NULL_REGISTRY)
        assert engine.stats.evaluations == 0
        assert engine.stats.phase_seconds == {}


class TestServerTelemetry:
    def make_server(self) -> LocationAwareServer:
        server = LocationAwareServer(grid_size=8)
        server.register_client(1)
        server.register_range_query(1, 100, Rect(0.4, 0.4, 0.7, 0.7))
        return server

    def test_server_shares_engine_registry_and_tracer(self):
        server = self.make_server()
        assert server.registry is server.engine.registry
        assert server.tracer is server.engine.tracer

    def test_cycle_latency_histogram(self):
        server = self.make_server()
        server.receive_object_report(1, Point(0.5, 0.5), 0.0)
        server.evaluate_cycle(0.0)
        server.evaluate_cycle(1.0)
        hist = server.registry.histogram("server_cycle_seconds")
        assert hist.count == 2
        assert hist.sum > 0.0

    def test_cycle_spans_nest_engine_phases(self):
        server = self.make_server()
        server.evaluate_cycle(0.0)
        depths = {r.name: r.depth for r in server.tracer.events}
        assert depths["cycle"] == 0
        assert depths["evaluate"] == 1
        assert depths["downlink"] == 1
        assert depths["object_reports"] == 2

    def test_delivery_counters_and_savings_gauge(self):
        server = self.make_server()
        server.receive_object_report(1, Point(0.5, 0.5), 0.0)
        result = server.evaluate_cycle(0.0)
        assert result.delivered_updates == 1
        reg = server.registry
        assert reg.value_of("server_updates_delivered_total") == 1.0
        assert reg.value_of("server_incremental_bytes_total") == float(
            result.incremental_bytes
        )
        assert reg.value_of("server_savings_ratio") == pytest.approx(
            result.savings_ratio
        )

    def test_wakeup_recovery_counters(self):
        server = self.make_server()
        server.receive_object_report(1, Point(0.5, 0.5), 0.0)
        server.evaluate_cycle(0.0)
        server.receive_commit(100)
        server.link_of(1).disconnect()
        server.receive_object_report(1, Point(0.9, 0.9), 1.0)
        server.evaluate_cycle(1.0)  # negative update lost in transit
        sent = server.receive_wakeup(1)
        reg = server.registry
        assert reg.value_of("server_wakeups_total") == 1.0
        assert reg.value_of("server_recovery_updates_total") == float(len(sent))
        assert len(sent) == 1


class TestSavingsRatioGuards:
    """Satellite: zero-denominator cycles must yield 0.0, not raise."""

    def test_cycle_result_with_no_queries(self):
        server = LocationAwareServer(grid_size=8)
        server.register_client(1)
        result = server.evaluate_cycle(0.0)
        assert result.complete_bytes == 0
        assert result.savings_ratio == 0.0

    def test_server_ratio_before_any_cycle(self):
        assert LocationAwareServer(grid_size=8).savings_ratio() == 0.0

    def test_server_ratio_after_empty_cycles_only(self):
        server = LocationAwareServer(grid_size=8)
        server.register_client(1)
        server.evaluate_cycle(0.0)
        server.evaluate_cycle(1.0)
        assert server.savings_ratio() == 0.0
        assert server.registry.value_of("server_savings_ratio") == 0.0

    def test_server_ratio_accumulates_across_cycles(self):
        server = LocationAwareServer(grid_size=8)
        server.register_client(1)
        server.register_range_query(1, 100, Rect(0.0, 0.0, 1.0, 1.0))
        server.receive_object_report(1, Point(0.5, 0.5), 0.0)
        server.evaluate_cycle(0.0)  # one positive update ships
        server.evaluate_cycle(1.0)  # quiet: 0 incremental, >0 complete
        ratio = server.savings_ratio()
        assert 0.0 < ratio < 1.0
