from __future__ import annotations

import math
import random

import pytest

from futurecall import (
    MODES,
    DependencyDag,
    annotation_confusion,
    classify_regime,
    critical_path,
    effective_union,
    ideal_speedup,
    mcnemar,
    overhead_speedup,
    paired_log_speedup_test,
    savings_decomposition,
    sequential_sum,
)
from futurecall.analysis import Interval, RegimeThresholds, SavingsReport, trace_to_inputs
from futurecall.errors import (
    CycleDetectedError,
    DegenerateInputError,
    DomainError,
    OverlappingDecodeError,
)

from conftest import FIXTURE_NAMES, run_fixture


def raster_union(intervals) -> float:
    """Unit-grid counting oracle for the union measure (integer endpoints)."""
    cells = set()
    for start, end in intervals:
        assert start == int(start) and end == int(end)
        for cell in range(int(start), int(end)):
            cells.add(cell)
    return float(len(cells))


def brute_force_critical_path(dag: DependencyDag) -> float:
    consumers = {}
    for producer, consumer in dag.edges:
        consumers.setdefault(producer, []).append(consumer)

    def longest_from(node):
        downstream = consumers.get(node, [])
        tail = max((longest_from(c) for c in downstream), default=0.0)
        return dag.durations[node] + tail

    return max((longest_from(n) for n in dag.durations), default=0.0)


class TestIntervalOps:
    def test_empty_set(self):
        assert sequential_sum([]) == 0.0
        assert effective_union([]) == 0.0

    def test_overlapping_pair_hand_merge(self):
        ivs = [(2, 5), (2, 6)]
        assert sequential_sum(ivs) == 7.0
        assert effective_union(ivs) == 4.0

    def test_disjoint_sum_equals_union(self):
        ivs = [(0, 1), (3, 5), (9, 10)]
        assert sequential_sum(ivs) == effective_union(ivs) == 4.0

    def test_zero_length_contributes_nothing(self):
        assert sequential_sum([(4, 4)]) == 0.0
        assert effective_union([(4, 4), (4, 4)]) == 0.0

    def test_invalid_interval_rejected(self):
        with pytest.raises(DomainError):
            Interval(5, 3)

    def test_union_matches_rasterization_oracle(self):
        rng = random.Random(7)
        for _ in range(300):
            ivs = []
            for _ in range(rng.randint(0, 20)):
                start = rng.randint(0, 28)
                end = rng.randint(start, 30)
                ivs.append((start, end))
            assert effective_union(ivs) == raster_union(ivs)

    def test_union_monotone_under_insertion(self):
        rng = random.Random(13)
        for _ in range(100):
            ivs = [(rng.randint(0, 20), 0) for _ in range(5)]
            ivs = [(s, s + rng.randint(0, 9)) for s, _ in ivs]
            extra = (rng.randint(0, 20), rng.randint(20, 30))
            assert effective_union(ivs + [extra]) >= effective_union(ivs)
            assert sequential_sum(ivs + [extra]) >= sequential_sum(ivs)


class TestSavingsDecomposition:
    def test_worked_example(self):
        report = savings_decomposition([(0, 2), (5, 7)], [(2, 5), (2, 6)])
        assert report.s_m == 4.0
        assert report.s_e == 7.0
        assert report.d_e == 4.0
        assert report.d_union == 7.0
        assert report.delta_ff == 3.0
        assert report.delta_de == 1.0
        assert report.t_saving == 4.0

    def test_empty_execution_set(self):
        report = savings_decomposition([(0, 2), (5, 7)], [])
        assert report.delta_ff == 0.0
        assert report.delta_de == 0.0
        assert report.t_saving == 0.0

    def test_fully_serialized_trace_has_zero_deltas(self):
        report = savings_decomposition([(0, 1), (4, 5)], [(1, 4), (5, 9)])
        assert report.delta_ff == 0.0 and report.delta_de == 0.0

    def test_overlapping_decode_rejected(self):
        with pytest.raises(OverlappingDecodeError):
            savings_decomposition([(0, 2), (1, 3)], [])

    def test_identity_failure_is_a_typed_error(self):
        # An infinite decode end makes t_saving and delta_de nan. The check
        # is a raise, not an assert, so it also holds under ``python -O``.
        with pytest.raises(DomainError, match="t_saving"):
            savings_decomposition([(0.0, math.inf)], [(0.0, 1.0)])

    def test_identity_on_random_integer_traces(self):
        rng = random.Random(99)
        for _ in range(500):
            cursor = 0
            m = []
            for _ in range(rng.randint(0, 6)):
                cursor += rng.randint(0, 3)
                width = rng.randint(0, 4)
                m.append((cursor, cursor + width))
                cursor += width
            e = []
            for _ in range(rng.randint(0, 20)):
                start = rng.randint(0, 25)
                e.append((start, start + rng.randint(0, 6)))
            report = savings_decomposition(m, e)
            assert report.t_saving == report.delta_ff + report.delta_de  # exact


    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_fixture_report_matches_the_public_interval_functions(self, name, mode):
        # The trace's intervals are built once and reused; every field must
        # equal, bit for bit, the one the public functions give.
        trace = run_fixture(name, mode)
        m, e = trace.decode_intervals(), trace.exec_intervals()
        t_llm, t_tool, _, m_ivs, e_ivs = trace_to_inputs(trace)
        assert all(isinstance(iv, Interval) for iv in m_ivs + e_ivs)
        s_m, s_e = sequential_sum(m), sequential_sum(e)
        d_m, d_e, d_union = effective_union(m), effective_union(e), effective_union(m + e)
        expected = SavingsReport(
            delta_ff=s_e - d_e,
            delta_de=d_m + d_e - d_union,
            t_saving=s_m + s_e - d_union,
            s_m=s_m,
            s_e=s_e,
            d_e=d_e,
            d_union=d_union,
        )
        assert repr(savings_decomposition(m_ivs, e_ivs)) == repr(expected)
        assert repr(savings_decomposition(m, e)) == repr(expected)
        assert (repr(t_llm), repr(t_tool)) == (repr(s_m), repr(s_e))


class TestCriticalPath:
    def test_two_parallel_one_chain(self):
        dag = DependencyDag(
            durations={"F1": 5, "F2": 5, "F3": 5}, edges=[("F2", "F3")]
        )
        assert critical_path(dag) == 10.0

    def test_single_node(self):
        assert critical_path(DependencyDag(durations={"a": 7})) == 7.0

    def test_chain_and_antichain(self):
        chain = DependencyDag(
            durations={f"n{i}": 3 for i in range(5)},
            edges=[(f"n{i}", f"n{i+1}") for i in range(4)],
        )
        assert critical_path(chain) == 15.0
        antichain = DependencyDag(durations={f"n{i}": 3 for i in range(5)})
        assert critical_path(antichain) == 3.0

    def test_cycle_detected(self):
        dag = DependencyDag(durations={"a": 1, "b": 1}, edges=[("a", "b"), ("b", "a")])
        with pytest.raises(CycleDetectedError):
            critical_path(dag)

    def test_matches_bruteforce_on_random_dags(self):
        rng = random.Random(5)
        for _ in range(200):
            n = rng.randint(1, 6)
            names = [f"n{i}" for i in range(n)]
            durations = {name: rng.randint(1, 9) for name in names}
            edges = [
                (names[i], names[j])
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.4
            ]
            dag = DependencyDag(durations=durations, edges=edges)
            assert critical_path(dag) == brute_force_critical_path(dag)


class TestSpeedups:
    def test_ideal_speedup_values(self):
        assert ideal_speedup(10, 30, 10) == 4.0
        assert ideal_speedup(0, 20, 20) == 1.0  # serial dag, no decode

    def test_ideal_speedup_domain_errors(self):
        with pytest.raises(DomainError):
            ideal_speedup(10, 5, 6)  # t_cp > t_tool
        with pytest.raises(DomainError):
            ideal_speedup(0, 0, 0)
        with pytest.raises(DomainError):
            ideal_speedup(-1, 5, 5)

    def test_overhead_speedup_branches(self):
        assert abs(overhead_speedup(10, 40, 20, 0.5) - 2.5) < 1e-12
        assert abs(overhead_speedup(10, 40, 10, 0.5) - 50 / 15) < 1e-12

    def test_overhead_speedup_continuity_at_boundary(self):
        boundary = (1 + 0.5) * 10
        below = overhead_speedup(10, 40, boundary - 1e-9, 0.5)
        at = overhead_speedup(10, 40, boundary, 0.5)
        above = overhead_speedup(10, 40, boundary + 1e-9, 0.5)
        assert abs(below - at) < 1e-6 and abs(above - at) < 1e-6

    def test_overhead_speedup_non_increasing_in_alpha(self):
        values = [overhead_speedup(10, 40, 12, alpha) for alpha in (0, 0.1, 0.3, 1, 3)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_overhead_matches_ideal_at_zero_alpha(self):
        assert overhead_speedup(10, 40, 20, 0.0) == ideal_speedup(10, 40, 20)


class TestRegimes:
    def test_sweet_spot(self):
        assert classify_regime(10, 50, 10) == "sweet-spot"

    def test_little(self):
        assert classify_regime(100, 10, 10) == "little"

    def test_moderate(self):
        assert classify_regime(100, 50, 10) == "moderate"

    def test_custom_thresholds(self):
        thresholds = RegimeThresholds(parallelism_ratio=10.0)
        assert classify_regime(10, 50, 10, thresholds) == "moderate"


def t_sf_quadrature(t_value: float, df: int) -> float:
    """Survival function of Student's t by numerical quadrature of the density."""
    from scipy.integrate import quad

    coeff = math.gamma((df + 1) / 2) / (math.sqrt(df * math.pi) * math.gamma(df / 2))

    def density(x):
        return coeff * (1 + x * x / df) ** (-(df + 1) / 2)

    value, _ = quad(density, t_value, math.inf)
    return value


class TestPairedTest:
    def test_constant_pairs_geomean(self):
        result = paired_log_speedup_test([(10, 5)] * 3)
        assert abs(result.geomean_speedup - 2.0) < 1e-12
        assert result.p_value == 0.0

    def test_zero_variance_branch(self):
        result = paired_log_speedup_test([(2, 1), (4, 2), (6, 3)])
        assert abs(result.geomean_speedup - 2.0) < 1e-12
        assert result.p_value == 0.0
        slower = paired_log_speedup_test([(1, 2), (2, 4)])
        assert slower.p_value == 1.0

    def test_against_textbook_formula_and_quadrature(self):
        ratios = [1.2, 1.5, 0.9, 1.4, 1.3]
        pairs = [(r * 7.0, 7.0) for r in ratios]
        logs = [math.log(r) for r in ratios]
        n = len(logs)
        mean = sum(logs) / n
        sd = math.sqrt(sum((x - mean) ** 2 for x in logs) / (n - 1))
        expected_t = mean / (sd / math.sqrt(n))
        result = paired_log_speedup_test(pairs)
        assert abs(result.t_stat - expected_t) < 1e-12
        assert abs(result.geomean_speedup - math.exp(mean)) < 1e-12
        assert abs(result.p_value - t_sf_quadrature(expected_t, n - 1)) < 1e-9

    def test_too_few_pairs(self):
        with pytest.raises(DegenerateInputError):
            paired_log_speedup_test([(1, 1)])


class TestMcnemar:
    def test_symmetric_outcomes(self):
        assert mcnemar(5, 5) == {"chi2": 0.0, "p": 1.0}

    def test_direct_formula(self):
        result = mcnemar(8, 2)
        assert result["chi2"] == 3.6

    def test_degenerate_no_discordance(self):
        assert mcnemar(0, 0) == {"chi2": 0.0, "p": 1.0}

    def test_p_against_erfc_identity(self):
        # For one degree of freedom the survival function is erfc(sqrt(x/2)).
        for b, c in ((8, 2), (10, 3), (4, 4), (20, 1)):
            result = mcnemar(b, c)
            assert abs(result["p"] - math.erfc(math.sqrt(result["chi2"] / 2))) < 1e-12


class TestAnnotationConfusion:
    def test_published_scale_counts(self):
        universe = 1812
        predicted = {("p", str(i)) for i in range(330)}  # 261 true + 69 false
        truth = {("p", str(i)) for i in range(261)} | {("t", str(i)) for i in range(69)}
        metrics = annotation_confusion(predicted, truth, universe)
        assert metrics["tp"] == 261 and metrics["fp"] == 69 and metrics["fn"] == 69
        assert metrics["tn"] == 1413
        assert abs(metrics["accuracy"] - 0.925) < 0.002
        assert abs(metrics["precision"] - 0.791) < 0.002
        assert abs(metrics["recall"] - 0.791) < 0.002
        assert abs(metrics["fp_rate"] - 0.038) < 0.002
        assert abs(metrics["fn_rate"] - 0.038) < 0.002

    def test_perfect_prediction(self):
        truth = {("a", "b"), ("b", "a")}
        metrics = annotation_confusion(truth, truth, 10)
        assert metrics["accuracy"] == 1.0
        assert metrics["fp_rate"] == 0.0 and metrics["fn_rate"] == 0.0

    def test_empty_prediction_convention(self):
        metrics = annotation_confusion(set(), {("a", "b")}, 4)
        assert metrics["precision"] == 0.0 and metrics["recall"] == 0.0

    def test_sets_exceeding_universe_rejected(self):
        with pytest.raises(DomainError):
            annotation_confusion({("a", str(i)) for i in range(5)}, set(), 3)
