"""Tests of the benchmark itself: generators, oracle, tracer and contract."""

import itertools
import json
import os
import random

import pytest
from delpezzo import catalog

from perfbench import bench, gen, oracle, run, tracing, workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def take(stream, n):
    return list(itertools.islice(stream, n))


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_same_seed_gives_same_inputs(name):
    cases = workloads.WORKLOADS[name].cases
    first, again, other = take(cases(7), 30), take(cases(7), 30), take(cases(8), 30)
    assert [c.text for c in first] == [c.text for c in again]
    assert [c.expect for c in first] == [c.expect for c in again]
    if name != "catalog-replay":  # the catalog order is a permutation of 25
        assert [c.text for c in first] != [c.text for c in other]


def test_moved_inputs_keep_their_answers():
    cases = take(workloads.transformed_cases(11), 150)
    codes = {c.expect for c in cases if isinstance(c.expect, str)}
    assert codes == set(gen.INVALID_SURFACES)
    for case in cases:
        assert workloads.check(case, workloads.classify_call(case)), case.text


def test_dense_inputs_match_the_oracle():
    for case in take(workloads.dense_cases(3), 10):
        assert workloads.check(case, workloads.classify_call(case)), case.text


@pytest.mark.parametrize("witness", catalog.witness_catalog(), ids=lambda w: w.name)
def test_oracle_agrees_with_golden_catalog(witness):
    poly = gen.parse(witness.equation)
    for moved in (poly, gen.move(poly, random.Random(witness.name))):
        fibers = oracle.fiber_configuration(*oracle.short_form(moved))
        assert fibers == frozenset(witness.fibers)
        assert oracle.picard_rank(fibers) == witness.rho


def test_oracle_rejects_degenerate_pairs():
    with pytest.raises(ValueError):
        oracle.fiber_configuration([0] * 5, [0] * 7)
    with pytest.raises(ValueError):  # x^4, x^6: non-minimal at y = 0
        oracle.fiber_configuration([1, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0, 0])


def test_self_time_on_synthetic_span_tree():
    # (id, name, input, parent, start, end)
    spans = [
        (1, "surfaces.classify_surface", 1, None, 0.0, 10.0),
        (2, "sextic.parse_sextic", 1, 1, 1.0, 4.0),
        (3, "weierstrass.reduce_to_short", 1, 1, 5.0, 9.0),
        (4, "forms.form_gcd", 1, 3, 6.0, 7.0),
        # overlapping children, as threads would make them: they cover [1, 8]
        (5, "cli.main", 5, None, 0.0, 10.0),
        (6, "surfaces.classify_surface", 6, 5, 1.0, 5.0),
        (7, "surfaces.classify_surface", 7, 5, 3.0, 8.0),
    ]
    own = tracing.self_times(spans)
    assert own == {1: 3.0, 2: 3.0, 3: 3.0, 4: 1.0, 5: 3.0, 6: 4.0, 7: 5.0}
    metrics = tracing.layer_metrics(spans, surfaces=2)
    assert metrics["surfaces.classify_surface.self_ms"] == pytest.approx(6000.0)
    assert metrics["surfaces.classify_surface.calls_per_surface"] == 1.5
    assert metrics["forms.form_gcd.self_ms"] == pytest.approx(500.0)
    assert metrics["kodaira.classify_place.calls_per_surface"] == 0


def _originals():
    out = []
    for _, module, path in tracing.TRACE_POINTS:
        owner, attr = tracing.resolve(module, path)
        out.append((owner, attr, owner.__dict__[attr]))
    return out


def _traced_pass(cases):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for case in cases:
            assert workloads.check(case, workloads.WORKLOADS["transformed-unique"].call(case))
    finally:
        tracer.uninstall()
    return tracer.spans


def test_traced_counts_repeat_and_wrappers_are_removed():
    originals = _originals()
    cases = take(workloads.transformed_cases(5), 30)
    _traced_pass(cases[:5])  # fill lazy caches
    first, second = _traced_pass(cases), _traced_pass(cases)

    def counts(spans):
        metrics = tracing.layer_metrics(spans, len(cases))
        return {k: v for k, v in metrics.items() if k.endswith(".calls_per_surface")}

    assert counts(first) == counts(second)
    assert counts(first)["surfaces.classify_surface.calls_per_surface"] == 1
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original
    # spans of one input share its id; the root of an input has no parent
    roots = {s[0]: s for s in first if s[1] == "surfaces.classify_surface"}
    assert all(s[3] is None and s[2] == s[0] for s in roots.values())
    assert all(s[2] in roots for s in first)


def test_cli_batch_output_is_checked(tmp_path):
    cases = take(workloads.cli_cases(2), 12)
    b = bench.Bench(str(tmp_path), "cli-batch", 2)
    path = b.write_batch(cases)
    for parallel in (False, True):
        _, code, stdout = b.cli_in_process(path, parallel)
        assert b.check_batch(cases, code, stdout) == len(cases)
    _, code, stdout = b.cli_in_process(path, False)
    assert b.check_batch(cases, code, stdout.replace('"rho": ', '"rho": 1')) < len(cases)
    assert b.tally.failed > 0


def test_benchmark_json_matches_the_metrics_printed():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
