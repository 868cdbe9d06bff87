"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest benchmarks -q
"""

import json
from pathlib import Path

import gate
from spans import Tracer, self_times, summarise
from workloads import WORKLOADS


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["a", -1, 0.0, 10.0],
        ["b", 0, 1.0, 4.0],
        ["c", 0, 5.0, 9.0],
        ["d", 2, 6.0, 7.0],
        ["e", -1, 12.0, 13.0],
    ]
    assert self_times(spans) == [3.0, 3.0, 3.0, 1.0, 1.0]
    per_name, covered = summarise(spans + [["d", 1, 2.0, 2.5]])
    assert per_name["d"] == [2, 1.5]
    assert per_name["b"] == [1, 2.5]
    assert covered == 11.0


def _boost_scan_output() -> str:
    return (gate.REFERENCE_DIR / "boost_scan.csv").read_text(encoding="utf-8")


def test_corrupted_reference_row_is_one_failed_operation():
    check = WORKLOADS["boost-scan"].check
    assert check(_boost_scan_output()) == (607, 0)

    ref_columns, ref_rows = gate.load_reference("boost_scan.csv")
    ref_rows[300][2] += 1e-11
    out_columns = ref_columns
    assert gate.check_sweep(_boost_scan_output(), out_columns, 607,
                            ref_columns, ref_rows) == (607, 1)


def test_short_output_fails_every_row():
    text = "".join(_boost_scan_output().splitlines(keepends=True)[:-1])
    assert WORKLOADS["boost-scan"].check(text) == (607, 607)


def test_malus_draw_outside_four_sigma_fails():
    row = {"p_pf": 0.5, "mc_err": 5e-4, "mc_freq": 0.5 + 3.9 * 5e-4}
    assert gate.malus_draw_ok(row)
    assert not gate.malus_draw_ok(dict(row, mc_freq=0.5 - 4.1 * 5e-4))


def test_validate_counts_each_missing_pass_line():
    names = ["one", "two", "three"]
    text = "PASS one value=0 tol=1\nFAIL two value=2 tol=1\n2/3 checks passed\n"
    assert gate.check_validate(text, names) == (3, 2)


def test_tracer_rebinds_imported_names_and_restores_them():
    from pfwigner import cli, closed_form, induction, minkowski, polarisation

    modules = {"minkowski": minkowski, "closed_form": closed_form, "induction": induction,
               "polarisation": polarisation, "cli": cli}
    originals = (cli.pf_wigner, induction.rotation_about, minkowski.rotation_about,
                 minkowski.LorentzTransform.__post_init__)
    tracer = Tracer()
    tracer.install(modules)
    try:
        assert cli.pf_wigner is induction.pf_wigner is polarisation.pf_wigner
        assert cli.pf_wigner is not originals[0]
        assert induction.rotation_about is minkowski.rotation_about is not originals[1]
        cli.pf_wigner(induction.bench_pair(0.1, 1.0), minkowski.rotation_about([0, 0, 1.0], 0.3))
    finally:
        tracer.uninstall()
    assert (cli.pf_wigner, induction.rotation_about, minkowski.rotation_about,
            minkowski.LorentzTransform.__post_init__) == originals

    per_name, _ = summarise(tracer.spans)
    assert per_name["induction.pf_wigner"][0] == 1
    assert per_name["induction.pf_standard_element"][0] == 2
    validate = "minkowski.LorentzTransform.validate"
    parents = {tracer.spans[p][0] for name, p, _, _ in tracer.spans if name == validate}
    assert "minkowski.rotation_about" in parents


def test_benchmark_json_names_every_workload_and_reason():
    spec = json.loads((Path(gate.__file__).parent.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()}
    assert all(len(w.why) <= 200 for w in WORKLOADS.values())


def test_traced_metrics_are_the_ones_benchmark_json_declares():
    import run

    spec = json.loads((Path(gate.__file__).parent.parent / "BENCHMARK.json").read_text())
    per_run = {"induction.pf_wigner": [2, 0.25], "cli._emit": [1, 0.5]}
    result = {"layers": [[per_run, 1.0], [per_run, 1.0]], "traced_walls": [2.0, 2.0],
              "walls": [1.0, 1.0, 1.0]}
    metrics, counts_repeat = run.layer_metrics(result)
    assert counts_repeat
    assert list(metrics) == [m["name"] for m in spec["per_layer"]]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (_, unit) in metrics.items()}
    assert metrics["induction.pf_wigner.calls"][0] == 2
    assert metrics["induction.pf_wigner.self_us_per_call"][0] == 1e6 * 0.5 / 4
    # 4 s traced, 2 s inside top-level spans; cli self = _emit 1 s + outside 2 s, over 2 runs
    assert metrics["cli.self_share"][0] == 0.5
    assert metrics["cli.self_s"][0] == 1.5
    assert metrics["trace.overhead_frac"][0] == 1.0


def test_speed_probe_samples_during_a_run_and_reports_its_time():
    import time

    import calibrate

    probe = calibrate.SpeedProbe("python", period_s=0.02)
    with probe:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.1:
            pass
    assert len(probe.samples) >= 3  # at least two from the timer, one on exit
    assert probe.spent == sum(probe.samples[:-1])
    _, ref_iter_s, iterations = calibrate.KERNELS["python"]
    mean_iter_s = sum(probe.samples) / len(probe.samples) / iterations
    assert probe.reference_seconds(2.0) == 2.0 * ref_iter_s / mean_iter_s
