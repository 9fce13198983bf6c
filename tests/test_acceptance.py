"""End-to-end acceptance gate: one test per numbered criterion.

Each test prints a single pass/fail line with timing, then asserts the
time budget and the criterion itself. Run with -s to see the lines.
"""

import dataclasses

import pytest

from eigenband import acceptance, cli


def _check(index):
    r = acceptance.run_criterion(index)
    status = "PASS" if r.passed else "FAIL"
    print(f"criterion {r.index}: {status} ({r.seconds:.1f}s) "
          f"[{r.title}] {r.detail}")
    assert r.seconds <= r.budget_s, f"budget {r.budget_s}s exceeded"
    assert r.passed, r.detail


def test_criterion_01_kernel_diagonal_growth_law():
    _check(1)


def test_criterion_02_two_route_distance_identity():
    _check(2)


def test_criterion_03_large_degree_bessel_profile():
    _check(3)


def test_criterion_04_ratio_scan_stability():
    _check(4)


def test_criterion_05_near_isometric_pullback_metric():
    _check(5)


def test_criterion_06_antipodal_band_parity():
    _check(6)


def test_criterion_07_embedded_diameter_window():
    _check(7)


def test_criterion_08_covering_bounds_and_dimension():
    _check(8)


def test_criterion_09_expected_sup_below_entropy_integral():
    _check(9)


def test_criterion_10_sqrt_log_flat_sup_growth():
    _check(10)


def test_criterion_11_small_parameter_integral_identity():
    _check(11)


def test_criterion_12_wave_increments_match_distance():
    _check(12)


@pytest.mark.parametrize("index, study", [(3, "profile"), (4, "lipschitz"), (11, "claim")])
def test_criterion_verdict_comes_from_cli_study(monkeypatch, index, study):
    real_run = cli.run
    calls = []

    def failing_run(subcommand, cfg):
        calls.append(subcommand)
        report, header, rows = real_run(subcommand, cfg)
        flags = {name: False for name in report.flags}
        return dataclasses.replace(report, flags=flags), header, rows

    assert acceptance.run_criterion(index).passed
    monkeypatch.setattr(cli, "run", failing_run)
    assert not acceptance.run_criterion(index).passed
    assert calls == [study]
