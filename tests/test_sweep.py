"""scripts/sweep_accuracy.py: bad arguments and failed walks."""

import importlib.util
from pathlib import Path

import pytest

from stridelab import NoStepsDetected, analyze_sequence
from stridelab.optimizer import STOP_REASONS

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "sweep_accuracy.py"


@pytest.fixture
def sweep():
    spec = importlib.util.spec_from_file_location("sweep_accuracy", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _exit_code(sweep, argv):
    try:
        return sweep.main(argv)
    except SystemExit as exc:   # argparse exits on a rejected argument
        return exc.code


@pytest.mark.parametrize("argv, message", [
    (["--walks", "0"], "--walks must be at least 1, got 0"),
    (["--sigma3d", "-1"], "error: walk spec: noise levels must be non-negative"),
    (["--fps", "5"], "error: walk spec: fps must be at least 10, got 5.0"),
], ids=["no-walks", "negative-noise", "low-fps"])
def test_bad_arguments_exit_2_before_any_walk(sweep, capsys, argv, message):
    assert _exit_code(sweep, argv) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("failing, code", [({0}, 0), ({0, 1}, 1)],
                         ids=["one-fails", "all-fail"])
def test_failed_walks_print_error_rows(sweep, capsys, monkeypatch, failing, code):
    """A walk the pipeline fails on gets an error row and the sweep goes on;
    the summary covers the others, and with none left the script exits 1.
    A walk that ran ends its row with its fit's iterations and stop
    reason."""
    calls, fits = [], []

    def analyze(seq, cfg):
        calls.append(seq)
        if len(calls) - 1 in failing:
            raise NoStepsDetected("no foot contact found")
        result = analyze_sequence(seq, cfg)
        fits.append(result.fitted)
        return result

    monkeypatch.setattr(sweep, "analyze_sequence", analyze)
    assert _exit_code(sweep, ["--walks", "2", "--distance", "3"]) == code
    lines = capsys.readouterr().out.splitlines()
    assert len(calls) == 2
    assert lines[0].split()[-3:] == ["s", "iters", "stop"]
    assert lines[1] == "  0.80     90.0  error NoStepsDetected: no foot contact found"
    assert ("worst relative error per parameter:" in lines) == (code == 0)
    ok_rows = [line for line in lines[1:3] if " error " not in line]
    assert len(ok_rows) == len(fits) == 2 - len(failing)
    for row, fit in zip(ok_rows, fits):
        assert row.split()[-2:] == [str(fit.iterations), fit.stop_reason]
        assert fit.stop_reason in STOP_REASONS
