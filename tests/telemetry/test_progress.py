"""ProgressReporter rendering modes and throttling edges: TTY vs
newline mode, the non-TTY interval floor, zero-edge totals, and a
monotonic clock that goes backwards."""

from __future__ import annotations

import io

import repro.telemetry.progress as progress_module
from repro.telemetry.progress import (NON_TTY_MIN_INTERVAL,
                                      ProgressReporter)


class FakeClock:
    """Stands in for the ``time`` module inside ``progress``."""

    def __init__(self, now: float = 1000.0) -> None:
        self.now = now

    def monotonic(self) -> float:
        return self.now


class TtyStream(io.StringIO):
    def isatty(self) -> bool:
        return True


def _reporter(monkeypatch, clock, **kwargs):
    monkeypatch.setattr(progress_module, "time", clock)
    stream = kwargs.pop("stream", io.StringIO())
    return ProgressReporter(stream=stream, **kwargs), stream


def test_tty_mode_redraws_one_line(monkeypatch):
    clock = FakeClock()
    reporter, stream = _reporter(monkeypatch, clock, total_edges=100,
                                 stream=TtyStream(), min_interval=0.0)
    reporter(50)
    reporter.finish()
    text = stream.getvalue()
    assert text.count("\r") == 2         # one per draw, no newlines inside
    assert text.endswith("\n")           # finish terminates the line
    assert "50.0%" in text


def test_non_tty_mode_emits_newline_lines(monkeypatch):
    clock = FakeClock()
    reporter, stream = _reporter(monkeypatch, clock, total_edges=100)
    reporter(25)
    clock.now += NON_TTY_MIN_INTERVAL + 0.1
    reporter(75)
    reporter.finish()
    lines = stream.getvalue().splitlines()
    assert len(lines) == 3               # two updates + the final draw
    assert "\r" not in stream.getvalue()
    assert "25.0%" in lines[0] and "75.0%" in lines[1]
    assert "75.0%" in lines[2]


def test_non_tty_floors_the_redraw_interval(monkeypatch):
    clock = FakeClock()
    reporter, stream = _reporter(monkeypatch, clock, min_interval=0.0)
    reporter(1)
    clock.now += 0.5                     # plenty for a TTY, not for logs
    reporter(2)
    assert len(stream.getvalue().splitlines()) == 1
    clock.now += NON_TTY_MIN_INTERVAL
    reporter(3)
    assert len(stream.getvalue().splitlines()) == 2


def test_tty_autodetection(monkeypatch):
    monkeypatch.setattr(progress_module, "time", FakeClock())
    assert ProgressReporter(stream=TtyStream())._tty is True
    assert ProgressReporter(stream=io.StringIO())._tty is False

    class Broken(io.StringIO):
        def isatty(self):
            raise ValueError("detached")

    assert ProgressReporter(stream=Broken())._tty is False
    # Explicit override beats detection.
    assert ProgressReporter(stream=TtyStream(), tty=False)._tty is False


def test_zero_edge_total_draws_without_percent(monkeypatch):
    clock = FakeClock()
    reporter, stream = _reporter(monkeypatch, clock, total_edges=0)
    reporter(0)
    reporter.finish()
    text = stream.getvalue()
    assert "%" not in text               # zero total: no percent math
    assert "0 edges" in text


def test_zero_elapsed_rate_is_finite(monkeypatch):
    clock = FakeClock()
    reporter, stream = _reporter(monkeypatch, clock, total_edges=10)
    reporter(5)                          # drawn at elapsed == 0 exactly
    assert "edges/s" in stream.getvalue()


def test_clock_backwards_rearms_throttle(monkeypatch):
    clock = FakeClock(now=1000.0)
    reporter, stream = _reporter(monkeypatch, clock)
    reporter(1)                          # draws; _last_draw = 1000
    clock.now = 500.0                    # suspend/resume jumped backwards
    reporter(2)                          # re-arms instead of going mute
    clock.now = 500.0 + NON_TTY_MIN_INTERVAL + 0.1
    reporter(3)
    lines = stream.getvalue().splitlines()
    assert len(lines) == 2               # would be 1 until now==1002 if muted
    assert "3 edges" in lines[-1]


def test_update_after_finish_is_inert(monkeypatch):
    clock = FakeClock()
    reporter, stream = _reporter(monkeypatch, clock)
    reporter(10)
    reporter.finish()
    before = stream.getvalue()
    clock.now += 100.0
    reporter(999)
    reporter.finish()
    assert stream.getvalue() == before


def test_finish_without_tty_draw_adds_no_stray_newline(monkeypatch):
    clock = FakeClock()
    reporter, stream = _reporter(monkeypatch, clock, stream=TtyStream(),
                                 min_interval=0.0)
    reporter.finish()
    # One \r-draw from finish itself, then the line terminator.
    assert stream.getvalue().count("\n") == 1


def test_rate_and_eta_count_only_the_edges_since_the_first_update(
        monkeypatch):
    """A resumed run first reports the edges its earlier runs completed:
    they are the baseline, not work done in this run's elapsed time."""
    clock = FakeClock()
    reporter, stream = _reporter(monkeypatch, clock, total_edges=2000,
                                 min_interval=0.0, tty=True)
    reporter(900)                        # adopted chunks, at the start
    clock.now += 10.0
    reporter(1000)                       # 100 edges drawn in 10 s
    last = stream.getvalue().split("\r")[-1]
    assert "10 edges/s" in last
    assert "ETA 100s" in last
