"""Seeded grammar fuzzing: mutated model files through the CLI, in process.

Each fixture is mutated under a fixed seed (lines dropped, duplicated or
swapped, a token replaced, digits changed) and run under one subcommand
through rht.cli.main, under an alarm.  Every call must end in exit 0, 1 or 2
with at most one line on stderr: a bad file gets a message, never a
traceback or a hang.
"""

import contextlib
import io
import random
import signal
from pathlib import Path

from rht.cli import main

FIXTURES = Path(__file__).resolve().parent / "fixtures"
SEED = 8
MUTANTS_PER_FILE = 25
ALARM_S = 3.0
SUBCOMMANDS = (
    "validate", "homotopy", "cohomology", "der-homology", "gottlieb", "fibre-gottlieb",
    "connecting", "les-check", "toral-check", "depth", "poset", "enumerate",
)
# what a replaced token becomes: keywords, operators, headers and stray text
TOKENS = (
    "gen", "d", "D", "bound", "=", "+", "-", "*", "/", "^", "0", "1", "x", "$", "",
    "[space s]", "[fibration f]", "[base]", "[fiber]", "[total]", "#",
)


class AlarmHit(BaseException):
    """Raised by the alarm; a BaseException, so that no handler in main catches it."""


def mutate(rng: random.Random, text: str) -> str:
    """One to three edits: drop, duplicate or swap lines, replace a token, change digits."""
    lines = text.splitlines()
    for _ in range(rng.randint(1, 3)):
        if not lines:
            break
        i, op = rng.randrange(len(lines)), rng.randrange(5)
        if op == 0:
            del lines[i]
        elif op == 1:
            lines.insert(i, lines[i])
        elif op == 2:
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == 3:
            words = lines[i].split(" ")
            words[rng.randrange(len(words))] = rng.choice(TOKENS)
            lines[i] = " ".join(words)
        else:
            digits = [k for k, ch in enumerate(lines[i]) if ch.isdigit()]
            if digits:
                k = rng.choice(digits)
                new = str(rng.choice((0, 1, 2, 7, 10, 99)))
                lines[i] = lines[i][:k] + new + lines[i][k + 1:]
    return "\n".join(lines) + "\n"


def run(argv: list[str]) -> tuple[object, str]:
    """main(argv) under the alarm: (exit code or what escaped, stderr)."""

    def ring(signum, frame):
        raise AlarmHit

    err = io.StringIO()
    previous = signal.signal(signal.SIGALRM, ring)
    signal.setitimer(signal.ITIMER_REAL, ALARM_S)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    except AlarmHit:
        code = f"no exit within {ALARM_S} s"
    except BaseException as exc:  # SystemExit too: nothing may escape main
        code = f"{type(exc).__name__} escaped: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, err.getvalue()


def test_mutated_files_end_in_a_message(tmp_path):
    rng = random.Random(SEED)
    base = str(FIXTURES / "base-qt.smf")
    fixtures = sorted(FIXTURES.rglob("*.smf"))
    problems = []
    for fixture in fixtures:
        text = fixture.read_text(encoding="utf-8")
        for k in range(MUTANTS_PER_FILE):
            path = tmp_path / f"{fixture.stem}-{k}.smf"
            path.write_text(mutate(rng, text), encoding="utf-8")
            cmd = rng.choice(SUBCOMMANDS)
            argv = [cmd, str(path), *([base] if cmd == "enumerate" else [])]
            code, err = run(argv)
            if code not in (0, 1, 2) or err.count("\n") > 1:
                problems.append(f"{' '.join(argv)}: {code!r}, stderr {err!r}\n{path.read_text()}")
    calls = MUTANTS_PER_FILE * len(fixtures)
    assert not problems, f"{len(problems)} of {calls} calls:\n" + "\n".join(problems[:5])
