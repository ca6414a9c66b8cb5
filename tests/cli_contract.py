"""The process-level contract of the braidforms command, as one table.

Run it against the installed command, or against this tree; it prints one
line per check, with each row's time and peak RSS and each module-set probe's
time, and exits 1 if any fails:

    python tests/cli_contract.py braidforms
    PYTHONPATH=src python tests/cli_contract.py python -m braidforms.cli
"""

import os
import shlex
import subprocess
import sys
import tempfile
import threading
import time
from collections import namedtuple

#: shell is the line around "{}", the command and its arguments; first is the first stdout line
#: ("" for none); bound is in MB, twice the peak a 2-CPU Linux host with Python 3.11 read.
Row = namedtuple("Row", "args shell status stderr first timeout bound", defaults=(60, None))
#: 600 kB of forms cannot fit in a pipe buffer, so the command is still writing when head
#: exits; unbuffered, a write can take part of the bytes without an error.  With fd 1 or 2
#: closed Python sets sys.stdout or sys.stderr to None; read-only, every stderr write fails.
STREAM_ROWS = [
    Row("forms 20000", "{} | head -n 1", 1, "", "-19998 19998 1\n"),
    Row("forms 20000", "PYTHONUNBUFFERED=1 {} | head -n 1", 1, "", "-19998 19998 1\n"),
    Row("h 5", "{} >&-", 1, "", ""),
    Row("h 2", "{} 2>&-", 2, "", ""),
    Row("h 2", "{} 2< /dev/null", 2, "", ""),
]
#: The deepest census at its widest window (n = 0) and largest t, the
#: largest class enumeration (h = 11264) and the largest class count, which
#: walks the same orbits but keeps no class, the dearest word both word limits
#: allow, and the widest verify range the |t|-sum limit allows.
LIMIT_ROWS = [
    Row("census 100000 0 --max-len 16 --format json", "{}", 0, "", "{\n", 60, 83),
    Row("classes -100000 --format csv", "{} > /dev/null", 0, "", "", 30, 105),
    Row("h -100000", "{}", 0, "", "11264\n", 10, 48),
    Row(shlex.join(["invariants", " ".join(["1^2500 2^2500"] * 20), "--format", "json"]),
        "{} > /dev/null", 0, "", "", 30, 268),
    Row("verify --tmin 3 --tmax 2448 --format csv", "{} > /dev/null", 0, "", "", 60, 69),
]
ROWS = [*STREAM_ROWS,
        Row("h 5 --format json", "{}", 0, "", "{\n"),
        Row("h 5", "{} > /dev/full", 1, "error: [Errno 28] No space left on device\n", ""),
        Row("h 2", "{}", 2, "error: t = +-2 is excluded\n", ""),
        Row("classes -2", "{}", 2, "error: t = +-2 is excluded\n", ""),
        Row("h 2", "{} 2> /dev/full", 2, "", ""),
        Row("m 99999 324 --format json", "{}", 0, "", "{\n", 10),  # a family-iv cell
        Row("invariants '1 2' --delta-power -3 --format json", "{}", 0, "", "{\n"),
        Row("invariants '1 2' --delta-power 3 --format json", "{}", 0, "", "{\n"),
        *LIMIT_ROWS]
#: Run by this Python: act((ST^-1)^16000, (1, 3, -1)), a 44,433-bit form, reduces to its key.
REDUCTION = Row("-c " + shlex.quote(
    "from braidforms import QForm, act, reduce, st_product; "
    "print(reduce(act(st_product([('S', 1), ('T', -1)] * 16000), QForm(1, 3, -1))).cycle)"),
    "{}", 0, "", "((-1, 3, 1), (1, 3, -1))\n", 10)
#: Run by this Python: a quadforms._steps that repeats its form is a defect, whose one-form
#: cycles fail the enumeration's even-length check: status 1 and one error line.
DEFECT = Row("-c " + shlex.quote(
    "import itertools, sys; from braidforms import quadforms; from braidforms.cli import main; "
    "quadforms._steps = lambda f, root: itertools.repeat(f); sys.exit(main(['classes', '5']))"),
    "{}", 1, "error: t=5: the class cycle of (1, 3, -3) has odd length\n", "")

_CLI = "_value cli"
_FORMS, _WORDS = _CLI + " quadforms sl2z", _CLI + " braid3 laurent sl2z"
_COUNTS = _FORMS + " counts"
_FIBERS = _COUNTS + " birman_menasco"
#: Arguments of braidforms.cli.main ("" only imports braidforms.cli, None only braidforms) ->
#: the modules a fresh -S interpreter then holds.  No entry holds csv, dataclasses, inspect
#: or json: the CSV and JSON formats import their module when used.
MODULE_SETS = {args: ["braidforms", *sorted(f"braidforms.{name}" for name in names.split())]
               for args, names in {
                   None: "", "": _CLI, "h 5": _FORMS, "forms 5": _FORMS, "classes 5": _COUNTS,
                   "census 3 0": _COUNTS, "census 3 0 --max-len 5": _COUNTS,
                   "invariants '1 2'": _WORDS, "invariants 3": _WORDS,
                   "counts 3 0": _FIBERS, "verify --tmin 3 --tmax 5": _FIBERS,
                   "m 20 1": _FORMS + " birman_menasco braid3 laurent"}.items()}


def contract_env(path) -> dict[str, str]:
    """os.environ without PYTHONUNBUFFERED, path (which holds braidforms) first on PYTHONPATH."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(path), env.get("PYTHONPATH")]))
    return env


def loaded_modules(args, env) -> list[str]:
    """What MODULE_SETS lists for args, read with -S: site hooks may load json."""
    code = "import braidforms" if args is None else "import braidforms.cli"
    code += f"\nbraidforms.cli.main({shlex.split(args)!r})" if args else ""
    probe = (f"import sys\n{code}\nprint(*sorted(name for name in sys.modules if name in "
             "{'csv', 'dataclasses', 'inspect', 'json'} or name.startswith('braidforms')))")
    proc = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60)
    return proc.stdout.splitlines()[-1].split() if proc.returncode == 0 else [proc.stderr]


def run_row(command, row, env) -> tuple[str | None, float, float]:
    """Run row after command under bash, which execs the command or exits with
    its status in a pipe: (the failure or None, seconds, peak MB from wait4)."""
    line = row.shell.format(f"{shlex.join(command)} {row.args}")
    line = f'{line}; exit "${{PIPESTATUS[0]}}"' if "|" in row.shell else f"exec {line}"
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen(["bash", "-c", line], stdout=out, stderr=err, env=env)
        timer = threading.Timer(row.timeout, proc.kill)
        timer.start()
        _, wait_status, usage = os.wait4(proc.pid, 0)
        timer.cancel()
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(wait_status)
        out.seek(0), err.seek(0)
        got = (proc.returncode, err.read().decode(), out.readline().decode())
    peak = usage.ru_maxrss / 1024  # KiB on Linux
    if got != (row.status, row.stderr, row.first) or peak > (row.bound or peak):
        return f"(status, stderr, first line) = {got}", seconds, peak
    return None, seconds, peak


def main(command: list[str]) -> int:
    import braidforms  # only to find the directory that holds it
    env = contract_env(os.path.dirname(os.path.dirname(braidforms.__file__)))
    failed = False
    for args, expected in MODULE_SETS.items():
        start = time.perf_counter()
        loaded = loaded_modules(args, env)
        seconds = time.perf_counter() - start
        failed |= loaded != expected
        print("ok  " if loaded == expected else f"FAIL {loaded}:",
              f"{seconds:5.3f} s modules after {args!r}")
    for prefix, row in [(command, row) for row in ROWS] + [([sys.executable], REDUCTION),
                                                           ([sys.executable], DEFECT)]:
        failure, seconds, peak = run_row(prefix, row, env)
        failed |= failure is not None
        label = row.shell.format(row.args)[:60]
        print(f"{'FAIL' if failure else 'ok  '} {seconds:5.2f} s {peak:6.1f} MB, bound "
              f"{row.bound or '-':>3}: {label}" + (f"; {failure}" if failure else ""))
    return int(failed)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]) if sys.argv[1:] else f"usage: {sys.argv[0]} COMMAND...")
