"""The CLI's exit contract at extreme magnitudes, drawn from the quantity grammar.

Each drawn argv runs in-process through ``cli.main`` twice, as text and with
``--json``. Whatever the figures, no exception escapes, the exit code is 0, 1
or 2, an exit 1 prints exactly one ``error:`` line, both forms exit alike, the
JSON holds no NaN or Infinity, and no table prints ``nan``; a failed run leaves
no ``--out`` or ``--trace`` file. Simulated runs stay near 100 clients, so an
example costs a few ms. ``analyze`` reads a log that a drawn ``simulate`` wrote,
and each ``--compare`` a log of one drawn FCT, an all-failed log, a missing one
or the golden log.
"""

from __future__ import annotations

import io
import json
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import example, given
from hypothesis import strategies as st

from streamscore.cli import main

from conftest import strict_json

GOLDEN_LOG = str(Path(__file__).parent / "golden" / "simulate_log.jsonl")

_MAGNITUDES = st.one_of(
    st.sampled_from([5e-324, 1e-300, 1e-10, 1.0, 3.0, 1e10, 1e300, 1e308, 1.7e308]),
    st.floats(min_value=1e-3, max_value=1e4),  # most runs should get as far as a table
    st.floats(min_value=5e-324, max_value=1.7e308),
)


def _quantity(*suffixes: str):
    return st.builds(lambda value, suffix: f"{value!r}{suffix}", _MAGNITUDES, st.sampled_from(suffixes))


_BYTES = st.one_of(st.integers(1, 2**64).map(lambda n: f"{n}B"), _quantity("B", "KB", "GB", "TiB"))
_RATE = _quantity("bps", "Gbps", "Bps", "GBps")
_SECONDS = _quantity("ms", "s", "min")
_WORK = _quantity("FLOP", "TFLOP")
_COMPUTE_RATE = _quantity("FLOPS", "TF", "PF")
# a spawn window or rate: at most 10 x 10 clients
_SMALL = st.one_of(st.sampled_from([1.0, 2.5, 10.0]), st.floats(min_value=5e-324, max_value=10.0))


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _check_contract(argv: list[str], outputs: tuple[Path, ...] = ()) -> tuple[int, str]:
    """Run ``argv`` as text and with --json, check the contract, and return the exit and the text.

    Each of ``outputs`` (the ``--out`` and ``--trace`` paths) exists after a run that exits 0
    and after no other; it is removed before the next run.
    """
    runs = []
    for form in ([], ["--json"]):
        runs.append(_run([*argv, *form]))
        for path in outputs:
            assert path.exists() == (runs[-1][0] == 0), (path, runs[-1])
            if path.is_dir():
                shutil.rmtree(path)
            else:
                path.unlink(missing_ok=True)
    (code, text, err), (json_code, json_text, json_err) = runs
    assert code in (0, 1, 2) and code == json_code, (code, json_code, err, json_err)
    for stderr in (err, json_err):
        errors = [line for line in stderr.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 if code == 1 else not errors or code == 2, stderr
    assert "nan" not in text.lower(), text
    if code != 1:
        strict_json(json_text)
    return code, text


def _optional(draw, argv: list[str], flags) -> None:
    for flag, values in flags:
        if draw(st.booleans()):
            argv += [flag, draw(values)]


@st.composite
def _model_argv(draw) -> list[str]:
    argv = ["model", "--size", draw(_BYTES), "--bw", draw(_RATE)]
    _optional(draw, argv, [
        ("--alpha", st.floats(5e-324, 1.0).map(repr)),
        ("--theta", st.one_of(st.just(3.0), st.floats(1.0, 1.7e308)).map(repr)),
        ("--worst", _SECONDS), ("--rtt", _SECONDS), ("--interval", _SECONDS),
        ("--local-rate", _COMPUTE_RATE), ("--remote-rate", _COMPUTE_RATE), ("--work", _WORK),
    ])
    return argv


@st.composite
def _simulate_argv(draw, sweep: bool) -> list[str]:
    argv = ["simulate", "--bw", draw(_RATE), "--duration", f"{draw(_SMALL)!r}s", "--size", draw(_BYTES)]
    if sweep:
        argv += ["--sweep", ",".join(map(repr, draw(st.lists(_SMALL, min_size=1, max_size=3))))]
    else:
        argv += ["--concurrency", repr(draw(_SMALL))]
    _optional(draw, argv, [
        ("--rtt", _SECONDS), ("--startup", _SECONDS), ("--alpha", st.floats(5e-324, 1.0).map(repr)),
        ("--parallel", st.integers(1, 4).map(str)), ("--mode", st.sampled_from(["simultaneous", "scheduled"])),
    ])
    return argv


# a --compare log: missing, all-failed, the golden log, or one record of a drawn FCT
_COMPARE = st.one_of(st.sampled_from(["missing", "all-failed", GOLDEN_LOG]), _MAGNITUDES)


def _compare_log(tmp: str, compare) -> str:
    path = Path(tmp) / "compare.jsonl"
    if compare == "all-failed":
        path.write_text('{"client_id": 0, "spawn_s": 0.0, "complete_s": 1.0, "fct_s": 1.0, "bytes": 0, '
                        '"flows": 1, "status": "error", "error": "refused"}\n')
    elif isinstance(compare, float):
        path.write_text(f'{{"client_id": 0, "spawn_s": 0.0, "complete_s": {compare!r}, "fct_s": {compare!r}, '
                        '"bytes": 1000, "flows": 1}\n')
    return GOLDEN_LOG if compare == GOLDEN_LOG else str(path)


@st.composite
def _analyze_flags(draw) -> list[str]:
    argv: list[str] = []
    _optional(draw, argv, [
        ("--link-bw", _RATE), ("--rtt", _SECONDS),
        ("--tiers", st.lists(_SECONDS, min_size=1, max_size=3).map(",".join)),
    ])
    return argv


@st.composite
def _study(draw) -> dict:
    workflows = [{"name": f"w{i}", "throughput": draw(_RATE), "compute": draw(st.one_of(_WORK, _COMPUTE_RATE))}
                 for i in range(draw(st.integers(1, 3)))]
    link = {"bandwidth": draw(_RATE)}
    if draw(st.booleans()):
        link["alpha"] = draw(st.floats(5e-324, 1.0))
    if draw(st.booleans()):
        link["rtt"] = draw(_SECONDS)
    loads = sorted(set(draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3))))
    return {"workflows": workflows, "link": link,
            "worst_fct_curve": [[load, draw(_SECONDS)] for load in loads]}


@given(argv=_model_argv())
# an I/O time that overflows: the table printed inf and exited 0, --json exited 1
@example(argv=["model", "--size", "1GB", "--bw", "25Gbps", "--worst", "1e308s", "--theta", "3"])
# a transfer time that overflows, named as the transfer's in both forms
@example(argv=["model", "--size", "1e300B", "--bw", "1e-10Bps", "--work", "1TFLOP", "--remote-rate", "1TF"])
def test_model_keeps_the_exit_contract(argv):
    _check_contract(argv)


@given(argv=_simulate_argv(sweep=False), with_out=st.booleans())
# an FCT that overflows: the table printed inf and nan and exited 0, --json exited 1
@example(argv=["simulate", "--bw", "5e-324Bps", "--duration", "2s", "--concurrency", "3", "--size", "1B",
               "--mode", "simultaneous"], with_out=False)
@example(argv=["simulate", "--bw", "5e-324Bps", "--duration", "2s", "--concurrency", "3", "--size", "1B",
               "--mode", "simultaneous"], with_out=True)
# bytes past a record's int64: --out ended in an OverflowError traceback
@example(argv=["simulate", "--bw", "1e-10Bps", "--duration", "1s", "--concurrency", "1", "--size", "1e300B"],
         with_out=True)
def test_simulate_keeps_the_exit_contract(argv, with_out):
    with tempfile.TemporaryDirectory() as tmp:
        log = Path(tmp) / "run.jsonl"
        # a run that fails writes no log: a log of overflowed FCTs would not be JSON
        _check_contract([*argv, "--out", str(log)] if with_out else argv, (log,) if with_out else ())


@given(argv=_simulate_argv(sweep=False), compare=_COMPARE,
       outputs=st.lists(st.sampled_from(["--out", "--trace"]), unique=True))
# a missing or all-failed --compare log: --out and --trace used to be written before the exit 1
@example(argv=["simulate", "--bw", "25Gbps", "--duration", "1s", "--concurrency", "2", "--size", "1GB"],
         compare="missing", outputs=["--out", "--trace"])
@example(argv=["simulate", "--bw", "25Gbps", "--duration", "1s", "--concurrency", "2", "--size", "1GB"],
         compare="all-failed", outputs=["--out", "--trace"])
def test_simulate_compare_keeps_the_exit_contract(argv, compare, outputs):
    with tempfile.TemporaryDirectory() as tmp:
        files = {"--out": Path(tmp) / "run.jsonl", "--trace": Path(tmp) / "trace.csv"}
        argv = [*argv, "--compare", _compare_log(tmp, compare)]
        for flag in outputs:
            argv += [flag, str(files[flag])]
        _check_contract(argv, tuple(files[flag] for flag in outputs))


@given(run=_simulate_argv(sweep=False), flags=_analyze_flags(),
       compare=st.one_of(st.none(), st.just("--in"), _COMPARE), with_out=st.booleans())
# --rtt without --link-bw, once dropped without a word: exit 1 in both forms
@example(run=["simulate", "--bw", "25Gbps", "--duration", "1s", "--concurrency", "2", "--size", "1GB"],
         flags=["--rtt", "16ms"], compare=None, with_out=True)
def test_analyze_keeps_the_exit_contract(run, flags, compare, with_out):
    with tempfile.TemporaryDirectory() as tmp:
        log, report = Path(tmp) / "run.jsonl", Path(tmp) / "report"
        _run([*run, "--out", str(log)])  # a run that fails leaves no log, and analyze exits 1
        argv = ["analyze", "--in", str(log), *flags]
        if compare is not None:
            argv += ["--compare", str(log) if compare == "--in" else _compare_log(tmp, compare)]
        _check_contract([*argv, "--out", str(report)] if with_out else argv, (report,) if with_out else ())


@given(argv=_simulate_argv(sweep=True))
# rows whose load and FCT overflow: the table printed inf and nan rows and exited 0, --json exited 1
@example(argv=["simulate", "--bw", "5e-324Bps", "--duration", "2s", "--sweep", "1,3", "--size", "1B",
               "--mode", "simultaneous"])
def test_sweep_keeps_the_exit_contract(argv):
    _check_contract(argv)


@given(study=_study())
# an offered load that overflows: the table said INFEASIBLE and exited 2, --json exited 1
@example(study={"workflows": [{"name": "w0", "throughput": "1e300Bps", "compute": "1TFLOP"}],
                "link": {"bandwidth": "1e-10Bps"}, "worst_fct_curve": [[0.5, "1s"]]})
def test_casestudy_keeps_the_exit_contract(study):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "study.json"
        path.write_text(json.dumps(study), encoding="utf-8")
        _check_contract(["casestudy", "--input", str(path)])
