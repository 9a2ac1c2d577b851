"""End-to-end verification battery.

Each check in fiocalc.acceptance bundles one family of guarantees (symplectic
algebra, phase reduction, metaplectic identities, Weyl calculus, phase-space
analysis, kernel characterization) with its pinned tolerances.  This file runs
every check at full size plus the determinism contract for the CLI suite.
"""

import filecmp
import functools
import json
import multiprocessing
import os
import subprocess
import sys
import threading
import time

import pytest

from fiocalc import acceptance, cli, gabor, lagdist
from fiocalc.fio import FioSpec, fio_kernel, kernel_characterization_check
from fiocalc.gabor import sweep_kernel_field
from fiocalc.grids import GridSpec
from fiocalc.serialize import json_dumps
from fiocalc.symbols import constant_symbol
from fiocalc.symplectic import standard_j


def count_kernel_sweeps(monkeypatch):
    """Sweeps of a kernel field, spied on in every namespace that binds
    sweep_kernel_field: the number of readers of each.  Each sweep first
    asserts that no other is running, so at most one field is swept, and
    none held, at a time."""
    sweeps, running = [], []
    original = gabor.sweep_kernel_field

    def spy(K, readers, *args, **kwargs):
        assert not running, f"sweep {len(sweeps) + 1} starts inside another"
        running.append(1)
        try:
            return original(K, readers, *args, **kwargs)
        finally:
            running.pop()
            sweeps.append(len(readers))

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "fiocalc" and \
                getattr(module, "sweep_kernel_field", None) is original:
            monkeypatch.setattr(module, "sweep_kernel_field", spy)
    return sweeps


# kernel sweeps a full check makes: one per distinct kernel
FULL_MODE_SWEEPS = {"check_kernel_characterization": 2, "check_wavefront_sets": 1,
                    "check_lagrangian_equivalence": 4}


@pytest.mark.parametrize("check", acceptance.ALL_CHECKS,
                         ids=lambda c: c.__name__)
def test_acceptance_check(check, monkeypatch):
    sweeps = count_kernel_sweeps(monkeypatch)
    result = check(seed=0, quick=False)
    assert result.status == "pass", result.details
    assert len(sweeps) == FULL_MODE_SWEEPS.get(check.__name__, 0)


@pytest.mark.parametrize("check", [acceptance.check_kernel_characterization,
                                   acceptance.check_wavefront_sets,
                                   acceptance.check_lagrangian_equivalence],
                         ids=lambda c: c.__name__)
def test_quick_kernel_checks_build_one_field(check, monkeypatch):
    """A quick kernel check called alone sweeps the mu(J) field once, for
    its own reads only."""
    sweeps = count_kernel_sweeps(monkeypatch)
    assert check(seed=3, quick=True).status == "pass"
    assert sweeps == [{"check_kernel_characterization": 1, "check_wavefront_sets": 2,
                       "check_lagrangian_equivalence": 4}[check.__name__]]


def count_kernel_reports(monkeypatch):
    """Calls of kernel_characterization_check made by the battery."""
    calls = []
    original = acceptance.kernel_characterization_check

    def spy(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(acceptance, "kernel_characterization_check", spy)
    return calls


def test_quick_suite_builds_one_field_per_run(monkeypatch):
    """The three kernel checks read the mu(J) field in one sweep with six
    readers, one per distinct read, and a second run sweeps it again."""
    sweeps = count_kernel_sweeps(monkeypatch)
    reports = count_kernel_reports(monkeypatch)
    for run in (1, 2):
        results = acceptance.run_suite(3, True, lambda *_: None)
        assert [r.status for r in results] == ["pass"] * len(acceptance.ALL_CHECKS)
        assert sweeps == [6] * run
        # (mu(J), J, 0) is profiled once for two checks, (mu(J), identity, 0) once
        assert len(reports) == 2 * run


def test_full_suite_builds_each_field_once_at_a_time(monkeypatch):
    """Each of the four kernels is swept once, with a reader for every read
    the three checks make of it: mu(J) 8 (3 kernel tests, 3 membership
    tests, 2 cone checks), HO mu(J), mu(chirp) and the synthesized kernel 2
    each.  The spy asserts one sweep at a time."""
    sweeps = count_kernel_sweeps(monkeypatch)
    results = acceptance.run_suite(3, False, lambda *_: None)
    assert [r.status for r in results] == ["pass"] * len(acceptance.ALL_CHECKS)
    assert sweeps == [8, 2, 2, 2]


class CallLog:
    """Records that any process appends to one file, one os.write of one
    line each (O_APPEND, so lines from two processes do not interleave),
    read back in the order written."""

    def __init__(self, path):
        self.path = str(path)
        open(self.path, "w").close()

    def append(self, *record):
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND)
        try:
            os.write(fd, (json.dumps(record) + "\n").encode())
        finally:
            os.close(fd)

    def records(self):
        with open(self.path) as fh:
            return [tuple(json.loads(line)) for line in fh]


def process_recorder(checks, log):
    """Each check wrapped to record (check name, pid) in log on each call,
    keeping its signature as the benchmark tracer's wrappers do."""
    def wrap(check):
        @functools.wraps(check)
        def recorded(*args, **kwargs):
            log.append(check.__name__, os.getpid())
            return check(*args, **kwargs)
        return recorded

    return tuple(wrap(check) for check in checks)


def run_recorded_suite(monkeypatch, cpus, checks=None):
    """The quick suite at seed 3 with cpus usable CPUs: its results, the
    progress calls as (result name, pid, thread id), and the threads and
    child processes it left running."""
    monkeypatch.setattr(acceptance, "_usable_cpus", lambda: cpus)
    if checks is not None:
        monkeypatch.setattr(acceptance, "ALL_CHECKS", checks)
    progress = []
    before = threading.active_count()
    results = acceptance.run_suite(
        3, True, lambda res, _dt: progress.append(
            (res.name, os.getpid(), threading.get_ident())))
    return results, progress, threading.active_count() - before, \
        multiprocessing.active_children()


def test_concurrent_battery_is_the_serial_one(monkeypatch, tmp_path):
    """With 2 CPUs the kernel-table checks run in the calling process and
    the other nine in one worker process, which runs BLAS on one thread
    whatever the caller's count: results and progress are the serial run's
    at one BLAS thread, progress is called on the calling thread only, and
    no thread or process is left."""
    assert acceptance._one_blas_thread()
    serial, serial_progress, serial_left, serial_children = run_recorded_suite(monkeypatch, 1)
    log = CallLog(tmp_path / "calls")
    checks = process_recorder(acceptance.ALL_CHECKS, log)
    for set_threads in acceptance._blas_thread_setters():
        set_threads(2)
    try:
        concurrent, progress, left, children = run_recorded_suite(monkeypatch, 2, checks)
    finally:
        acceptance._one_blas_thread()
    assert [json_dumps(r.to_dict()) for r in concurrent] \
        == [json_dumps(r.to_dict()) for r in serial]
    names = [r.name for r in serial]
    me = (os.getpid(), threading.get_ident())
    assert serial_progress == progress == [(name, *me) for name in names]
    assert serial_left == left == 0
    assert serial_children == children == []
    calls = log.records()
    chain = [name for name, pid in calls if pid == os.getpid()]
    assert chain == ["check_kernel_characterization", "check_wavefront_sets",
                     "check_lagrangian_equivalence"]
    side = {pid for _name, pid in calls if pid != os.getpid()}
    assert len(side) == 1 and len(calls) == len(names)


def test_suite_runs_the_checks_held_at_call_time(monkeypatch, tmp_path):
    """The benchmark tracer replaces ALL_CHECKS with wrapped checks:
    run_suite calls each wrapper once, and the wrapped kernel-table checks
    still share one table, so the quick suite sweeps one field."""
    sweeps = count_kernel_sweeps(monkeypatch)
    log = CallLog(tmp_path / "calls")
    checks = process_recorder(acceptance.ALL_CHECKS, log)
    results, _, _, children = run_recorded_suite(monkeypatch, 2, checks)
    assert sorted(name for name, _ in log.records()) == sorted(c.__name__ for c in checks)
    assert [r.status for r in results] == ["pass"] * len(checks)
    assert sweeps == [6]
    assert children == []


def fake_check(name, log, events, table=False, role=None):
    """A check that logs its start.  A "runner" then waits until the other
    side's "raiser" has raised, and 0.2 s more, by when the raise has
    stopped its side; a raiser waits until the runner is running, then
    raises RuntimeError(name); an "exiter" ends its process with
    os._exit(1)."""
    def check():
        log.append("start", name)
        if role == "runner":
            events["running"].set()
            assert events["raised"].wait(10.0)
            time.sleep(0.2)
        if role == "raiser":
            assert events["running"].wait(10.0)
            log.append("raise", name)
            events["raised"].set()
            raise RuntimeError(name)
        if role == "exiter":
            os._exit(1)
        return acceptance.CheckResult(name, "pass", {})

    def chain_check(seed, quick, table):
        return check()

    def side_check(seed, quick):
        return check()

    return chain_check if table else side_check


@pytest.mark.parametrize("raiser", ["w2", "c1"], ids=["worker-raises", "chain-raises"])
def test_an_exception_on_either_side_propagates_and_stops_both(monkeypatch, tmp_path,
                                                               raiser):
    """One side raises while the other runs a check: the exception reaches
    the caller once that check has ended, no check starts after the raise,
    progress reports only the checks before the raising one, and no thread
    or process is left."""
    log = CallLog(tmp_path / "log")
    ctx = multiprocessing.get_context("fork")
    events = {"running": ctx.Event(), "raised": ctx.Event()}
    runner = "c1" if raiser == "w2" else "w1"

    def check(name, table=False):
        role = {raiser: "raiser", runner: "runner"}.get(name)
        return fake_check(name, log, events, table, role)

    checks = (check("w1"), check("w2"), check("w3"),
              check("c1", table=True), check("c2", table=True))
    monkeypatch.setattr(acceptance, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(acceptance, "ALL_CHECKS", checks)
    progress = []
    before = threading.active_count()
    with pytest.raises(RuntimeError, match=f"^{raiser}$"):
        acceptance.run_suite(3, True, lambda res, _dt: progress.append(res.name))
    assert threading.active_count() == before
    assert multiprocessing.active_children() == []
    records = log.records()
    raised_at = records.index(("raise", raiser))
    assert all(kind == "raise" for kind, _ in records[raised_at:])
    assert {name for _, name in records} == ({"w1", "w2", "c1"} if raiser == "w2"
                                             else {"w1", "c1"})
    assert progress == ["w1"]


def test_a_worker_that_exits_makes_the_suite_raise(monkeypatch, tmp_path):
    """A side check that ends the worker process with os._exit(1): run_suite
    raises, naming the check it did not finish, rather than waiting for it;
    progress reports the checks before it, and no process is left."""
    log = CallLog(tmp_path / "log")
    checks = (fake_check("w1", log, None), fake_check("w2", log, None, role="exiter"),
              fake_check("w3", log, None), fake_check("c1", log, None, table=True),
              fake_check("c2", log, None, table=True))
    monkeypatch.setattr(acceptance, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(acceptance, "ALL_CHECKS", checks)
    progress = []
    with pytest.raises(RuntimeError, match="exited with code 1 before check 1 ended"):
        acceptance.run_suite(3, True, lambda res, _dt: progress.append(res.name))
    assert multiprocessing.active_children() == []
    assert ("start", "w3") not in log.records()
    assert progress == ["w1"]


def test_table_serves_the_report_of_a_fresh_field():
    grid = GridSpec(1, 128, 10.0)
    J = standard_j(1)
    spec = FioSpec("factored", 0.0, 1.0, b=constant_symbol(2), chi=J)
    table = acceptance.KernelTable(True, "lagrangian_equivalence")
    (kernel_read, served), (member_read, member_served), *_ = \
        table.results("lagrangian_equivalence")
    assert (kernel_read.case, kernel_read.kind, member_read.kind) \
        == ("mu_fourier|fourier", "kernel", "membership")
    assert table.results("lagrangian_equivalence")[0][1] is served
    K, _ = fio_kernel(spec, grid)
    fresh, member = sweep_kernel_field(K, [kernel_characterization_check(J, 0.0, 1.0),
                                           lagdist.kernel_membership_check(J, 0.0)])
    assert served.to_dict() == fresh.to_dict()
    assert member_served.to_dict() == member.to_dict()
    # the equivalence check reads the served reports as it would fresh ones
    rep = lagdist.kernel_equals_lagrangian_check(served, member_served)
    assert rep == lagdist.kernel_equals_lagrangian_check(fresh, member)
    assert rep["agree"] and rep["status"] == "pass"


def _tree_files(root):
    found = []
    for base, _dirs, names in os.walk(root):
        for name in names:
            full = os.path.join(base, name)
            found.append(os.path.relpath(full, root))
    return sorted(found)


def test_suite_runs_are_byte_identical(tmp_path):
    first = tmp_path / "run1"
    second = tmp_path / "run2"
    for out in (first, second):
        code = cli.main(["suite", "--quick", "--seed", "3", "--out", str(out)])
        assert code == 0
    files1 = _tree_files(first)
    assert files1 == _tree_files(second)
    assert "summary.json" in files1 and "manifest.json" in files1
    for rel in files1:
        same = filecmp.cmp(str(first / rel), str(second / rel), shallow=False)
        assert same, f"{rel} differs between identical runs"


def test_suite_artifacts_do_not_depend_on_the_blas_thread_count(tmp_path):
    """fiocalc runs BLAS on one thread whatever OPENBLAS_NUM_THREADS asks
    for, so the quick suite's manifest is the same at 1 and 2 threads."""
    src = os.path.dirname(os.path.dirname(acceptance.__file__))
    manifests = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-m", "fiocalc", "suite", "--quick", "--seed", "3",
                               "--out", str(out)], env=env, capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr
        manifests.append((out / "manifest.json").read_bytes())
    assert manifests[0] == manifests[1]
