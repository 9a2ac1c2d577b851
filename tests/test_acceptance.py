"""End-to-end verification battery.

Each check in fiocalc.acceptance bundles one family of guarantees (symplectic
algebra, phase reduction, metaplectic identities, Weyl calculus, phase-space
analysis, kernel characterization) with its pinned tolerances.  This file runs
every check at full size plus the determinism contract for the CLI suite.
"""

import filecmp
import os
import sys

import pytest

from fiocalc import acceptance, cli, gabor


def count_kernel_fields(monkeypatch):
    """Calls of kernel_fbi_field, spied on in every namespace that binds it."""
    calls = []
    original = gabor.kernel_fbi_field

    def spy(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "fiocalc" and getattr(module, "kernel_fbi_field", None) is original:
            monkeypatch.setattr(module, "kernel_fbi_field", spy)
    return calls


# kernel fields a full check builds: one per distinct kernel
FULL_MODE_FIELDS = {"check_kernel_characterization": 2, "check_wavefront_sets": 1,
                    "check_lagrangian_equivalence": 4}


@pytest.mark.parametrize("check", acceptance.ALL_CHECKS,
                         ids=lambda c: c.__name__)
def test_acceptance_check(check, monkeypatch):
    calls = count_kernel_fields(monkeypatch)
    result = check(seed=0, quick=False)
    assert result.status == "pass", result.details
    assert len(calls) == FULL_MODE_FIELDS.get(check.__name__, 0)


@pytest.mark.parametrize("check", [acceptance.check_kernel_characterization,
                                   acceptance.check_wavefront_sets,
                                   acceptance.check_lagrangian_equivalence],
                         ids=lambda c: c.__name__)
def test_quick_kernel_checks_build_one_field(check, monkeypatch):
    calls = count_kernel_fields(monkeypatch)
    assert check(seed=3, quick=True).status == "pass"
    assert len(calls) == 1


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

