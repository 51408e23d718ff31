"""Acceptance gate: the headline guarantees, each as one pass/fail test.

Run `pytest -v tests/test_acceptance.py` to get one line per criterion.
The two random corpora are generated once per session and shared by the
criteria that audit them.
"""

import time

import pytest

from nulldecomp import cycle_sweep, tree_sweep, unicyclic_sweep
from nulldecomp.fixtures import check_all

TREE_COUNT, TREE_RANGE, TREE_SEED = 1000, (2, 16), 2025
UNI_COUNT, UNI_RANGE, UNI_SEED = 2000, (6, 16), 2026


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"acceptance: {criterion}: {status} ({detail})")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def tree_run():
    start = time.perf_counter()
    outcome = tree_sweep(TREE_COUNT, *TREE_RANGE, TREE_SEED)
    return outcome, time.perf_counter() - start


@pytest.fixture(scope="module")
def unicyclic_run():
    start = time.perf_counter()
    outcome = unicyclic_sweep(UNI_COUNT, *UNI_RANGE, UNI_SEED)
    return outcome, time.perf_counter() - start


@pytest.fixture(scope="module")
def cycle_run():
    start = time.perf_counter()
    outcome = cycle_sweep(3, 24)
    return outcome, time.perf_counter() - start


def _failing(outcome):
    return {name: pf for name, pf in outcome.tallies.items() if pf[1]}


def test_criterion_1_bundled_examples_reproduce_under_1s():
    start = time.perf_counter()
    reports = check_all()
    elapsed = time.perf_counter() - start
    rows = sum(len(r.rows) for r in reports)
    bad = [r.fixture for r in reports if not r.ok]
    report(
        "criterion 1, bundled examples reproduce in under 1s",
        not bad and elapsed < 1.0,
        f"{len(reports)} fixtures, {rows} checks, failures {bad}, {elapsed:.2f}s",
    )


def test_criterion_2_cycle_law_3_to_24_under_1s(cycle_run):
    outcome, elapsed = cycle_run
    report(
        "criterion 2, cycle singularity law for n = 3..24 in under 1s",
        outcome.ok and elapsed < 1.0,
        f"failing invariants {_failing(outcome)}, {elapsed:.2f}s",
    )


def test_criterion_3_two_thousand_unicyclic_under_60s(unicyclic_run):
    outcome, elapsed = unicyclic_run
    counted = sum(outcome.tallies["alpha formula vs oracle"])
    report(
        "criterion 3, 2000 random unicyclic graphs (6 <= n <= 16) in under 60s",
        outcome.ok and counted == UNI_COUNT and elapsed < 60.0,
        f"instances {counted}, type mix {outcome.stats}, "
        f"failing invariants {_failing(outcome)}, {elapsed:.1f}s",
    )


def test_criterion_4_one_thousand_trees_under_60s(tree_run):
    outcome, elapsed = tree_run
    counted = sum(outcome.tallies["alpha formula vs oracle"])
    report(
        "criterion 4, 1000 random trees (2 <= n <= 16) in under 60s",
        outcome.ok and counted == TREE_COUNT and elapsed < 60.0,
        f"instances {counted}, failing invariants {_failing(outcome)}, {elapsed:.1f}s",
    )


def test_criterion_5_exactness_audit_zero_violations(tree_run, unicyclic_run):
    # Both invariants go through null_basis, which raises on any kernel
    # vector that fails A x = 0, so a pass is an exactly verified kernel.
    tree_pass, tree_fail = tree_run[0].tallies["support equals kernel support"]
    uni_pass, uni_fail = unicyclic_run[0].tallies["composed nullity vs direct nullity"]
    report(
        "criterion 5, exact rational kernels on both corpora, zero violations",
        tree_fail == 0 and uni_fail == 0
        and tree_pass == TREE_COUNT and uni_pass == UNI_COUNT,
        f"{tree_pass + uni_pass} instances verified, "
        f"{tree_fail + uni_fail} violations",
    )


def test_criterion_6_certificates_all_valid(tree_run, unicyclic_run, cycle_run):
    tree_pass, tree_fail = tree_run[0].tallies["certificates valid and sized"]
    uni_pass, uni_fail = unicyclic_run[0].tallies["certificates valid and sized"]
    cyc_pass, cyc_fail = cycle_run[0].tallies["certificates valid and sized"]
    report(
        "criterion 6, every produced certificate is valid and maximum",
        tree_fail == 0 and uni_fail == 0 and cyc_fail == 0
        and tree_pass == TREE_COUNT and uni_pass == UNI_COUNT and cyc_pass == 22,
        f"{uni_pass} unicyclic, {cyc_pass} cycles, {tree_pass} trees checked; "
        f"{tree_fail + uni_fail + cyc_fail} invalid",
    )
