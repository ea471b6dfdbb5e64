"""Tests of the benchmark itself: job generation, span arithmetic, the
output gate and the tracer's rebinding.

    python3 -m pytest perfbench/test_perfbench.py
"""

import fnmatch
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
from gate import check_output, group_ring_norm, sha256  # noqa: E402
from tracing import (COUNTERS, SPANS, YIELD_COUNTERS, Tracer,  # noqa: E402
                     layer_metrics, self_times)
from workloads import WORKLOADS, Job, make_jobs  # noqa: E402


@pytest.fixture(scope="module")
def cli():
    return run.set_up("closed-forms", 0)[1]


@pytest.fixture(scope="module")
def validators():
    return run.load_validators(run.ROOT / "schemas")


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_jobs_repeat_for_a_seed_and_differ_across_seeds(workload):
    assert make_jobs(workload, 7) == make_jobs(workload, 7)
    assert make_jobs(workload, 7) != make_jobs(workload, 8)


def test_generic_functionals_are_not_quasi_monomial():
    for job in make_jobs("generic-chains", 3):
        rows = [i for i, _, _ in job.lam]
        cols = [j for _, j, _ in job.lam]
        assert len(set(rows)) < len(rows) or len(set(cols)) < len(cols)


def test_self_times_on_a_nested_tree():
    # root [0, 10] holds a [1, 4] (which holds c [2, 3]) and b [5, 9]
    parents = [-1, 0, 1, 0]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    assert self_times(parents, starts, ends) == [3.0, 2.0, 1.0, 4.0]
    # overlapping children count once: [1, 4] and [3, 6] cover 5
    assert self_times([-1, 0, 0], [0.0, 1.0, 3.0],
                      [10.0, 4.0, 6.0])[0] == 5.0


def test_layer_metrics_split_self_time_by_layer_and_category():
    tracer = Tracer()
    cmd = tracer.name_id("cli.cmd_chain", "cli")
    chain = tracer.name_id("chain.chain_compute", "chain")
    rref = tracer.name_id("algebra.rref", "algebra.rref")
    for name, parent, start, end in ((cmd, -1, 0.0, 10.0),
                                     (chain, 0, 1.0, 9.0),
                                     (rref, 1, 2.0, 4.0),
                                     (rref, 1, 5.0, 6.0)):
        tracer.names.append(name)
        tracer.parents.append(parent)
        tracer.starts.append(start)
        tracer.ends.append(end)
    out = layer_metrics(tracer, 0, 4)
    assert out["cli.self_s"] == 2.0
    assert out["chain.self_s"] == 5.0
    assert out["algebra.self_s"] == out["algebra.rref.self_s"] == 3.0
    assert out["algebra.rref.calls"] == 2
    assert out["chain.calls"] == 1


def test_group_ring_norm_is_exact():
    one = {"m": 1, "coeffs": ["1"]}
    zero = {"m": 1, "coeffs": ["0"]}
    assert group_ring_norm([one] * 4) == 1
    assert group_ring_norm([{"m": 1, "coeffs": ["4"]}] + [zero] * 3) == 4
    # 1, zeta_3, zeta_3^2 = -1 - zeta_3
    values = [{"m": 3, "coeffs": ["1", "0"]}, {"m": 3, "coeffs": ["0", "1"]},
              {"m": 3, "coeffs": ["-1", "-1"]}]
    assert group_ring_norm(values) == Fraction(1)


def test_one_corrupted_byte_counts_as_failed(cli, validators):
    job = Job("verify", 2, r=2)
    code, text = run.run_job(cli, job)
    assert check_output(job, code, text, validators, sha256(text)) == []
    corrupt = text.replace('"pass":true', '"pass":trUe')
    assert corrupt != text and len(corrupt) == len(text)
    assert check_output(job, code, corrupt, validators, sha256(text))
    # a later pass whose bytes differ from the first fails on its own
    first = {"codes": [0], "digests": [sha256(text)]}
    later = {"codes": [0], "digests": [sha256(corrupt)]}
    failed, problems = run.gate([job], [text], [first, later])
    assert (failed, problems) == (1, {})


def test_cap_exceeded_counts_as_failed(cli, validators, monkeypatch):
    job = Job("table", 2, n=5, lam=((1, 5, 1),), which="theta")
    capped = SimpleNamespace(command="table", argv=job.argv + ["--cap", "10"])
    code, _ = run.run_job(cli, capped)
    assert code == 3
    assert check_output(capped, code, "", validators) == ["exit code 3"]

    def raises(argv):
        raise sys.modules["utchar.algebra"].CapExceeded("cap")
    monkeypatch.setattr(cli, "main", raises)
    code, text = run.run_job(cli, job)
    assert code.startswith("raised CapExceeded")
    failed, _ = run.gate([job], [text],
                         [{"codes": [code], "digests": [sha256(text)]}])
    assert failed == 1


def test_tracer_rebinds_every_copy_and_restores(cli):
    cmd_chain = cli.COMMANDS["chain"]
    chain_mod = sys.modules["utchar.chain"]
    left_kernel = chain_mod.left_kernel
    tracer = Tracer()
    tracer.install()
    try:
        job = Job("chain", 2, n=6, lam=((1, 3, 1), (1, 4, 1), (2, 4, 1)))
        code, _ = run.run_job(cli, job)
        assert code == 0
        spanned = {tracer.labels[k] for k in tracer.names}
        # left_kernel is called through the copy chain.py imported
        assert {"cli.cmd_chain", "chain.chain_compute",
                "algebra.left_kernel", "algebra.rref"} <= spanned
        assert tracer.counters()["algebra.matmul"] > 0
        assert cli.COMMANDS["chain"] is not cmd_chain
    finally:
        tracer.uninstall()
    assert cli.COMMANDS["chain"] is cmd_chain
    assert chain_mod.left_kernel is left_kernel


def test_every_wrapped_name_is_reached_by_some_workload():
    labels = {f"{mod}.{qual}"
              for _, mod, qual in SPANS + COUNTERS + YIELD_COUNTERS}
    never = {label for label in labels
             if all(any(fnmatch.fnmatchcase(label, pattern)
                        for pattern in patterns)
                    for patterns in run.NOT_REACHED.values())}
    # counted for completeness of their metrics; no CLI command calls them
    assert never == {"characters.ClassFunction.inner", "scalars.Field.div",
                     "scalars.CyclotomicNumber.__sub__",
                     "scalars.CyclotomicNumber.conjugate",
                     "scalars.CyclotomicNumber.galois"}
