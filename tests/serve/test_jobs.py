"""Worker-side job execution: resume bit-identity, in process.

These run :func:`repro.serve.jobs.run_job` inline (no subprocesses) so
the checkpoint/resume logic is pinned independently of the supervisor
machinery.
"""

import os

import pytest

from repro.guard import checkpoint
from repro.serve import JobConfig
from repro.serve.jobs import bit_identity, run_job
from tests.guard.test_checkpoint import write_pickle_envelope


def adapt_cfg(steps, **kw):
    return JobConfig(
        scenario="adapt", n_nodes=300, n_procs=4, steps=steps,
        checkpoint_every=2, seed=3, **kw,
    )


def rebalance_cfg(steps, **kw):
    kw.setdefault("checkpoint_every", 2)
    return JobConfig(
        scenario="rebalance", n_nodes=300, n_procs=4, steps=steps,
        adapt_every=2, seed=5, **kw,
    )


def interrupted(full_cfg, stop_after, tmp_path, damage_primary=False):
    """Run the first ``stop_after`` steps, leave a checkpoint, 'crash'."""
    ck = str(tmp_path / "job.ckpt")
    from dataclasses import replace

    partial = replace(full_cfg, steps=stop_after, checkpoint_every=stop_after)
    run_job(partial, checkpoint_path=ck)
    if damage_primary:
        damage(ck)
    return ck


def damage(path):
    with open(path, "r+b") as f:
        f.seek(os.path.getsize(path) // 2)
        f.write(b"\xff\xff")


@pytest.mark.parametrize("make_cfg", [adapt_cfg, rebalance_cfg], ids=["adapt", "rebalance"])
def test_resume_is_bit_identical(make_cfg, tmp_path):
    cfg = make_cfg(6)
    ref = run_job(cfg)
    ck = interrupted(cfg, 4, tmp_path)
    resumed = run_job(cfg, checkpoint_path=ck, attempt=2)
    assert resumed["resumed"]
    assert resumed["start_step"] == 4
    assert resumed["resume_source"] == "primary"
    assert bit_identity(resumed) == bit_identity(ref)


def test_resume_falls_back_to_prev_generation(tmp_path):
    cfg = adapt_cfg(6)
    ref = run_job(cfg)
    # two checkpoint generations: primary at step 4, .prev at step 2
    ck = str(tmp_path / "job.ckpt")
    from dataclasses import replace

    run_job(replace(cfg, steps=2), checkpoint_path=ck)
    run_job(replace(cfg, steps=4), checkpoint_path=ck)
    damage(ck)
    resumed = run_job(cfg, checkpoint_path=ck, attempt=2)
    assert resumed["resume_source"] == "prev"
    assert resumed["start_step"] == 2  # lost one interval, not the campaign
    assert bit_identity(resumed) == bit_identity(ref)


def test_both_generations_damaged_restarts_from_scratch(tmp_path):
    cfg = adapt_cfg(6)
    ref = run_job(cfg)
    # two generations, primary at step 4 and .prev at step 2, both damaged
    ck = str(tmp_path / "job.ckpt")
    from dataclasses import replace

    run_job(replace(cfg, steps=4), checkpoint_path=ck)
    for path in (ck, checkpoint.previous_checkpoint_path(ck)):
        damage(path)
    restarted = run_job(cfg, checkpoint_path=ck, attempt=2)
    assert not restarted["resumed"]
    assert restarted["start_step"] == 0
    assert bit_identity(restarted) == bit_identity(ref)


def test_pickle_envelope_checkpoint_restarts_from_scratch(tmp_path):
    cfg = rebalance_cfg(6)
    ref = run_job(cfg)
    ck = interrupted(cfg, 4, tmp_path)
    write_pickle_envelope(ck)
    restarted = run_job(cfg, checkpoint_path=ck, attempt=2)
    assert not restarted["resumed"]
    assert restarted["start_step"] == 0
    assert bit_identity(restarted) == bit_identity(ref)


def test_resume_reads_the_checkpoint_once(tmp_path, monkeypatch):
    cfg = rebalance_cfg(6)
    ck = interrupted(cfg, 4, tmp_path)
    reads = []
    load = checkpoint.load_checkpoint
    monkeypatch.setattr(checkpoint, "load_checkpoint", lambda p: reads.append(p) or load(p))
    resumed = run_job(cfg, checkpoint_path=ck, attempt=2)
    assert resumed["start_step"] == 4
    assert reads == [ck]


def test_faults_recover_bit_identically(tmp_path):
    clean = run_job(adapt_cfg(6))
    faulted = run_job(
        adapt_cfg(6, faults=(("corrupt_gather", 1), ("corrupt_remap", 0)))
    )
    assert faulted["n_faults_fired"] == 2
    assert faulted["n_guard_events"] >= 1
    assert bit_identity(faulted) == bit_identity(clean)


def test_faults_plus_crash_resume_still_bit_identical(tmp_path):
    """The full gauntlet in one attempt chain: wire faults fire, the
    job is interrupted, and the resumed attempt (with the fault plan
    rebuilt fresh) still lands on the fault-free bits."""
    cfg = rebalance_cfg(
        6, faults=(("corrupt_remap", 5), ("duplicate_remap", 11))
    )
    clean = run_job(rebalance_cfg(6))
    ref = run_job(cfg)
    assert bit_identity(ref) == bit_identity(clean)
    ck = interrupted(cfg, 4, tmp_path)
    resumed = run_job(cfg, checkpoint_path=ck, attempt=2)
    assert resumed["resumed"]
    assert bit_identity(resumed) == bit_identity(clean)


def test_unknown_fault_kind_rejected():
    with pytest.raises(ValueError, match="fault kind"):
        run_job(adapt_cfg(2, faults=(("stall", 0),)))
