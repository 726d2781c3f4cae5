"""CLI entrypoint: ``python -m repro.serve {demo,chaos}``.

``demo`` stands up a local service, submits a handful of jobs
(including a duplicate and a cache-warm resubmission), and
prints each job's lifecycle plus the service health snapshot.

``chaos`` runs the deterministic chaos harness
(:func:`repro.serve.chaos.run_chaos`) and exits non-zero if the service
broke its bit-identity contract under injected faults -- CI's smoke
gate for the whole fault-tolerance story.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.serve.chaos import ChaosFailure, run_chaos
from repro.serve.config import JobConfig
from repro.serve.service import SimulationService


def _cmd_demo(args) -> int:
    adapt = JobConfig(
        scenario="adapt", n_nodes=300, n_procs=4, steps=6,
        checkpoint_every=2, seed=args.seed,
    )
    rebalance = JobConfig(
        scenario="rebalance", n_nodes=300, n_procs=4, steps=6,
        adapt_every=2, seed=args.seed,
    )
    # two distinct jobs never fill the default queue: no QueueSaturated here
    with SimulationService(workers=args.workers, seed=args.seed) as svc:
        jobs = [svc.submit(adapt), svc.submit(rebalance)]
        # a duplicate submission coalesces onto the in-flight job
        dup = svc.submit(adapt)
        for job in jobs:
            result = job.wait(timeout=600)
            st = job.status()
            print(
                f"{job.id} {job.config.scenario:9s} -> {st['state']} "
                f"attempts={st['attempts']} "
                f"simulated_total={result['simulated_total']:.6f}"
            )
            print(f"  events: {[e['event'] for e in st['events']]}")
        print(f"duplicate coalesced onto {dup.id}: {dup is jobs[0]}")
        # resubmitting a finished config is a cache hit, not a simulation
        warm = svc.submit(adapt)
        print(f"warm resubmission done immediately: {warm.done}")
        print("health:", json.dumps(svc.health()["counts"], indent=2))
    return 0


def _cmd_chaos(args) -> int:
    print(f"chaos harness: seed={args.seed} workers={args.workers}")
    try:
        report = run_chaos(seed=args.seed, workers=args.workers, verbose=True)
    except ChaosFailure as exc:
        print(f"CHAOS FAILURE: {exc}", file=sys.stderr)
        return 1
    counts = report["health"]["counts"]
    print(
        f"chaos OK: {report['jobs']} jobs bit-identical under faults "
        f"(worker restarts: {counts['worker_restarts']}, "
        f"coalesced: {counts['coalesced']}, "
        f"cache corruption healed: {report['health']['cache']['corrupt']})"
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="fault-tolerant simulation service",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=2)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("demo", help="run a few jobs and print their lifecycle")
    sub.add_parser("chaos", help="run the deterministic chaos harness")
    args = parser.parse_args(argv)
    return {"demo": _cmd_demo, "chaos": _cmd_chaos}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
