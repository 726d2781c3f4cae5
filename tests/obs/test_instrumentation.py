"""End-to-end instrumentation contracts on real program runs.

The load-bearing one is the bit-identity oracle: turning tracing on
must not move a single simulated number -- not the clock, not one
element of any per-processor counter array.
"""

import numpy as np
import pytest

from repro.machine import Machine
from repro.obs import NULL_TRACER, MetricsSnapshot, load_trace
from repro.workloads import generate_mesh
from repro.workloads.euler import euler_edge_loop, setup_euler_program

N_PROCS = 4


def build(obs=None, n_nodes=300, incremental=True):
    mesh = generate_mesh(n_nodes, seed=4)
    machine = Machine(N_PROCS)
    prog = setup_euler_program(
        machine, mesh, seed=11, incremental=incremental, obs=obs
    )
    prog.construct("G", mesh.n_nodes, geometry=["xc", "yc", "zc"])
    prog.set_distribution("fmt", "G", "RCB")
    prog.redistribute("reg", "fmt")
    return mesh, prog, euler_edge_loop(mesh)


def mutate(prog, mesh, n_changed):
    pick = np.arange(n_changed, dtype=np.int64)
    old = np.asarray(prog.arrays["end_pt2"].global_view(), dtype=np.int64)[pick]
    prog.set_array_elements("end_pt2", pick, (old + 1) % mesh.n_nodes)


def drive(prog, mesh, loop):
    """A run exercising reuse, an adapt patch, and a fallback."""
    prog.forall(loop, n_times=2)
    mutate(prog, mesh, 4)  # small delta: incremental patch
    prog.forall(loop, n_times=1)
    mutate(prog, mesh, mesh.n_edges)  # everything: over-threshold fallback
    prog.forall(loop, n_times=1)


class TestBitIdentity:
    def test_obs_on_never_changes_simulated_numbers(self):
        machines = {}
        for mode in ("off", "on"):
            mesh, prog, loop = build(obs=mode)
            drive(prog, mesh, loop)
            machines[mode] = prog.machine
        off, on = machines["off"], machines["on"]
        assert on.elapsed() == off.elapsed()  # exact, not approx
        from repro.machine.stats import COUNTER_FIELDS

        for field in COUNTER_FIELDS:
            a = np.asarray(getattr(off.counters, field))
            b = np.asarray(getattr(on.counters, field))
            assert np.array_equal(a, b), field  # every element, bit-exact
        ph_off = {r.name for r in off.stats.phases}
        assert ph_off == {r.name for r in on.stats.phases}
        for name in ph_off:
            assert off.phase_time(name) == on.phase_time(name), name
        # and the obs=on run actually traced something
        assert on.obs.enabled and len(on.obs.spans) > 0
        assert off.obs is NULL_TRACER

    def test_obs_param_validation(self):
        mesh = generate_mesh(100, seed=0)
        with pytest.raises(ValueError, match="obs mode"):
            setup_euler_program(Machine(2), mesh, obs="loud")

    def test_env_var_enables(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBS", "on")
        mesh = generate_mesh(100, seed=0)
        prog = setup_euler_program(Machine(2), mesh)
        assert prog.machine.obs.enabled


class TestAdaptSpans:
    def test_patch_attempt_nesting_and_attrs(self):
        mesh, prog, loop = build(obs="on")
        prog.forall(loop, n_times=1)
        # a schedule build reports its size: slots in, pairs out
        builds = [s for s in prog.machine.obs.spans if s.name == "localize.schedule.build"]
        sched = prog.records[loop.name].product.patterns["x", "end_pt1"].localized.schedule
        assert builds and all(set(s.attrs) >= {"n_slots", "n_pairs"} for s in builds)
        assert (sched.ghost_total(), sched._pair_q.size) in {
            (s.attrs["n_slots"], s.attrs["n_pairs"]) for s in builds
        }
        prog.machine.obs.clear()
        mutate(prog, mesh, 4)
        prog.forall(loop, n_times=1)
        spans = prog.machine.obs.spans
        by_name = {}
        for s in spans:
            by_name.setdefault(s.name, []).append(s)
        for required in ("adapt.diff", "adapt.patch", "adapt.verify", "inspect"):
            assert required in by_name, sorted(by_name)
        (diff,) = by_name["adapt.diff"]
        (patch,) = by_name["adapt.patch"]
        (inspect,) = by_name["inspect"]
        # diff attrs carry the routing decision inputs
        assert diff.attrs["n_changed"] > 0
        assert diff.attrs["n_tracked"] == 2 * mesh.n_edges
        assert patch.attrs["n_changed"] == diff.attrs["n_changed"]
        # the whole attempt nests under the inspect root
        assert inspect.parent is None
        for s in (diff, patch):
            assert _ancestors(s, spans) & {inspect.id}
        # the patch is not one number: every stage of every group (and
        # the re-vote) is a child of that single adapt.patch span
        stages = [
            s for s in spans
            if s.name.startswith("adapt.patch.")
            and s.name not in ("adapt.patch.order", "adapt.patch.strip")
        ]
        assert all(s.parent == patch.id for s in stages)
        # the order task is a root on a pool worker's lane (with no pool,
        # a child of the patch); its gather strips nest under it
        (order,) = by_name["adapt.patch.order"]
        assert order.parent in (None, patch.id)
        assert by_name["adapt.patch.strip"]
        assert all(s.parent == order.id for s in by_name["adapt.patch.strip"])
        (revote,) = [s for s in stages if s.name == "adapt.patch.revote"]
        assert revote.attrs["iterations"] == 4  # the union over both edge arrays
        per_group = {}
        for s in stages:
            if s is not revote:
                per_group.setdefault(s.attrs["group"], []).append(s)
        assert len(per_group) == patch.attrs["groups"] == 2
        for group_spans in per_group.values():
            assert [s.name.removeprefix("adapt.patch.") for s in group_spans] == [
                "delta", "slots", "translate", "allocate", "index", "schedule", "refs"
            ]
            assert len({s.attrs["shared"] for s in group_spans}) == 1
        assert sorted(g[0].attrs["shared"] for g in per_group.values()) == [False, True]
        sched = prog.records[loop.name].product.patterns["x", "end_pt1"].localized.schedule
        for s in stages:
            if s.name == "adapt.patch.schedule":
                assert (s.attrs["n_slots"], s.attrs["n_pairs"]) == (
                    sched.ghost_total(), sched._pair_q.size
                )

    def test_report_books_patch_stages_to_the_adapt_layer(self, tmp_path, capsys):
        from repro.obs.__main__ import main
        from repro.obs.report import layer_of

        mesh, prog, loop = build(obs="on")
        prog.forall(loop, n_times=1)
        mutate(prog, mesh, 4)
        prog.forall(loop, n_times=1)
        names = {s.name for s in prog.machine.obs.spans if s.name.startswith("adapt.patch")}
        # adapt.patch, .revote, the seven stages, the order task and the refs strips
        assert len(names) == 11
        assert {layer_of(name) for name in names} == {"adapt"}
        path = prog.export_obs(str(tmp_path / "t.trace.json"), fmt="chrome")
        assert main(["report", path, "--top", "40"]) == 0
        out = capsys.readouterr().out
        assert all(name in out for name in names)
        n_adapt = sum(1 for s in prog.machine.obs.spans if s.name.startswith("adapt."))
        layer_table = " ".join(out.split("per-layer self time:")[1].split())
        assert f"adapt {n_adapt} " in layer_table

    def test_fallback_records_state_rebuild_span(self):
        mesh, prog, loop = build(obs="on")
        prog.forall(loop, n_times=1)
        product = prog.records[loop.name].product
        prog.machine.obs.clear()
        mutate(prog, mesh, mesh.n_edges)
        prog.forall(loop, n_times=1)
        names = [s.name for s in prog.machine.obs.spans]
        (built,) = [s for s in prog.machine.obs.spans if s.name == "adapt.state.build_adapt_state"]
        # element counts of the build: the slots of each distinct layout
        # (sibling groups share one) and every reference tallied
        layouts = {id(g.counts): g.counts.size for g in product.adapt_state.groups.values()}
        assert built.attrs["n_slots"] == sum(layouts.values()) > 0
        assert built.attrs["n_refs"] == 2 * loop.n_iterations  # end_pt1, end_pt2
        assert "inspector.run" in names  # fell back to a full inspection
        # the structured fallback event rode the bus, and the legacy
        # view over it still reads like the old list
        (rec,) = prog.adapt.fallback_log
        assert rec["reason"] == "over_threshold"
        (bus_rec,) = prog.events.category("adapt.fallback")
        assert bus_rec.name == "over_threshold"
        assert bus_rec.payload is rec


class TestMachineExchangeSpan:
    """One ``machine.exchange`` span per charged exchange, recorded at
    the ``charge_exchange`` choke point and booked to the machine layer."""

    def test_span_attrs_account_for_every_message(self):
        mesh, prog, loop = build(obs="on")
        prog.forall(loop, n_times=1, reuse=False)
        spans = [s for s in prog.machine.obs.spans if s.name == "machine.exchange"]
        assert spans
        counters = prog.machine.counters
        assert sum(s.attrs["n_messages"] for s in spans) == int(counters.messages_sent.sum())
        assert sum(s.attrs["nbytes"] for s in spans) == int(counters.bytes_sent.sum())
        # the cold inspection's exchanges are one-shots; the executor's
        # gather / scatter charges come from the schedules
        assert {s.attrs["planned"] for s in spans} == {False, True}

    def test_warm_reinspection_charges_only_planned_exchanges(self):
        mesh, prog, loop = build(obs="on")
        prog.forall(loop, n_times=1, reuse=False)
        prog.machine.obs.clear()
        prog.forall(loop, n_times=1, reuse=False)
        by_parent = {s.id: s for s in prog.machine.obs.spans}
        spans = [s for s in prog.machine.obs.spans if s.name == "machine.exchange"]
        # translation tables are rebuilt by every inspection (one-shot);
        # everything the cache served replays planned charges
        replayed = [s for s in spans if by_parent[s.parent].name == "localize.replay"]
        assert replayed and all(s.attrs["planned"] for s in replayed)

    def test_report_books_the_span_to_the_machine_layer(self, tmp_path):
        from repro.obs import summarize
        from repro.obs.report import layer_of, render

        assert layer_of("machine.exchange") == "machine"
        assert layer_of("localize.replay") == "chaos"
        assert layer_of("executor.strip") == layer_of("inspect") == "core"
        assert layer_of("something.else") == "other"
        mesh, prog, loop = build(obs="on")
        prog.forall(loop, n_times=2)
        path = prog.export_obs(str(tmp_path / "t.trace.json"), fmt="chrome")
        summary = summarize(load_trace(path))
        n = sum(1 for s in prog.machine.obs.spans if s.name == "machine.exchange")
        assert summary["layers"]["machine"]["count"] == n > 0
        assert sum(l["self_s"] for l in summary["layers"].values()) == pytest.approx(
            summary["root_total_s"]
        )
        text = render(summary)
        assert "per-layer self time" in text and "machine" in text


class TestPartitionerSpan:
    """One ``partitioners.partition`` span per mapper call, booked to the
    partitioners layer."""

    def test_report_has_a_partitioners_layer_row(self, tmp_path, capsys):
        from repro.obs.__main__ import main
        from repro.obs.report import layer_of

        mesh, prog, loop = build(obs="on")
        prog.forall(loop, n_times=1)
        (span,) = [s for s in prog.machine.obs.spans if s.name == "partitioners.partition"]
        assert span.attrs == {
            "partitioner": "RCB",
            "n_parts": N_PROCS,
            "n_vertices": mesh.n_nodes,
            "levels": 2,
        }
        assert layer_of(span.name) == "partitioners"
        path = prog.export_obs(str(tmp_path / "t.trace.json"), fmt="chrome")
        assert main(["report", path]) == 0
        layer_table = " ".join(capsys.readouterr().out.split("per-layer self time:")[1].split())
        assert "partitioners 1 " in layer_table


class TestRedistributeSpans:
    """A redistribution leaves one ``redistribute`` span holding its
    remap (``remap.arrays``) and, for a move list, the layout derivation
    (``distribution.repartition``); none is booked under "other"."""

    def test_full_and_incremental_redistribute(self):
        from repro.obs.report import layer_of

        mesh, prog, loop = build(obs="on")
        (full,) = [s for s in prog.machine.obs.spans if s.name == "redistribute"]
        prog.machine.obs.clear()
        dist = prog.arrays["x"].distribution
        move_g = np.arange(0, mesh.n_nodes, 7, dtype=np.int64)
        move_to = (np.asarray(dist.owner(move_g)) + 1) % N_PROCS
        prog.redistribute("reg", moved=(move_g, move_to))
        spans = prog.machine.obs.spans
        (inc,) = [s for s in spans if s.name == "redistribute"]
        (repart,) = [s for s in spans if s.name == "distribution.repartition"]
        (remap,) = [s for s in spans if s.name == "remap.arrays"]
        assert full.attrs == inc.attrs == {"decomp": "reg"}
        assert repart.parent == remap.parent == inc.id
        assert repart.attrs == {"n_moves": move_g.size}
        assert remap.attrs["incremental"] and remap.attrs["n_arrays"] > 0
        assert layer_of("redistribute") == "core"
        assert layer_of("distribution.repartition") == "distribution"
        assert layer_of("remap.arrays") == "chaos"


def _ancestors(span, spans):
    by_id = {s.id: s for s in spans}
    out, cur = set(), span.parent
    while cur is not None and cur in by_id:
        out.add(cur)
        cur = by_id[cur].parent
    return out


class TestSnapshotAndExport:
    def test_metrics_snapshot_unifies_host_and_simulated(self):
        mesh, prog, loop = build(obs="on")
        drive(prog, mesh, loop)
        snap = prog.obs_snapshot()
        assert isinstance(snap, MetricsSnapshot)
        d = snap.to_dict()
        assert d["simulated_total"] == prog.machine.elapsed()
        assert d["simulated_counters"]["messages"] > 0
        assert "inspect" in d["host_spans"] and "execute" in d["host_spans"]
        assert d["host_spans"]["inspect"]["count"] >= 3
        assert sum(e["self_s"] for e in d["host_spans"].values()) > 0
        assert d["event_counts"].get("adapt.fallback") == 1
        assert d["cache"] is None or "hits" in d["cache"]

    def test_program_export_round_trip(self, tmp_path):
        mesh, prog, loop = build(obs="on")
        drive(prog, mesh, loop)
        path = prog.export_obs(str(tmp_path / "run.jsonl"))
        trace = load_trace(path)
        assert trace["meta"]["n_procs"] == N_PROCS
        assert trace["meta"]["obs"] == "on"
        names = {s["name"] for s in trace["spans"]}
        assert {"inspect", "execute", "adapt.patch"} <= names
        # bus events (the fallback) are interleaved into the artifact
        assert any(
            e.get("category") == "adapt.fallback" for e in trace["events"]
        )


class TestCacheStats:
    def test_invalidation_counting(self):
        from repro.chaos.transcache import TranslationCache

        cache = TranslationCache()
        slot = ("localize", "L2", ("edge",), "paged", "c", 4)
        assert cache.get(slot, ("v1",)) is None  # miss
        cache.put(slot, ("v1",), "entry1")
        assert cache.get(slot, ("v1",)) == "entry1"  # hit
        cache.put(slot, ("v2",), "entry2")  # replace = invalidation
        cache.put(slot, ("v2",), "entry2b")  # same version: not counted
        stats = cache.stats()
        assert stats == {
            "hits": 1,
            "misses": 1,
            "invalidations": 1,
            "entries": 1,
            "by_kind": {
                "localize": {
                    "hits": 1,
                    "misses": 1,
                    "invalidations": 1,
                    "entries": 1,
                }
            },
        }

    def test_real_run_reports_kind_breakdown(self):
        mesh, prog, loop = build(obs="on")
        drive(prog, mesh, loop)
        stats = prog.translation_cache.stats()
        assert stats["hits"] > 0
        assert set(stats["by_kind"]) <= {"localize", "partition", "derived"}
        # slot kinds add up to the top-level probe counts; derived-holder
        # requests are not slot probes and are reported on their own
        derived = stats["by_kind"].pop("derived")
        total = sum(k["hits"] for k in stats["by_kind"].values())
        assert total == stats["hits"]
        assert derived["builds"] > 0 and derived["hits"] > 0


class TestCheckpointSpans:
    """A save records ``guard.checkpoint.write`` and a resume
    ``guard.checkpoint.read``, each with the file's bytes and section
    count, booked to the guard layer; with tracing off neither exists."""

    def save_and_resume(self, tmp_path, obs):
        from repro import AdaptiveExecutor

        mesh, prog, loop = build(obs=obs)
        exe = AdaptiveExecutor(prog, loop)
        exe.step()
        path = tmp_path / "c.ckpt"
        exe.checkpoint(path)
        _, fresh, _ = build(obs=obs)
        AdaptiveExecutor.resume(path, fresh, loop)
        return path, prog, fresh

    def test_on_records_both_with_bytes_and_sections(self, tmp_path):
        from repro.guard.checkpoint import load_checkpoint, payload_sections
        from repro.obs.report import layer_of

        path, prog, fresh = self.save_and_resume(tmp_path, "on")
        (write,) = [s for s in prog.machine.obs.spans if s.name == "guard.checkpoint.write"]
        (read,) = [s for s in fresh.machine.obs.spans if s.name == "guard.checkpoint.read"]
        n_sections = payload_sections(load_checkpoint(path))
        assert n_sections > 0
        for span in (write, read):
            assert span.attrs == {"bytes": path.stat().st_size, "sections": n_sections}
            assert layer_of(span.name) == "guard"

    def test_off_records_none(self, tmp_path):
        _, prog, fresh = self.save_and_resume(tmp_path, "off")
        assert prog.machine.obs is NULL_TRACER and fresh.machine.obs is NULL_TRACER
