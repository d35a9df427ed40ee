"""One ExecConfig, one engine dispatch: the execution-knob contract.

Every public entry point funnels its execution keywords into one
:class:`~repro.util.knobs.ExecConfig`, so an unknown knob is a
``TypeError`` and a bad value fails with the config's own error before
any kernel plan exists, a worker is leased or a supervisor attempt
starts — on every path alike.
"""

import ast
import json
import re
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.checkpoint import checkpointed_eta
from repro.core.moments import compute_eta
from repro.core.scaling import lanczos_scale
from repro.core.solver import KPMSolver
from repro.core.stochastic import ldos_moments, make_block_vector
from repro.dist.comm import SimWorld
from repro.dist.elastic import MembershipPlan, RebalancePolicy, elastic_eta
from repro.dist.kpm_parallel import distributed_eta
from repro.dist.mp import MpWorld, _Pool, mp_eta
from repro.dist.partition import RowPartition
from repro.dist.tune import TuneConfig, load_profiles, machine_signature
from repro.physics import build_topological_insulator
from repro.resil import Resilience, Supervisor
from repro.serve import KPMServer
from repro.serve.coalescer import Batch, execute_batch
from repro.sparse.backend import KernelBackend, backend_health
from repro.util.errors import BackendError, SimulationError
from repro.util.knobs import ExecConfig
from repro.util.precision import FP32

DATA = Path(__file__).parents[1] / "data"
M = 16


@pytest.fixture(scope="module")
def system():
    h, _ = build_topological_insulator(4, 4, 4)
    return h, lanczos_scale(h, seed=0), make_block_vector(h.n_rows, 2, seed=1)


def entry_points(system):
    """name -> call(**knobs) for every public entry point."""
    h, scale, blk = system
    part = RowPartition.equal(h.n_rows, 2, align=4)
    return {
        "KPMSolver": lambda **kw: KPMSolver(h, M, 2, scale=scale, **kw),
        "compute_eta": lambda **kw: compute_eta(h, scale, M, blk, **kw),
        "checkpointed_eta": lambda **kw: checkpointed_eta(h, scale, M, blk,
                                                          **kw),
        "ldos_moments": lambda **kw: ldos_moments(h, scale, M, blk,
                                                  np.arange(2), **kw),
        "distributed_eta": lambda **kw: distributed_eta(
            h, part, scale, M, blk, SimWorld(2), **kw),
        "mp_eta": lambda **kw: mp_eta(h, part, scale, M, blk, MpWorld(2),
                                      **kw),
        "elastic_eta": lambda **kw: elastic_eta(h, scale, M, blk,
                                                n_workers=2, **kw),
        "Supervisor.run_eta": lambda **kw: Supervisor().run_eta(
            h, scale, M, blk, **kw),
        "execute_batch": lambda **kw: execute_batch(Batch("g"), h, scale,
                                                    **kw),
        "KPMServer": lambda **kw: KPMServer(**kw),
    }


ENTRIES = ["KPMSolver", "compute_eta", "checkpointed_eta", "ldos_moments",
           "distributed_eta", "mp_eta", "elastic_eta", "Supervisor.run_eta",
           "execute_batch", "KPMServer"]
BAD_VALUES = [{"threads": 0}, {"threads": "two"}, {"simd": "of"},
              {"overlap": "maybe"}, {"reduction": "sometimes"},
              {"precision": "bf16"}, {"backend": "cuda"}, {"workers": 0},
              {"weights": (1.0, 2.0, 3.0)}]


@pytest.fixture
def no_kernel_runs(monkeypatch):
    """Fail the test if a kernel plan is built or mp workers are leased."""
    def refuse(*args, **kwargs):
        raise AssertionError("work started before the knobs were checked")

    monkeypatch.setattr(KernelBackend, "plan", refuse)
    monkeypatch.setattr(_Pool, "lease", refuse)


@pytest.mark.parametrize("entry", ENTRIES)
def test_unknown_knob_is_a_type_error(system, entry, no_kernel_runs):
    with pytest.raises(TypeError, match="simdd"):
        entry_points(system)[entry](simdd="on")


@pytest.mark.parametrize("bad", BAD_VALUES,
                         ids=lambda bad: "=".join(map(str, *bad.items())))
@pytest.mark.parametrize("entry", ENTRIES)
def test_bad_value_raises_exec_configs_error(system, entry, bad,
                                             no_kernel_runs):
    with pytest.raises(Exception) as want:
        ExecConfig(**bad)
    with pytest.raises(want.type, match=re.escape(str(want.value))):
        entry_points(system)[entry](**bad)


def test_no_layer_declares_a_loose_knob():
    """Outside the knob module and the kernel backends (whose plan API
    the benchmarks call), no function takes ``threads``/``simd``/
    ``overlap`` as a parameter: they travel inside an ExecConfig."""
    src = Path(repro.__file__).parent
    allowed = {"util/knobs.py"}
    offenders = []
    for path in sorted(src.rglob("*.py")):
        rel = path.relative_to(src).as_posix()
        if rel in allowed or rel.startswith("sparse/backend/"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs):
                    if arg.arg in ("threads", "simd", "overlap"):
                        offenders.append(f"{rel}:{node.lineno} {arg.arg}")
    assert not offenders, offenders


#: Run controls: they travel inside a RunContext, never as loose names.
RUN_CONTROLS = {"checkpoint_every", "checkpoint_path", "resume_from",
                "fault_plan", "attempt", "progress_every"}
#: Where a run control may be declared: the context itself, the
#: resilience config and its supervisor, a rank's injector, the public
#: entries — and the plan vocabulary and reports, whose ``attempt`` says
#: which attempt a fault fires on or ran, rather than carrying one.
RUN_CONTROL_SCOPES = {
    "RunContext", "Resilience", "Supervisor", "FaultInjector",
    "checkpointed_eta", "distributed_eta", "mp_eta", "elastic_eta",
    "FaultSpec", "FaultPlan", "AttemptRecord", "SegmentRecord",
}


def test_no_layer_declares_a_loose_run_control():
    """Below the public entries the run controls ride one RunContext:
    no other ``def`` or dataclass field declares them."""
    src = Path(repro.__file__).parent
    offenders = []

    def visit(node, scope, rel):
        for child in ast.iter_child_nodes(node):
            inside = scope | {getattr(child, "name", None)}
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                names = [arg.arg for arg in (*a.posonlyargs, *a.args,
                                             *a.kwonlyargs)]
            elif isinstance(child, ast.ClassDef):
                names = [st.target.id for st in child.body
                         if isinstance(st, ast.AnnAssign)
                         and isinstance(st.target, ast.Name)]
            else:
                continue
            if not inside & RUN_CONTROL_SCOPES:
                offenders.extend(f"{rel}:{child.lineno} {child.name}.{n}"
                                 for n in names if n in RUN_CONTROLS)
            visit(child, inside, rel)

    for path in sorted(src.rglob("*.py")):
        visit(ast.parse(path.read_text()), set(),
              path.relative_to(src).as_posix())
    assert not offenders, offenders


class TestExecConfig:
    def test_normalizes_once(self):
        cfg = ExecConfig(engine=None, precision=FP32, simd=None, threads="3",
                         workers=2, weights=[1, 3], membership="join:m=4")
        assert cfg.engine == "serial" and cfg.precision == "fp32"
        assert cfg.simd == "auto" and cfg.threads == 3
        assert cfg.weights == (1.0, 3.0)
        assert isinstance(cfg.membership, MembershipPlan)
        assert ExecConfig(rebalance="auto").rebalance == RebalancePolicy()
        assert ExecConfig(rebalance="off").rebalance is None

    def test_of_layers_knobs_over_config_or_entry_defaults(self):
        base = ExecConfig(engine="sim", overlap="on")
        assert ExecConfig.of(None, {}, overlap=False).overlap is False
        assert ExecConfig.of(base, {}, overlap=False) is base
        assert ExecConfig.of(base, {"threads": 2}).threads == 2

    def test_auto_threads_split_the_host_across_ranks(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 8)
        cfg = ExecConfig(threads="auto", overlap="auto")
        assert cfg.kernel_threads() == 8 and cfg.kernel_threads(3) == 2
        ranked = cfg.for_ranks(4)
        assert (ranked.threads, ranked.overlap) == (2, True)
        assert cfg.for_ranks(1).overlap is False
        assert ExecConfig().kernel_threads(4) is None


def test_supervisor_typo_fails_before_any_attempt(system):
    """A typo'd knob neither burns attempts nor quarantines native."""
    h, scale, blk = system
    sup = Supervisor()
    with pytest.raises(BackendError, match="simd"):
        sup.run_eta(h, scale, M, blk, engine="sim", backend="native",
                    simd="of")
    assert sup.report.faults == 0 and not sup.report.attempts
    assert not backend_health().get("native", {}).get("quarantined")


@pytest.mark.parametrize("bad, error", [
    ({"simd": "of"}, BackendError), ({"threads": 0}, ValueError),
    ({"overlap": "maybe"}, ValueError),
])
def test_server_rejects_bad_knobs_at_construction(bad, error):
    with pytest.raises(error):
        KPMServer(**bad)


@pytest.mark.parametrize("world", [SimWorld, MpWorld])
def test_zero_threads_rejected_on_both_worlds(system, world):
    h, scale, blk = system
    part = RowPartition.equal(h.n_rows, 2, align=4)
    with pytest.raises(ValueError, match="threads"):
        distributed_eta(h, part, scale, M, blk, world(2), threads=0)


@pytest.mark.parametrize("world", [SimWorld, MpWorld])
def test_one_prologue_one_exception_per_bad_input(system, world):
    """Both worlds share the prologue: a bad argument is the same
    ValueError, a partition that does not fit the world or the eta grid
    the same SimulationError."""
    h, scale, blk = system
    part = RowPartition.equal(h.n_rows, 2, align=4)
    run = lambda **kw: distributed_eta(h, part, scale, M, blk, world(2),  # noqa: E731
                                       **kw)
    with pytest.raises(ValueError, match=re.escape(
            f"stop_m must be in [1, {M // 2}], got 0")):
        run(stop_m=0)
    with pytest.raises(ValueError,
                       match="eta_grid must be non-negative, got -3"):
        run(eta_grid=-3)
    with pytest.raises(ValueError, match="eta_grid requires reduction"):
        run(eta_grid=32, reduction="every")
    with pytest.raises(SimulationError, match="not aligned to the eta grid"):
        run(eta_grid=5000)
    with pytest.raises(SimulationError, match="world has 3 ranks"):
        distributed_eta(h, part, scale, M, blk, world(3))


def test_server_rebalance_needs_a_distributed_engine_or_resilience():
    """One rule on every path: a serial server no longer drops
    ``rebalance`` silently (it used to, while the same server under
    resilience ran the grid reduction — different fp64 bits)."""
    with pytest.raises(ValueError, match="rebalance"):
        KPMServer(rebalance="auto")
    KPMServer(rebalance="auto", resilience=Resilience())
    KPMServer(rebalance="auto", engine="sim")


class TestTunedProfiles:
    """A profile store written before TuneConfig held an ExecConfig."""

    def test_loads_into_tune_config(self):
        entries = load_profiles(DATA / "tuned_profile.json")
        assert len(entries) == 2
        for entry in entries.values():
            cfg = TuneConfig.from_dict(entry["config"])
            assert cfg.to_dict() == entry["config"]
        distributed = TuneConfig.from_dict(
            next(iter(entries.values()))["config"])
        assert distributed.execution.engine == "sim"
        assert distributed.exec.weights == (0.4, 0.6)

    def test_cli_prints_what_it_printed(self, tmp_path, capsys):
        from repro.cli import main

        doc = json.loads((DATA / "tuned_profile.json").read_text())
        doc["profiles"] = {
            f"{machine_signature()}|{key.split('|', 1)[1]}": entry
            for key, entry in doc["profiles"].items()
        }
        profile = tmp_path / "tuned.json"
        profile.write_text(json.dumps(doc))
        for nx, nz in ((6, 4), (4, 2)):
            assert main(["dos", "--nx", str(nx), "--nz", str(nz),
                         "--moments", "32", "--vectors", "2", "--points", "8",
                         "--engine", "auto", "--profile", str(profile)]) == 0
        lines, table = [], False
        for line in capsys.readouterr().out.splitlines(keepends=True):
            if line.startswith("matrix:"):
                table = False
            if line.startswith(("tuned profile:", "DOS integral")) or table:
                lines.append(line)
            elif line.split()[:2] == ["E", "rho(E)"]:
                table = True
                lines.append(line)
        assert "".join(lines) == (DATA / "tuned_dos.txt").read_text()
