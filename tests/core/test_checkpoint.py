"""Checkpoint/restart of the stage-2 moment computation."""

import os
import shutil
import struct
import subprocess
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest

from repro.core.checkpoint import KpmCheckpoint, checkpointed_eta
from repro.core.moments import compute_eta
from repro.core.scaling import SpectralScale, lanczos_scale
from repro.core.stochastic import make_block_vector
from repro.sparse.fused import fold
from repro.util.errors import CheckpointError, FormatError
from tests.lattice import case_test


@pytest.fixture(scope="module")
def system():
    from repro.physics import build_topological_insulator

    h, _ = build_topological_insulator(5, 5, 3)
    scale = lanczos_scale(h, seed=0)
    blk = make_block_vector(h.n_rows, 3, seed=1)
    ref = compute_eta(h, scale, 32, blk, "aug_spmmv")
    return h, scale, blk, ref


class TestEquivalence:
    @case_test
    def test_no_checkpointing_matches_engine(self): ...
    @case_test
    def test_resume_is_bit_exact(self): ...

    def test_ckpt_suffix_round_trip(self, system, tmp_path):
        """Regression: save('state.ckpt') must be loadable by the same name.

        ``np.savez`` silently appends ``.npz`` to any other suffix;
        save/load used to normalize differently, so a non-.npz
        checkpoint path saved fine but could never be loaded back.
        """
        h, scale, blk, _ = system
        p = tmp_path / "state.ckpt"
        full = checkpointed_eta(
            h, scale, 16, blk, checkpoint_every=3, checkpoint_path=p
        )
        ck = KpmCheckpoint.load(p)  # the path the user passed
        assert ck.n_moments == 16
        on_disk = ck.save(p)
        assert on_disk.suffix == ".npz"
        resumed = checkpointed_eta(h, scale, 16, blk, resume_from=p)
        assert np.array_equal(resumed[:, : 2 * ck.next_m],
                              full[:, : 2 * ck.next_m])

    def test_roundtrip_object(self, system, tmp_path):
        h, scale, blk, _ = system
        p = tmp_path / "s.npz"
        checkpointed_eta(
            h, scale, 16, blk, checkpoint_every=3, checkpoint_path=p
        )
        ck = KpmCheckpoint.load(p)
        assert ck.n_moments == 16
        assert ck.v.shape == blk.shape
        ck.save(tmp_path / "s2.npz")
        ck2 = KpmCheckpoint.load(tmp_path / "s2.npz")
        assert np.array_equal(ck.v, ck2.v)
        assert ck.next_m == ck2.next_m


class TestResumeMidRun:
    """Interrupt in the middle of the loop; resume must be bit-exact."""
    @case_test
    def test_resume_bitwise_per_backend(self): ...
    @case_test
    def test_matches_engine_per_backend(self): ...
    @case_test
    def test_cross_backend_resume(self): ...
    @case_test
    def test_matches_distributed_engines(self): ...


class TestValidation:
    def test_moment_count_mismatch(self, system, tmp_path):
        h, scale, blk, _ = system
        p = tmp_path / "s.npz"
        checkpointed_eta(
            h, scale, 16, blk, checkpoint_every=2, checkpoint_path=p
        )
        with pytest.raises(FormatError, match="M="):
            checkpointed_eta(h, scale, 32, blk, resume_from=p)

    def test_scale_mismatch(self, system, tmp_path):
        from repro.core.scaling import SpectralScale

        h, scale, blk, _ = system
        p = tmp_path / "s.npz"
        checkpointed_eta(
            h, scale, 16, blk, checkpoint_every=2, checkpoint_path=p
        )
        other = SpectralScale.from_bounds(-100, 100)
        with pytest.raises(FormatError, match="spectral map"):
            checkpointed_eta(h, other, 16, blk, resume_from=p)

    def test_checkpoint_needs_path(self, system):
        h, scale, blk, _ = system
        with pytest.raises(ValueError):
            checkpointed_eta(h, scale, 16, blk, checkpoint_every=2)

    def test_odd_moments_rejected(self, system):
        h, scale, blk, _ = system
        with pytest.raises(ValueError):
            checkpointed_eta(h, scale, 15, blk)

    def test_version_guard(self, system, tmp_path):
        h, scale, blk, _ = system
        p = tmp_path / "s.npz"
        checkpointed_eta(
            h, scale, 16, blk, checkpoint_every=2, checkpoint_path=p
        )
        # corrupt the version field
        with np.load(p) as data:
            bad = {k: data[k] for k in data.files}
        bad["version"] = np.array(99)
        np.savez_compressed(p, **bad)
        with pytest.raises(FormatError, match="version"):
            KpmCheckpoint.load(p)

    def test_format_1_file_refused(self, system, tmp_path):
        """A format-1 file — its eta reduced in another order, without
        anchors — is a CheckpointError, never spliced."""
        h, scale, blk, _ = system
        p = tmp_path / "s.npz"
        checkpointed_eta(h, scale, 16, blk, checkpoint_every=2,
                         checkpoint_path=p)
        _as_format_1(p)
        with pytest.raises(CheckpointError, match="format 1"):
            KpmCheckpoint.load(p)
        with pytest.raises(CheckpointError, match="format 1"):
            checkpointed_eta(h, scale, 16, blk, resume_from=p)

    def test_supervisor_discards_a_format_1_file(self, system, tmp_path):
        from repro.resil import Supervisor

        h, scale, blk, ref = system
        p = tmp_path / "s.npz"
        checkpointed_eta(h, scale, 32, blk, checkpoint_every=4,
                         checkpoint_path=p)
        _as_format_1(p)
        sup = Supervisor(checkpoint_every=4, checkpoint_path=p)
        assert np.array_equal(sup.run_eta(h, scale, 32, blk), ref)
        assert sup.report.checkpoint_discards == 1
        assert sup.report.resumes == 0  # restarted at m = 0


class TestIntegrity:
    """Atomic writes and loud failures on damaged checkpoints."""

    def _save_one(self, system, path):
        h, scale, blk, _ = system
        checkpointed_eta(
            h, scale, 16, blk, checkpoint_every=3, checkpoint_path=path
        )
        return path if path.suffix == ".npz" else path.with_name(
            path.name + ".npz"
        )

    def test_missing_file_raises_checkpoint_error(self, tmp_path):
        with pytest.raises(CheckpointError, match="not found"):
            KpmCheckpoint.load(tmp_path / "nope.npz")

    def test_truncated_file_raises_checkpoint_error(self, system, tmp_path):
        p = self._save_one(system, tmp_path / "s.npz")
        data = p.read_bytes()
        p.write_bytes(data[: len(data) // 2])
        with pytest.raises(CheckpointError, match="truncated or corrupt"):
            KpmCheckpoint.load(p)

    def test_garbage_file_raises_checkpoint_error(self, tmp_path):
        p = tmp_path / "junk.npz"
        p.write_bytes(b"this is not a zip archive")
        with pytest.raises(CheckpointError):
            KpmCheckpoint.load(p)

    def test_digest_detects_bit_flip(self, system, tmp_path):
        """A state mutation that keeps the zip intact still fails loudly."""
        p = self._save_one(system, tmp_path / "s.npz")
        ck = KpmCheckpoint.load(p)
        ck.v[0, 0] += 1.0  # silent data corruption
        np.savez_compressed(
            p, version=2, v=ck.v, w=ck.w, eta=ck.eta, anchors=ck.anchors,
            next_m=ck.next_m, n_moments=ck.n_moments, a=ck.a, b=ck.b,
            precision=ck.precision, run_id=ck.run_id,
            digest="0" * 64,  # stale digest from "before" the flip
        )
        with pytest.raises(CheckpointError, match="integrity"):
            KpmCheckpoint.load(p)

    def test_corruption_drill_helper(self, system, tmp_path):
        from repro.resil import corrupt_checkpoint_file

        p = self._save_one(system, tmp_path / "s.npz")
        assert corrupt_checkpoint_file(p, seed=3)
        with pytest.raises(CheckpointError):
            KpmCheckpoint.load(p)
        assert not corrupt_checkpoint_file(tmp_path / "absent.npz")

    def test_atomic_write_leaves_no_temp_files(self, system, tmp_path):
        self._save_one(system, tmp_path / "s.npz")
        leftovers = [f.name for f in tmp_path.iterdir() if "tmp" in f.name]
        assert leftovers == []
        assert (tmp_path / "s.npz").exists()

    def test_save_replaces_previous_atomically(self, system, tmp_path):
        """Re-saving over an existing checkpoint keeps it loadable."""
        p = self._save_one(system, tmp_path / "s.npz")
        ck = KpmCheckpoint.load(p)
        ck.save(p)
        again = KpmCheckpoint.load(p)
        assert np.array_equal(again.v, ck.v)
        assert again.next_m == ck.next_m

    # -- the stored container: detection rests on CRC-32 + sha256 alone ---

    @staticmethod
    def _member_span(path, name):
        """(offset, length) of a member's bytes inside the archive."""
        with zipfile.ZipFile(path) as zf:
            info = zf.getinfo(name + ".npy")
        assert info.compress_type == zipfile.ZIP_STORED
        with open(path, "rb") as f:
            f.seek(info.header_offset + 26)
            n_name, n_extra = struct.unpack("<HH", f.read(4))
        return info.header_offset + 30 + n_name + n_extra, info.file_size

    @pytest.mark.parametrize("member", ["v", "eta"])
    def test_single_flipped_byte_is_detected(self, system, tmp_path, member):
        p = self._save_one(system, tmp_path / "s.npz")
        start, length = self._member_span(p, member)
        data = bytearray(p.read_bytes())
        data[start + length // 2] ^= 0x01
        p.write_bytes(data)
        with pytest.raises(CheckpointError):
            KpmCheckpoint.load(p)

    @pytest.mark.parametrize(
        "cut", ["empty", "magic", "first_member", "last_member",
                "central_directory", "end_record"])
    def test_truncation_anywhere_is_detected(self, system, tmp_path, cut):
        p = self._save_one(system, tmp_path / "s.npz")
        data = p.read_bytes()
        with zipfile.ZipFile(p) as zf:
            start_dir = zf.start_dir
            last = zf.infolist()[-1].header_offset
        keep = {
            "empty": 0, "magic": 3, "first_member": 200, "last_member": last + 40,
            "central_directory": start_dir + 60, "end_record": len(data) - 1,
        }[cut]
        assert keep < len(data)
        p.write_bytes(data[:keep])
        with pytest.raises(CheckpointError):
            KpmCheckpoint.load(p)

    @pytest.mark.parametrize("precision", ["fp64", "fp32", "fp16v"])
    def test_size_model(self, system, tmp_path, precision):
        """payload = 2·N·R·S_vec + 16·R·M + 8·R; the file adds < 4 KiB."""
        h, scale, blk, _ = system
        p = tmp_path / "s.npz"
        checkpointed_eta(h, scale, 16, blk, checkpoint_every=3,
                         checkpoint_path=p, precision=precision)
        ck = KpmCheckpoint.load(p)
        n, r = blk.shape
        s_vec = {"fp64": 16, "fp32": 8, "fp16v": 4}[precision]
        assert ck.v.nbytes == ck.w.nbytes == n * r * s_vec  # 2x / 4x, exactly
        assert ck.payload_bytes == 2 * n * r * s_vec + 16 * r * 16 + 8 * r
        assert ck.payload_bytes <= p.stat().st_size <= ck.payload_bytes + 4096


def _as_format_1(path):
    """Rewrite a checkpoint as format 1 wrote it: no anchors, a grid tag."""
    with np.load(path) as data:
        old = {k: data[k] for k in data.files if k != "anchors"}
    np.savez(path, **{**old, "version": np.array(1), "eta_grid": np.array(0)})


def _deflated_copy(src, dst):
    """Rewrite ``src`` member for member as every earlier version wrote it."""
    with np.load(src) as data:
        np.savez_compressed(dst, **{k: data[k] for k in data.files})
    with zipfile.ZipFile(dst) as zf:
        assert all(i.compress_type == zipfile.ZIP_DEFLATED for i in zf.infolist())
    return dst


class TestDeflatedFilesStillLoad:
    """Checkpoints written before the container became stored."""

    def test_serial_resume_bitwise(self, system, tmp_path):
        h, scale, blk, _ = system
        p = tmp_path / "new.npz"
        full = checkpointed_eta(h, scale, 32, blk, checkpoint_every=4,
                                checkpoint_path=p)
        old = _deflated_copy(p, tmp_path / "old.npz")
        ck = KpmCheckpoint.load(old)  # verifies the digest it carries
        assert ck._digest() == KpmCheckpoint.load(p)._digest()
        assert 1 < ck.next_m < 16
        resumed = checkpointed_eta(h, scale, 32, blk, resume_from=old)
        assert np.array_equal(resumed, full)

    def test_mp_resume_bitwise(self, system, tmp_path):
        from repro.dist.kpm_parallel import distributed_eta
        from repro.dist.mp import MpWorld
        from repro.dist.partition import RowPartition

        h, scale, blk, _ = system
        part = RowPartition.equal(h.n_rows, 2, align=64)
        p = tmp_path / "new.npz"
        full = distributed_eta(h, part, scale, 32, blk, MpWorld(2),
                               checkpoint_every=4, checkpoint_path=p)
        old = _deflated_copy(p, tmp_path / "old.npz")
        assert 1 < KpmCheckpoint.load(old).next_m < 16
        resumed = distributed_eta(h, part, scale, 32, blk, MpWorld(2),
                                  resume_from=old)
        assert np.array_equal(resumed, full)


def _fixed_run(path):
    """A checkpointed run built from constants, so any process can repeat it."""
    from repro.physics import build_topological_insulator

    h, _ = build_topological_insulator(5, 5, 3)
    scale = SpectralScale.from_bounds(*h.gershgorin_bounds())
    blk = make_block_vector(h.n_rows, 3, seed=1)
    # leave bytes that differ from call to call where an uninitialised
    # eta would be allocated
    poison = np.full((3, 16), complex(np.random.default_rng().random()))
    del poison
    checkpointed_eta(h, scale, 16, blk, checkpoint_every=3,
                     checkpoint_path=path, backend="numpy")
    return Path(path).read_bytes()


class TestFileIsAFunctionOfTheState:
    """No heap bytes on disk: the same state always writes the same file."""

    def test_same_state_twice(self, tmp_path):
        assert _fixed_run(tmp_path / "a.npz") == _fixed_run(tmp_path / "b.npz")

    def test_same_state_from_another_process(self, tmp_path):
        here = _fixed_run(tmp_path / "here.npz")
        there = tmp_path / "there.npz"
        subprocess.run(
            [sys.executable, "-c",
             "import sys; from test_checkpoint import _fixed_run; "
             "_fixed_run(sys.argv[1])", str(there)],
            check=True, timeout=120,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(
                [str(Path(__file__).parent), *sys.path])},
        )
        assert there.read_bytes() == here

    def test_unfilled_eta_tail_is_zero(self, tmp_path):
        _fixed_run(tmp_path / "s.npz")
        ck = KpmCheckpoint.load(tmp_path / "s.npz")
        assert 0 < 2 * ck.next_m < ck.n_moments
        assert not ck.eta[:, 2 * ck.next_m:].any()


def _whole_refold(run, bins, stop):
    """What a capture computed before the running prefix: the resumed
    prefix, then the fold of every moment pair since it."""
    out = np.zeros((run.r, stop), dtype=complex)
    col0 = 0
    if run.ck is not None:
        col0 = 2 * run.ck.next_m
        out[:, :col0] = run.ck.eta[:, :col0]
    ee, eo = fold(bins[:, col0 // 2:stop // 2].sum(axis=0))
    out[:, col0:stop:2], out[:, col0 + 1:stop:2] = ee.T, eo.T
    return out


class TestRunningPrefix:
    """A capture folds only the moment pairs since the last one."""

    @pytest.mark.parametrize("engine", ["sim", "mp"])
    def test_every_capture_is_the_whole_refold(self, system, tmp_path,
                                               monkeypatch, engine):
        """A fresh leg and a resumed one, streaming every iteration: at
        each capture the running prefix is the whole re-fold's bits and
        its tail is zero."""
        from repro.core.checkpoint import Run
        from repro.dist.kpm_parallel import distributed_eta
        from repro.dist.mp import MpWorld
        from repro.dist.partition import RowPartition
        from repro.dist.comm import SimWorld

        h, scale, blk, ref = system
        real, seen = Run.capture, []

        def capture(run, m, k, bins, vw, world=None):
            real(run, m, k, bins, vw, world)
            n = 2 * (m + 1)
            seen.append((run._eta[:, :n].copy(), _whole_refold(run, bins, n),
                         run._eta[:, n:].any()))

        def keep_m5(n_eta, _prefix):  # the file holds next_m = 6 then
            if n_eta == 14:
                shutil.copy(path, mid)

        monkeypatch.setattr(Run, "capture", capture)
        part = RowPartition.equal(h.n_rows, 2, align=64)
        path, mid = tmp_path / "ck.npz", tmp_path / "mid.npz"
        etas = []
        for kw in (dict(checkpoint_every=5, checkpoint_path=path),
                   dict(resume_from=mid)):
            world = SimWorld(2) if engine == "sim" else MpWorld(2)
            etas.append(distributed_eta(
                h, part, scale, 32, blk, world, progress=keep_m5,
                progress_every=1, **kw))
        assert len(seen) == 15 + 10
        for got, want, tail in seen:
            assert np.array_equal(got, want)
            assert not tail
        for eta in etas:
            assert np.array_equal(eta, ref)

    def test_a_kept_checkpoint_does_not_move(self, system, tmp_path):
        """``world.last_checkpoint`` holds its own eta: later captures
        fold into the running buffer, not into a kept checkpoint."""
        from repro.dist.kpm_parallel import distributed_eta
        from repro.dist.mp import MpWorld
        from repro.dist.partition import RowPartition

        h, scale, blk, _ = system
        world, kept = MpWorld(2), []

        def progress(n_eta, prefix):
            ck = world.last_checkpoint
            if ck is not None and (not kept or kept[-1][0] is not ck):
                kept.append((ck, ck.eta.copy()))

        distributed_eta(h, RowPartition.equal(h.n_rows, 2, align=64), scale,
                        32, blk, world, progress=progress, progress_every=1,
                        checkpoint_every=3, checkpoint_path=tmp_path / "c.npz")
        assert len(kept) == 4
        for ck, eta in kept + [(world.last_checkpoint,
                                world.last_checkpoint.eta.copy())]:
            assert np.array_equal(ck.eta, eta)
            assert not ck.eta[:, 2 * ck.next_m:].any()

    def test_capture_cost_does_not_grow_with_m(self):
        """The killed-parent drill's shape (2 ranks, R = 1, a stream every
        iteration): a capture at m = 100,000 costs at most twice one at
        m = 1,000 (best of 200 each)."""
        from time import perf_counter

        from repro.core.checkpoint import Run, RunContext
        from repro.util.knobs import ExecConfig

        n_moments = 2 * 100_100
        ctx = RunContext.of(progress=lambda *_: None, progress_every=1)
        run = Run.of(ExecConfig(backend="numpy"), ctx,
                     SpectralScale.from_bounds(-1.0, 1.0), n_moments,
                     np.ones((64, 1), dtype=complex), 64)
        bins = np.ones((2, n_moments // 2, 2, 3))

        def cost(m0):
            run.capture(m0 - 1, 0, bins, None)  # folds up to m0
            best = float("inf")
            for m in range(m0, m0 + 200):
                t0 = perf_counter()
                run.capture(m, 0, bins, None)
                best = min(best, perf_counter() - t0)
            return best

        early = cost(1_000)
        assert cost(100_000) <= 2.0 * early
