"""The harness counts damaged outputs as failed operations instead of crashing.

    python3 -m pytest perfbench/test_harness.py

Small variants of the workloads (64x64 scenes) keep this to seconds. Like
the benchmark, it writes only under the checkout's ``.perfbench`` directory.
"""

import shutil

import bootstrap

bootstrap.prepare()

import pytest  # noqa: E402

import tracer  # noqa: E402
from run import iterate, metric_units, traced_iteration  # noqa: E402
from workloads import (  # noqa: E402
    BASE_GROUP, IMAGE_ARRAY, InferWorkload, IngestWorkload, Tally, TrainWorkload)


@pytest.fixture
def work(request):
    path = bootstrap.ROOT / ".perfbench" / "test" / request.node.name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _set_up(wl, work):
    work.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    ctx = wl.setup(work, 5, tally)
    assert ctx is not None and tally.failed == 0, tally.problems
    return ctx, tally


def _corrupt_chunk(ctx):
    chunk = sorted(p for p in (ctx.store / BASE_GROUP / IMAGE_ARRAY).iterdir()
                   if p.is_file() and not p.name.startswith("."))[0]
    blob = bytearray(chunk.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    chunk.write_bytes(bytes(blob))


def _truncate(path):
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def test_clean_iterations_pass_their_checks(work):
    for wl in (IngestWorkload(size=64), TrainWorkload(size=64), InferWorkload(size=64)):
        ctx, tally = _set_up(wl, work / wl.name)
        digests = []
        for _ in range(2):
            assert iterate(wl, ctx, work / wl.name / "iter", tally, digests, check=True)
        assert tally.failed == 0, tally.problems
        assert len(digests) == 2


def test_corrupt_chunk_fails_the_ingest_checks(work):
    wl = IngestWorkload(size=64)
    ctx, tally = _set_up(wl, work)
    out = work / "iter"
    assert iterate(wl, ctx, out, tally, [], check=False)
    _corrupt_chunk(ctx)
    wl.check(ctx, out, tally)
    assert tally.failed > 0 and tally.failed / tally.attempted > 0
    assert any("image tiles" in p for p in tally.problems)


def test_corrupt_chunk_fails_the_train_stage(work):
    wl = TrainWorkload(size=64)
    ctx, tally = _set_up(wl, work)
    _corrupt_chunk(ctx)
    assert iterate(wl, ctx, work / "iter", tally, [], check=True) is None
    assert tally.failed == 1 and tally.problems == ["terraseg train exited 3"]


def test_truncated_checkpoint_fails_the_checkpoint_check(work):
    wl = TrainWorkload(size=64)
    ctx, tally = _set_up(wl, work)
    out = work / "iter"
    assert iterate(wl, ctx, out, tally, [], check=False)
    _truncate(out / "model.ckpt")
    wl.check(ctx, out, tally)
    assert tally.failed == 1 and tally.problems[0].startswith("check checkpoint:")


def test_truncated_checkpoint_fails_the_infer_stage(work):
    wl = InferWorkload(size=64)
    ctx, tally = _set_up(wl, work)
    _truncate(work / "model" / "model.ckpt")
    assert iterate(wl, ctx, work / "iter", tally, [], check=True) is None
    assert tally.failed == 1 and tally.problems == ["terraseg evaluate exited 3"]


def test_digest_mismatch_counts_as_failed(work):
    wl = IngestWorkload(size=64)
    ctx, tally = _set_up(wl, work)
    digests = ["0" * 64]
    assert iterate(wl, ctx, work / "iter", tally, digests, check=False)
    assert tally.failed == 1 and tally.problems[0].startswith("digest outputs")


def test_tracer_uninstall_leaves_no_wrapper(work):
    wl = TrainWorkload(size=64)
    ctx, tally = _set_up(wl, work)
    tr = tracer.Tracer()
    tr.install()
    try:
        assert tracer.installed()
        assert iterate(wl, ctx, work / "iter", tally, [], check=True)
    finally:
        tr.uninstall()
    assert tracer.installed() == []
    m = tr.layer_metrics()
    assert m["graph.forward.calls"] > 0 and m["ops.conv2d.gflop"] > 0
    assert m["pipeline.train.self_s"] > 0 and tally.failed == 0


def test_traced_iteration_gives_every_per_layer_metric(work):
    wl = TrainWorkload(size=64)
    ctx, tally = _set_up(wl, work)
    times = iterate(wl, ctx, work / "iter", tally, [], check=False)
    layers = traced_iteration(wl, ctx, work / "iter", tally, [], [times])
    assert set(layers) == set(metric_units()[1]) and tally.failed == 0


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
