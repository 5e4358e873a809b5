"""The time-block echo loop on several threads.

_echo_blocks runs its blocks on min(CPUs, _ROUND_BLOCKS, blocks) threads,
each with its own buffers, and yields the results in block order, one round
of _ROUND_BLOCKS blocks at a time.  Every output must be bit for bit that of
one thread, whatever the thread count, the block size or the ragged last
round; an error in a block must come out unchanged and leave no thread
behind, with no block of the failing round yielded; the caller's
np.errstate must hold inside the blocks; a grid of one block must start no
thread; and what a round holds must not grow with the CPU count.  The CPU
count is set by patching observables._cpus.
"""

import math
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dqpt.cli as cli
from dqpt import (
    QuenchProtocol,
    compute_rate_series,
    compute_rate_series_finite,
    critical_times,
    imbalance_roots,
    observables,
)
from dqpt.cli import RunConfig, RunManifest, main
from dqpt.observables import _NODES_X, _base_panels, _echo_blocks

finite = dict(allow_nan=False, allow_infinity=False)

# the benchmark's protocols
protocol_st = st.builds(
    QuenchProtocol,
    st.floats(0.0, 3.0, **finite),
    st.floats(0.0, 3.0, **finite),
    st.one_of(
        st.just(math.inf),
        st.floats(-2.0, 1.0, **finite).map(lambda e: 10.0**e),
    ),
    st.floats(-math.pi, math.pi, **finite),
)

THREADS = (1, 2, 3)


def bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


@st.composite
def rate_grid(draw, protocol):
    """A uniform grid in (0, 6) plus times within 1e-4 of the first rungs,
    where the bulk pass holds samples for refinement."""
    t0 = draw(st.floats(0.0, 3.0, **finite))
    times = [*np.linspace(t0, t0 + draw(st.floats(0.1, 3.0, **finite)), draw(st.integers(1, 30)))]
    for k_star in imbalance_roots(protocol).tolist():
        rung = float(critical_times(protocol, k_star, 0)[0])
        times += [rung + d for d in draw(st.lists(st.floats(-1e-4, 1e-4, **finite), max_size=3))]
    return np.unique(np.asarray(times))


def with_threads(threads, fn, *args, **kwargs):
    with mock.patch.object(observables, "_cpus", lambda: threads):
        return fn(*args, **kwargs)


def echo_csv(cfg):
    _, header, template = cli._TASKS["echo-decomposition"]
    warnings = []
    _, rows, diag, _ = cli._task_echo_decomposition(cfg, warnings)
    return header + "\n" + "".join(template % row for row in rows), dict(diag)


@given(protocol_st, st.data(), st.integers(1, 40_000))
@settings(deadline=None, max_examples=60)
def test_outputs_bitwise_equal_on_one_two_and_three_threads(protocol, data, block_bytes):
    # small blocks: from one time each (many blocks, rounds and a ragged tail)
    # up to the whole grid (fewer blocks than threads)
    times = data.draw(rate_grid(protocol))
    n_sites = 2 * data.draw(st.integers(1, 100))
    steps = data.draw(st.integers(2, 40))
    cfg = RunConfig(
        task="echo-decomposition",
        lambda_pre=protocol.lambda_pre,
        lambda_post=protocol.lambda_post,
        beta=protocol.beta,
        phi=protocol.phi,
        n_sites=n_sites,
        steps=steps,
    )
    reference = with_threads(1, compute_rate_series, protocol, times)  # default blocks
    finite_ref = with_threads(1, compute_rate_series_finite, protocol, n_sites, times)
    csv_ref, _ = with_threads(1, echo_csv, cfg)
    rate_nodes = _base_panels(protocol)[0].size * len(_NODES_X)

    def n_blocks(n_times, width):  # width floats of echo data a time
        return -(-n_times // max(1, block_bytes // (8 * width)))

    with mock.patch.object(observables, "_BLOCK_BYTES", block_bytes):
        for threads in THREADS:
            diag = {}
            series = with_threads(threads, compute_rate_series, protocol, times, diagnostics=diag)
            assert np.array_equal(bits(series.values), bits(reference.values))
            assert np.array_equal(bits(series.estimated_error), bits(reference.estimated_error))
            assert diag["block_threads"] == min(threads, n_blocks(times.size, rate_nodes))

            finite_diag = {}
            series = with_threads(
                threads, compute_rate_series_finite, protocol, n_sites, times, finite_diag
            )
            assert np.array_equal(bits(series.values), bits(finite_ref.values))
            assert finite_diag["block_threads"] == min(threads, n_blocks(times.size, n_sites // 2))

            text, echo_diag = with_threads(threads, echo_csv, cfg)
            assert text == csv_ref
            assert echo_diag["blocks.threads"] == 1  # row formatting sets its pace


def test_more_threads_than_cores_with_fast_switching_lose_no_row():
    # every block writes its own slice of the shared values; a lost or
    # misplaced write would show as a changed bit
    protocol = QuenchProtocol(0.4, 2.5, 0.06, 0.03)
    times = np.linspace(0.0, 4.0, 401)
    reference = with_threads(1, compute_rate_series_finite, protocol, 200, times)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with mock.patch.object(observables, "_BLOCK_BYTES", 1):  # one time a block
            for threads in (3, 2 * observables._cpus() + 1):
                series = with_threads(threads, compute_rate_series_finite, protocol, 200, times)
                assert np.array_equal(bits(series.values), bits(reference.values))
    finally:
        sys.setswitchinterval(interval)


ECHO_EPS = np.linspace(0.5, 2.5, 7)
ECHO_IMB = np.linspace(-1.0, 1.0, 7)


def many_blocks(threads, fn, n_times=23):
    """_echo_blocks over n_times times, one time a block."""
    times = np.linspace(0.0, 3.0, n_times)
    with mock.patch.object(observables, "_BLOCK_BYTES", 1), mock.patch.object(
        observables, "_cpus", lambda: threads
    ):
        return _echo_blocks(fn, ECHO_EPS, times, ECHO_IMB)


class BlockError(Exception):
    pass


@pytest.mark.parametrize("threads", THREADS)
@pytest.mark.parametrize("k", [0, 1, 5, 8, 13, 22])
def test_an_error_in_a_block_propagates_unchanged_and_stops_every_thread(threads, k):
    before = threading.active_count()
    error = BlockError(f"block {k}")

    def fn(lo, tb, echoes):
        if lo == k:
            raise error
        return lo

    seen = []
    with pytest.raises(BlockError) as info:
        for lo in many_blocks(threads, fn):
            seen.append(lo)
    assert info.value is error
    # one thread: the blocks before it; more: the rounds before its own; in order
    rounds = observables._ROUND_BLOCKS
    assert seen == list(range(k if threads == 1 else k - k % rounds))
    assert threading.active_count() == before


@pytest.mark.parametrize("k", [0, 5, 13])
def test_an_inline_error_comes_after_every_block_before_it(monkeypatch, k):
    monkeypatch.setattr(observables, "_cpus", lambda: 64)
    error = BlockError(f"block {k}")

    def fn(lo, tb, echoes):
        if lo == k:
            raise error
        return lo

    seen = []
    with mock.patch.object(observables, "_BLOCK_BYTES", 1), pytest.raises(BlockError) as info:
        for lo in _echo_blocks(fn, ECHO_EPS, np.linspace(0.0, 3.0, 23), ECHO_IMB, inline=True):
            seen.append(lo)
    assert info.value is error
    assert seen == list(range(k))


@pytest.mark.parametrize("threads", THREADS)
def test_a_loop_left_early_stops_every_thread(threads):
    before = threading.active_count()
    blocks = many_blocks(threads, lambda lo, tb, echoes: lo)
    assert [next(blocks) for _ in range(3)] == [0, 1, 2]
    blocks.close()
    assert threading.active_count() == before


@pytest.mark.parametrize("threads", THREADS)
def test_blocks_see_the_callers_errstate(threads):
    with np.errstate(divide="raise", over="ignore", under="warn", invalid="print"):
        caller = np.geterr()
        seen = list(many_blocks(threads, lambda lo, tb, echoes: np.geterr()))
    assert seen == [caller] * 23
    assert caller != np.geterr()


@pytest.mark.parametrize("threads", [1, 2, 64])
@pytest.mark.parametrize("n_times", [0, 1])
def test_one_block_starts_no_thread(monkeypatch, threads, n_times):
    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was built")

    monkeypatch.setattr(observables, "ThreadPoolExecutor", no_pool)
    diag = {}
    with mock.patch.object(observables, "_cpus", lambda: threads):
        blocks = _echo_blocks(
            lambda lo, tb, echoes: threading.current_thread(),
            ECHO_EPS,
            np.linspace(0.0, 1.0, n_times),
            ECHO_IMB,
            diagnostics=diag,
        )
        ran_on = list(blocks)
    assert ran_on == [threading.current_thread()] * n_times
    assert diag["block_threads"] == n_times


def test_threads_default_to_the_cpus_this_process_may_use():
    diag = {}
    with mock.patch.object(observables, "_BLOCK_BYTES", 1):
        list(_echo_blocks(lambda *b: None, ECHO_EPS, np.arange(64.0), ECHO_IMB, diagnostics=diag))
    assert diag["block_threads"] == min(observables._cpus(), observables._ROUND_BLOCKS)


def test_a_round_holds_a_fixed_number_of_blocks_whatever_the_cpus(monkeypatch):
    monkeypatch.setattr(observables, "_cpus", lambda: 64)
    before = threading.active_count()
    lock = threading.Lock()
    computed, outstanding, running = [0], [], []

    def fn(lo, tb, echoes):
        with lock:
            computed[0] += 1
        running.append(threading.active_count() - before)
        return lo

    diag = {}
    times = np.linspace(0.0, 3.0, 64)
    with mock.patch.object(observables, "_BLOCK_BYTES", 1):  # one time a block
        blocks = _echo_blocks(fn, ECHO_EPS, times, ECHO_IMB, diagnostics=diag)
        for consumed, lo in enumerate(blocks):
            outstanding.append(computed[0] - consumed)
    rounds = observables._ROUND_BLOCKS
    assert diag["block_threads"] == rounds
    assert max(outstanding) == rounds  # a whole round, and never more
    assert max(running) <= rounds - 1  # the pool; the caller is the last thread


def test_held_rate_rows_stay_bounded_whatever_the_cpus(monkeypatch):
    # tol so small that every sample is held: the rows alive at once (held
    # for refinement, or computed in a round and not yet yielded) must stay
    # within one flush plus one round of blocks, however many CPUs there are
    protocol = QuenchProtocol(0.5, 2.0, 1.0, -math.pi / 2)
    times = np.linspace(0.1, 6.0, 400)
    node_bytes = 8 * _base_panels(protocol)[0].size * len(_NODES_X)  # a time's echo data
    block, flush = 2, (2 * len(_NODES_X)) // 4
    real_blocks = observables._echo_blocks
    lock = threading.Lock()
    rows = {"computed": 0, "refined": 0}
    alive = []

    def counting_blocks(fn, *args, **kwargs):
        def counted(lo, tb, echoes):
            held = fn(lo, tb, echoes)
            with lock:
                rows["computed"] += held[0].size
            return held

        for held in real_blocks(counted, *args, **kwargs):
            alive.append(rows["computed"] - rows["refined"])
            yield held

    def count_and_drop(protocol, tol, lefts, widths, held, *out):  # refines nothing
        rows["refined"] += sum(h[0].size for h in held)
        held.clear()

    monkeypatch.setattr(observables, "_cpus", lambda: 64)
    monkeypatch.setattr(observables, "_BLOCK_BYTES", block * node_bytes)
    monkeypatch.setattr(observables, "_echo_blocks", counting_blocks)
    monkeypatch.setattr(observables, "_refine", count_and_drop)
    diag = {}
    compute_rate_series(protocol, times, tol=1e-300, diagnostics=diag)
    assert diag["block_threads"] == observables._ROUND_BLOCKS
    assert rows["computed"] == rows["refined"] == times.size
    assert max(alive) <= flush - 1 + observables._ROUND_BLOCKS * block


def test_inline_blocks_run_lazily_on_the_calling_thread(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was built")

    monkeypatch.setattr(observables, "_cpus", lambda: 64)
    monkeypatch.setattr(observables, "ThreadPoolExecutor", no_pool)
    computed = []
    diag = {}
    times = np.linspace(0.0, 3.0, 23)
    with mock.patch.object(observables, "_BLOCK_BYTES", 1):
        blocks = _echo_blocks(
            lambda lo, tb, echoes: computed.append(lo) or echoes[0],  # a view, valid until next
            ECHO_EPS,
            times,
            ECHO_IMB,
            inline=True,
            diagnostics=diag,
        )
        for lo, echo in enumerate(blocks):
            assert computed == list(range(lo + 1))
            expected = observables.mode_echo(ECHO_IMB, ECHO_EPS, times[lo : lo + 1, None])
            assert np.array_equal(bits(echo), bits(expected))
    assert diag["block_threads"] == 1


def read_manifest(path):
    return dict(RunManifest.from_text(path.read_text()).entries)


@pytest.mark.parametrize(
    "task,argv",
    [
        ("rate", ["--steps", "41"]),
        ("rate-finite", ["--n-sites", "20000", "--steps", "41"]),
        ("echo-decomposition", ["--n-sites", "200", "--steps", "41"]),
    ],
)
def test_manifests_record_the_block_threads_and_the_csvs_do_not(tmp_path, monkeypatch, task, argv):
    texts = {}
    for threads in (1, 2):
        monkeypatch.setattr(observables, "_cpus", lambda: threads)
        monkeypatch.setattr(observables, "_BLOCK_BYTES", 1 << 12)  # several blocks
        out = tmp_path / f"{threads}.csv"
        assert main([task, *argv, "--out", str(out)]) == 0
        manifest = read_manifest(tmp_path / f"{threads}.csv.manifest")
        expected = 1 if task == "echo-decomposition" else threads
        assert manifest["blocks.threads"] == str(expected)
        texts[threads] = out.read_text()
    assert texts[1] == texts[2]
    assert "thread" not in texts[1].splitlines()[0]


def test_cell_manifests_record_the_block_threads(tmp_path):
    out = tmp_path / "sweep"
    assert main(["sweep", "--beta", "0.1", "--steps", "41", "--out", str(out)]) == 0
    (cell,) = [d for d in out.iterdir() if d.is_dir()]
    threads = int(read_manifest(cell / "cell.manifest")["blocks.threads"])
    assert 1 <= threads <= min(observables._cpus(), observables._ROUND_BLOCKS)
