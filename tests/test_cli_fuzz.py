"""main over random tasks, options and output paths: it fails early or not at all.

Each example draws a task, flags from a value set of edge cases (zeros of
both signs, infinities, NaN, the largest and smallest floats, one ulp
either side of 1, pi forms, unparsable text and each cap's neighbours) and
an --out that is fine, in a missing directory, a directory, or a path whose
manifest is one; a sweep's may hold a directory at index.csv or
sweep.manifest, and one sweep of each of those two runs as an explicit
example.  main runs in a fresh directory, with a spy on every task
handler, and must:

- return 0, 2 or 3, raising nothing and printing no traceback;
- leave no .tmp behind;
- on exit 2, leave the directory tree as it was and call no handler.

steps stays at 8 or below, and the other sizes that set the work
(n_sites, k_resolution, n_max, a branch) are drawn small or past their
caps, so that 300 examples run in a second or two.
"""

import contextlib
import io
import os
import tempfile
from unittest import mock

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from dqpt import cli

CAP = 10**7  # _MAX_STEPS, _MAX_SITES and _MAX_K_RESOLUTION
NUMBERS = [
    "0", "-0", "1", "-1", "inf", "-inf", "nan", "1e300", "1e-300", "-1e300", "5e-324",
    "1e17", "1e-17", "1.0000000000000002", "0.9999999999999999", "1e308", "8e307",
    "pi", "-pi/2", "3*pi/4", "pi/0", "abc", "", "0.5", "2", "10",
]  # fmt: skip
INTEGERS = ["-1", "0", "abc", "", "1.5", str(CAP + 1), str(-CAP - 1)]
FLOATS = ("--lambda-pre", "--lambda-post", "--beta", "--phi", "--coupling", "--t-min", "--t-max",
          "--tol")  # fmt: skip
OPTIONS = {  # flag -> the values it is drawn from
    **dict.fromkeys(FLOATS, NUMBERS),
    "--steps": [*INTEGERS, *map(str, range(1, 9))],
    "--k-resolution": [*INTEGERS, "63", "64", "65"],
    "--n-sites": [*INTEGERS, "2", "3", "4", "20", str(CAP + 2)],
    "--n-max": [*INTEGERS, "1", "3"],
    "--branch": [*INTEGERS, "1", ",", str(CAP)],
    "--variant": ["sinh", "tanh", "foo"],
    "--jobs": ["-1", "0", "1", "2", "abc", str(cli._MAX_JOBS), str(cli._MAX_JOBS + 1)],
}
LIST_KEYS = ["beta_list", "phi_list", "lambda_post_list"]  # a sweep's config-file keys
LISTS = ["0.5, 2", "10, 0.1", "2", ",", "nan", "1e308, 2", "abc", "1, 1", "inf"]
TASK_OUTS = ["fine", "missing", "adir", "manifest-dir"]
SWEEP_OUTS = ["fine", "missing", "adir", "index-dir", "sweep-manifest-dir"]


@st.composite
def runs(draw):
    """(task, flags, sweep config lines, --out kind)."""
    task = draw(st.sampled_from(cli.TASKS))
    chosen = draw(st.lists(st.sampled_from(sorted(OPTIONS)), max_size=3, unique=True))
    # 5 steps, the least a sweep's cusp detection takes, in place of the default 401;
    # a drawn --steps comes later and wins
    flags = ["--steps=5"]
    flags += [f"{flag}={draw(st.sampled_from(OPTIONS[flag]))}" for flag in chosen]
    lines = []
    if task == "sweep":
        keys = draw(st.lists(st.sampled_from(LIST_KEYS), max_size=2, unique=True))
        lines = [f"{key} = {draw(st.sampled_from(LISTS))}\n" for key in keys]
    outs = SWEEP_OUTS if task == "sweep" else TASK_OUTS
    return task, flags, lines, draw(st.sampled_from(outs))


def out_path(root, kind):
    """The --out of a kind, after making what the kind needs."""
    os.mkdir(os.path.join(root, "adir"))
    if kind == "missing":
        return os.path.join(root, "missing", "x")
    if kind == "adir":
        return os.path.join(root, "adir")
    path = os.path.join(root, "x")
    below = {"manifest-dir": "x.manifest", "index-dir": "x/index.csv",
             "sweep-manifest-dir": "x/sweep.manifest"}.get(kind)  # fmt: skip
    if below:
        os.makedirs(os.path.join(root, below))
    return path


def tree(root):
    """Every path below root, with the bytes of each file."""
    out = {}
    for dirpath, dirnames, filenames in os.walk(root):
        for name in dirnames:
            out[os.path.relpath(os.path.join(dirpath, name), root)] = None
        for name in filenames:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


@settings(
    max_examples=300,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(runs())
# a sweep with a directory at either of its two files, always run: few random
# draws reach them with every other input valid
@example(("sweep", ["--steps=5"], [], "index-dir"))
@example(("sweep", ["--steps=5"], [], "sweep-manifest-dir"))
def test_main_fails_early_or_not_at_all(run):
    task, flags, lines, kind = run
    calls = []

    def spy(handler):
        def called(*args, **kwargs):
            calls.append(handler.__name__)
            return handler(*args, **kwargs)

        return called

    spied = {name: (spy(h), *rest) for name, (h, *rest) in cli._TASKS.items()}
    with tempfile.TemporaryDirectory() as root:
        argv = [task, *flags, "--out", out_path(root, kind)]
        if lines:
            config = os.path.join(root, "run.cfg")
            with open(config, "w", encoding="utf-8") as fh:
                fh.writelines(lines)
            argv += ["--config", config]
        before = tree(root)
        cwd = os.getcwd()
        err = io.StringIO()
        try:
            os.chdir(root)  # a default output path would land here
            with mock.patch.dict(cli._TASKS, spied), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        finally:
            os.chdir(cwd)
        after = tree(root)

    message = f"{argv}: {err.getvalue()}"
    assert code in (0, 2, 3), message
    assert "Traceback" not in err.getvalue(), message
    assert not [path for path in after if path.endswith(".tmp")], message
    if code == 2:
        assert after == before, message
        assert calls == [], message
