"""Tests of the benchmark's own machinery: self-time arithmetic, wrapper
installation and restoration, failure accounting and the host-speed scaling.

    python3 -m pytest -q perfbench
"""

import dataclasses
import gc
import json
import sys

import pytest

import run
import tracer as tracing
import workloads

sys.path.insert(0, str(run.ROOT / "src"))

import fieldstar  # noqa: E402
import fieldstar.cli  # noqa: E402,F401


def _fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_is_span_minus_children():
    # op [0, 10] holds a [1, 7] (which holds b [2, 5]) and b [8, 9]
    t = tracing.Tracer(clock=_fake_clock([0, 1, 2, 5, 7, 8, 9, 10]))
    t.op_id = 0
    t.push("op")
    t.push("a")
    t.push("b")
    t.pop()
    t.pop()
    t.push("b")
    t.pop()
    t.pop()
    assert dict(t.self_s) == {"op": 3, "a": 3, "b": 4}
    assert t.wall_s == 10
    assert sum(t.self_s.values()) == t.wall_s
    assert tracing.self_times(t.spans) == dict(t.self_s)
    parents = {sid: parent for sid, _n, _s, _e, parent, _op in t.spans}
    assert parents == {0: None, 1: 0, 2: 1, 3: 0}


def test_spans_beyond_the_cap_still_count_in_self_time():
    t = tracing.Tracer(clock=_fake_clock([0, 1, 2, 3, 4, 6]), span_cap=1)
    t.push("op")
    t.push("a")
    t.pop()
    t.push("a")
    t.pop()
    t.pop()
    assert len(t.spans) == 1 and t.spans_dropped == 2
    assert dict(t.self_s) == {"op": 4, "a": 2}


def _snapshot():
    """Every attribute of every fieldstar module and of the classes they define."""
    snap = {}
    for name, mod in list(sys.modules.items()):
        if name != "fieldstar" and not name.startswith("fieldstar."):
            continue
        for attr, obj in vars(mod).items():
            snap[(name, attr)] = obj
            if isinstance(obj, type) and obj.__module__ == name:
                for cattr, cobj in vars(obj).items():
                    snap[(name, attr, cattr)] = cobj
    return snap


def test_install_wraps_every_alias_and_uninstall_restores_all():
    before = _snapshot()
    original_star_fn = fieldstar.star.star_fn
    original_add = fieldstar.GRat.__add__
    t = tracing.Tracer()
    t.install()
    try:
        # the defining module, the package and the importing modules alike
        assert fieldstar.star.star_fn is not original_star_fn
        assert fieldstar.star_fn is fieldstar.star.star_fn
        assert fieldstar.cli.star_fn is fieldstar.star.star_fn
        assert fieldstar.star.star_density is fieldstar.star.star_fn
        assert fieldstar.GRat.__add__ is not original_add
        assert fieldstar.jets.mi_add is before[("fieldstar.jets", "mi_add")]
        assert t._on_gc in gc.callbacks
    finally:
        t.uninstall()
    after = _snapshot()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []
    assert t._on_gc not in gc.callbacks


def test_traced_op_accounts_for_all_of_its_wall_time():
    system = fieldstar.real_system(1)
    phi = fieldstar.FieldExpr.jet("phi", (0,))
    pi = fieldstar.FieldExpr.jet("pi", (0,))
    P = fieldstar.Kernel.delta(1)
    t = tracing.Tracer()
    t.install()
    try:
        series = t.run_op(lambda: fieldstar.star_fn(phi * phi, pi * pi, P,
                                                    system, order=4))
        # outside run_op nothing is recorded
        fieldstar.star_fn(phi, pi, P, system)
    finally:
        t.uninstall()
    assert series.exact and sorted(series.coeffs) == [0, 1, 2]
    m = t.metrics()
    layers = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert layers + m["unattributed_s"] == pytest.approx(m["traced_wall_s"])
    assert not t.stack
    assert m["star.exp_sigma_calls"] == 1 and m["star.exact_ratio"] == 1.0
    assert m["sigma.calls"] == 1 and m["sigma.powers"] == 2
    assert m["rationals.ops"] > 0 and m["tensor.mul_calls"] == 1
    assert {s[5] for s in t.spans} == {0}


def _main_lines(capsys, argv):
    code = run.main(argv)
    lines = capsys.readouterr().out.splitlines()
    return code, json.loads(lines[-1])


def test_untraced_run_installs_no_wrapper(monkeypatch, capsys):
    def refuse(_self):
        raise AssertionError("the untraced run installed a wrapper")

    monkeypatch.setattr(tracing.Tracer, "install", refuse)
    code, result = _main_lines(capsys, ["--workload", "cli-session",
                                        "--seed", "3", "--seconds", "0.01"])
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.declared_metrics()[0])


def test_broken_op_is_reported_and_fails_the_run(monkeypatch, capsys):
    cli = workloads.WORKLOADS["cli-session"]

    def broken(fs, spec, root):
        run_op, check, digest, size = cli.make_op(fs, spec, root)
        if spec["kind"] == "classify":
            return (lambda: (0, "mixed\n", "")), check, digest, size
        return run_op, check, digest, size

    monkeypatch.setitem(workloads.WORKLOADS, "cli-session",
                        dataclasses.replace(cli, make_op=broken))
    code, result = _main_lines(capsys, ["--workload", "cli-session",
                                        "--seed", "3", "--seconds", "0.01"])
    assert code == 1
    assert not result["correct"] and result["failed"] >= 1


@pytest.mark.parametrize("layout", ["loose", "packed", "detached", "worktree"])
def test_commit_is_read_from_any_ref_layout(tmp_path, layout):
    sha = "0123456789abcdef0123456789abcdef01234567"
    git = tmp_path / "repo.git" if layout == "worktree" else tmp_path / ".git"
    (git / "refs" / "heads").mkdir(parents=True)
    if layout == "worktree":
        (tmp_path / ".git").write_text(f"gitdir: {git}\n")
    if layout == "detached":
        (git / "HEAD").write_text(sha + "\n")
    else:
        (git / "HEAD").write_text("ref: refs/heads/main\n")
    if layout == "loose":
        (git / "refs" / "heads" / "main").write_text(sha + "\n")
    elif layout in ("packed", "worktree"):
        (git / "packed-refs").write_text(
            "# pack-refs with: peeled fully-peeled sorted\n"
            f"{'f' * 40} refs/heads/other\n{sha} refs/heads/main\n")
    assert run._commit(tmp_path) == sha


def test_commit_outside_git_is_none(tmp_path):
    assert run._commit(tmp_path) is None


def test_each_time_is_scaled_by_the_probes_around_it():
    probe_times = [0.0, 1.0, 2.0, 3.0, 4.0]
    probes = [run.PROBE_REF_S * f for f in (1, 2, 4, 8, 16)]
    # 2.5: probes at 1 and 2 before it, 3 after it; the ends clamp
    speeds = run.local_speeds([0.5, 2.5, 9.0], probe_times, probes)
    assert speeds == pytest.approx([1 / 2, 1 / 4, 1 / 8])
