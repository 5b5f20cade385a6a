"""The traced benchmark patches package names; each one must still exist and
still see every row."""

import importlib.util
from pathlib import Path

from conftest import run_cli

CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"


def test_every_traced_name_resolves_to_a_callable():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    targets = child.layer_targets()
    assert targets
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr, _ in targets
               if not callable(getattr(owner, attr, None))]
    assert missing == []


def test_tracer_sees_one_combine_and_one_member_step_per_row(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    targets = child.layer_targets()
    for owner, attr, _ in targets:
        monkeypatch.setattr(owner, attr, getattr(owner, attr))  # undone after the test
    tracer = child.Tracer()
    tracer.install(targets)

    members = ["member.1.model=markov", "member.1.kernel.family=matern12",
               "member.2.model=linear", "member.2.kernel.family=matern32", "member.2.features.kind=rff",
               "member.2.features.F=8", "member.2.features.seed=1", "member.2.dynamics.mode=random_walk",
               "member.2.dynamics.sigma_rw2=0.01",
               "member.3.model=sparse", "member.3.kernel.family=matern32", "member.3.sparse.M=4",
               "member.4.model=vsgp", "member.4.kernel.family=matern32", "member.4.sparse.M=3",
               ] + [f"member.{k}.noise_var=0.1" for k in range(1, 5)]
    csv = "t,y\n" + "".join(f"{0.1 * i!r},{'' if i % 6 == 5 else repr(0.2 * i)}\n" for i in range(20))
    code, _, err = run_cli(["run", "model=ensemble", *members], stdin_text=csv)
    assert code == 0, err

    def rows_of(name):
        return sorted(span[4] for span in tracer.spans if tracer.names[span[0]] == name)

    assert rows_of("ensemble.combine") == list(range(1, 21))
    assert rows_of("runners.step") == sorted(list(range(1, 21)) * 4)
