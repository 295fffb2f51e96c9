"""The experiment registry: uniform signatures over every table/figure."""
from __future__ import annotations

import inspect

import pytest

from repro.harness.registry import (
    EXPERIMENT_REGISTRY,
    SMOKE_PARAMS,
    Experiment,
    ExperimentOptions,
    experiment_names,
    get_experiment,
    register,
    render_experiment,
    run_experiment,
    smoke_options,
)

#: every paper artifact the suite reproduces, in presentation order,
#: plus the user-kernel cross-check experiment
PAPER_ARTIFACTS = ("fig1", "table1", "table2", "fig6", "fig7", "fig8",
                   "fig9", "fig10", "fig11", "fig12a", "fig12b", "init",
                   "kernel")

#: options that finish the whole registry in seconds
QUICK = smoke_options(scale=0.04, workloads=("TRAF",))


def test_registry_is_complete_and_ordered():
    assert experiment_names() == PAPER_ARTIFACTS


def test_every_entry_is_an_experiment_with_uniform_signature():
    for name in experiment_names():
        exp = get_experiment(name)
        assert isinstance(exp, Experiment)
        assert exp.name == name
        assert exp.description
        # run takes exactly one options argument; render one result
        # (extra defaulted params are closure bindings, not API surface)
        def required(fn):
            return [p for p in inspect.signature(fn).parameters.values()
                    if p.default is inspect.Parameter.empty]

        assert len(required(exp.run)) == 1
        assert len(required(exp.render)) == 1


def test_get_unknown_experiment_raises_with_known_names():
    with pytest.raises(KeyError, match="fig6"):
        get_experiment("figZZZ")


def test_duplicate_registration_rejected():
    exp = get_experiment("fig6")
    with pytest.raises(ValueError):
        register(exp)


def _workloads(points):
    return {dict(p.kwargs).get("workload") for p in points} - {None}


def test_every_experiment_declares_points():
    from repro.workloads import workload_names

    # experiments that take options.workloads: exactly these name
    # workloads in their points, and the restriction restricts them
    sweep = {"fig1", "table2", "fig6", "fig7", "fig8", "fig9", "fig10",
             "fig11"}
    wide = smoke_options(scale=0.04)
    for name in experiment_names():
        exp = get_experiment(name)
        points = exp.points(QUICK)
        assert points, name
        assert points == exp.points(QUICK), name
        assert len({hash(p) for p in points}) == len(set(points))
        for p in points:
            assert callable(p.resolve()), p.func
        if name in sweep:
            assert _workloads(points) == {"TRAF"}, name
            assert _workloads(exp.points(wide)) == set(workload_names())
        else:
            assert not _workloads(exp.points(wide)), name


def test_options_params_are_per_experiment():
    o = ExperimentOptions(params={"fig10": {"chunk_sizes": (64,)}})
    assert o.params_for("fig10") == {"chunk_sizes": (64,)}
    assert o.params_for("fig12a") == {}


def test_options_default_workloads_is_full_registry():
    from repro.workloads import workload_names

    assert ExperimentOptions().workload_list() == workload_names()
    assert ExperimentOptions(workloads=("GOL",)).workload_list() == ["GOL"]


def test_smoke_params_cover_the_self_sized_experiments():
    self_sized = {n for n in experiment_names()
                  if not all(p.is_cell for p in get_experiment(n).points(QUICK))}
    assert self_sized <= set(SMOKE_PARAMS)


@pytest.mark.parametrize("name", PAPER_ARTIFACTS)
def test_run_and_render_smoke(name):
    """Every experiment runs and renders under one shared options value."""
    result = run_experiment(name, QUICK)
    text = render_experiment(name, result)
    assert isinstance(text, str) and text.strip()


def test_run_experiment_defaults_options():
    # init is cheap enough to run at default options
    result = run_experiment("init", ExperimentOptions(
        params={"init": {"num_objects": 1500}}))
    assert "speedup" in render_experiment("init", result)
