"""Fig. 6 — comparison with layer-based indexes (Experiment 2, part 1).

Six panels: construction time on U3 and Server (a, b), accessed records
(c, d) and query response time (e, f) versus k.

Paper shape: DG has the lowest construction time; at query time DG
accesses far fewer records than ONION and AppRI (the paper reports DG's
search space below 1/5 of AppRI's) because both baselines score whole
layers.
"""

import pytest

from repro.baselines.appri import AppRIIndex
from repro.baselines.onion import OnionIndex
from repro.bench import experiments as E
from repro.core.advanced import AdvancedTraveler
from repro.core.builder import build_extended_graph
from repro.data.generators import make_dataset
from repro.data.server import server_dataset

from bench_utils import emit, geometric_mean_ratio


@pytest.fixture(scope="module")
def fig6_tables():
    tables = {
        "construction_u3": emit(E.fig6_construction(), "fig6a_construction_u3"),
        "construction_server": emit(
            E.fig6_construction(use_server=True), "fig6b_construction_server"
        ),
        "accessed_u3": emit(E.fig6_query(metric="accessed"), "fig6c_accessed_u3"),
        "accessed_server": emit(
            E.fig6_query(metric="accessed", use_server=True), "fig6d_accessed_server"
        ),
        "time_u3": emit(E.fig6_query(metric="time"), "fig6e_time_u3"),
        "time_server": emit(
            E.fig6_query(metric="time", use_server=True), "fig6f_time_server"
        ),
    }
    return tables


@pytest.fixture(scope="module")
def u3_dataset():
    return make_dataset("U", E.scale(2000), 3, seed=0)


def test_bench_dg_construction(benchmark, fig6_tables, u3_dataset):
    # Substrate caveat (documented in EXPERIMENTS.md): the paper measures
    # three same-language C++ builds where DG is cheapest; here ONION
    # rides scipy's C Qhull while DG's blocked pass is numpy driven from
    # Python, so DG beats AppRI but stays a constant behind ONION.  The
    # language-independent shape that remains checkable is growth: DG
    # construction scales sub-quadratically in |D|, like the paper's
    # Fig. 6a/b curves.
    for key in ("construction_u3", "construction_server"):
        table = fig6_tables[key]
        dg = table.series_by_label("DG")
        size_ratio = table.x[-1] / table.x[0]
        time_ratio = dg.y[-1] / dg.y[0]
        assert time_ratio <= size_ratio ** 2, (key, time_ratio, size_ratio)
    benchmark.pedantic(
        build_extended_graph, args=(u3_dataset,),
        kwargs={"theta": E.DEFAULT_THETA}, rounds=3, iterations=1,
    )


def test_bench_onion_construction(benchmark, u3_dataset):
    benchmark.pedantic(OnionIndex, args=(u3_dataset,), rounds=3, iterations=1)


def test_bench_appri_construction(benchmark, u3_dataset):
    benchmark.pedantic(AppRIIndex, args=(u3_dataset,), rounds=3, iterations=1)


def test_bench_dg_query_vs_layer_based(benchmark, fig6_tables, u3_dataset):
    # Shape (Fig. 6c/d): DG accesses far fewer records than both layer
    # baselines on the synthetic panel — the paper's 5x headline; we
    # require at least a 2x geometric-mean advantage there.  On the
    # tie-heavy Server stand-in the min-rank layers are tiny and AppRI
    # becomes unrealistically strong (EXPERIMENTS.md); DG must still beat
    # ONION everywhere and stay within noise of AppRI.
    table = fig6_tables["accessed_u3"]
    dg = table.series_by_label("DG")
    for rival in ("ONION", "AppRI"):
        ratio = geometric_mean_ratio(table.series_by_label(rival), dg)
        assert ratio > 2.0, ("accessed_u3", rival, ratio)
    server = fig6_tables["accessed_server"]
    dg_server = server.series_by_label("DG")
    assert geometric_mean_ratio(server.series_by_label("ONION"), dg_server) > 2.0
    assert geometric_mean_ratio(server.series_by_label("AppRI"), dg_server) > 0.5
    traveler = AdvancedTraveler(
        build_extended_graph(u3_dataset, theta=E.DEFAULT_THETA)
    )
    benchmark(traveler.top_k, E.canonical_query(3), 50)


def test_bench_onion_query(benchmark, u3_dataset):
    onion = OnionIndex(u3_dataset)
    benchmark(onion.top_k, E.canonical_query(3), 50)


def test_bench_appri_query(benchmark, fig6_tables, u3_dataset):
    # Shape (Fig. 6e/f): response-time ordering matches the access counts
    # for the layer rivals on at least one panel (timing is noisy at
    # millisecond scale, so require the u3 panel only).
    table = fig6_tables["time_u3"]
    dg = table.series_by_label("DG")
    onion = table.series_by_label("ONION")
    assert geometric_mean_ratio(onion, dg) > 1.0
    appri = AppRIIndex(u3_dataset)
    benchmark(appri.top_k, E.canonical_query(3), 50)
