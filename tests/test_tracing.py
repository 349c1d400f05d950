"""What the benchmark in perfbench/ reads of hyptube by name.  The tracer
wraps the functions it lists, its hcore replay calls hcore names, and its
output checks read each family member's circle as a Hermitian form in the
input frame; a missing name or a moved circle fails every benchmark run."""

import importlib.util
import sys
from pathlib import Path

import hyptube
from hyptube.cli import parse_group_file
from hyptube.insulator import build_family
from hyptube.lifts import lifts_of_geodesic

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_listed_name():
    tracing = _load("perfbench_tracing", PERFBENCH / "tracing.py")
    originals = {
        (layer, name): getattr(getattr(hyptube, layer), name)
        for layer, names in tracing.LAYERS.items()
        for name in names
    }
    undo = tracing.Tracer().install(hyptube)
    try:
        for (layer, name), orig in originals.items():
            assert getattr(getattr(hyptube, layer), name) is not orig, f"{layer}.{name}"
    finally:
        tracing.Tracer.uninstall(undo)
    for (layer, name), orig in originals.items():
        assert getattr(getattr(hyptube, layer), name) is orig, f"{layer}.{name}"


def test_hcore_names_of_the_replay():
    for name in ("midplane", "orthodistance", "SharedEndpoint", "INTERSECTION_TOL"):
        assert hasattr(hyptube.hcore, name), name


def test_family_circles_pass_the_benchmark_check():
    _load("model", PERFBENCH / "model.py")  # checks.py imports it by this name
    checks = _load("checks", PERFBENCH / "checks.py")
    gf = parse_group_file((ROOT / "groups" / "shorttube.grp").read_text())
    L = lifts_of_geodesic(gf.presentation, gf.word("delta"), 4)
    F = build_family(L, 4.0)
    assert len(F) == 9
    base = tuple((p.z, p.w) for p in (F.p_plus, F.p_minus))
    for m in F.members:
        lift = tuple((x.z, x.w) for x in L.lifts[m.lift_index].geodesic.endpoints)
        checks.check_family_circle(checks.hermitian(m.circle), base, lift, m.ortho.d)
