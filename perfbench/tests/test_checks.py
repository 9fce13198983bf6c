"""Every independent check accepts eigenband's real output and rejects a planted
wrong value.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

import dataclasses

import numpy as np
import pytest

import eigenband as eb
import oracles as orc
from workloads import GeometryScans, NetsSphere, SupSphere, SupTorus


def _direct(label, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def _failing(results):
    return [detail for ok, detail in results if not ok]


class SmallSupSphere(SupSphere):
    samples = 4
    per_wave = 2
    calls = (("lam20.d10.max.first", 20.0, 10.0, "max"),
             ("lam20.d10.abs.repeat", 20.0, 10.0, "abs"))


class SmallSupTorus(SupTorus):
    samples = 4
    calls = (("lam10.d8.abs", 10.0, 8.0, "abs"),)


class SmallNetsSphere(NetsSphere):
    substrate_size = 2000
    geodesic_radii = (0.3,)
    curves = ((9.0, 1.0 / 2.0, 1.0 / 3.0, 4),)
    checked = (9.0, 1)


@pytest.mark.parametrize("study", [SmallSupSphere(), SmallSupTorus()], ids=lambda s: s.name)
def test_sup_checks_reject_planted_means(study):
    inp = study.setup(3)
    out = study.run_round(inp, _direct)
    assert _failing(study.checks(inp, out)) == []
    label = study.calls[-1][0]
    # above the true sup, then too far below it
    for factor in (1.001, 0.95):
        planted = dict(out)
        planted[label] = dataclasses.replace(out[label], mean=out[label].mean * factor)
        failing = _failing(study.checks(inp, planted))
        assert len(failing) == 1 and failing[0].startswith(label)


def test_check_sup_bounds():
    assert orc.check_sup("w", 0.999, 1.0, 3.0, 1e-2)[0]
    assert not orc.check_sup("w", 1.001, 1.0, 3.0, 1e-2)[0]
    assert not orc.check_sup("w", 0.98, 1.0, 3.0, 1e-2)[0]
    assert not orc.check_sup("w", 0.999, 1.0, 0.9, 1e-2)[0]


def test_true_sup_of_a_single_torus_mode():
    sides = (2.0 * np.pi, 2.0 * np.pi)
    labels = [((3, 4), "cos"), ((3, 4), "sin")]
    coeffs = np.array([0.6, 0.8])
    vals = orc.torus_grid_values(sides, labels, coeffs[:, None], 64)[0]
    axis = np.arange(64) * (sides[0] / 64)
    want = np.sqrt(2.0 / (4.0 * np.pi ** 2))
    fn = orc.torus_wave_fn(sides, labels, coeffs)
    assert abs(orc.true_sup(vals, axis, axis, fn, True, True) - want) < 1e-12


@pytest.mark.parametrize("study,lam", [(SupSphere(), 20.0), (SupTorus(), 10.0)],
                         ids=["sphere", "torus"])
def test_wave_value_checks_reject_a_planted_sign(study, lam, monkeypatch):
    band = eb.enumerate_band(study.model(), lam)
    C = np.random.default_rng(1).standard_normal((band.m_lambda, 2))
    assert study.check_values(band, C, np.random.default_rng(2))[0]
    real = eb.mode_matrix
    # a Condon-Shortley-like sign error on every other mode
    flip = np.where(np.arange(band.m_lambda) % 2, -1.0, 1.0)
    monkeypatch.setattr(eb, "mode_matrix", lambda *a: real(*a) * flip)
    assert not study.check_values(band, C, np.random.default_rng(2))[0]


def test_net_checks_reject_planted_nets():
    sphere = eb.sphere2()
    X = np.random.default_rng(0).standard_normal((600, 3))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    pts = [eb.Point(x) for x in X]
    index = {id(p): i for i, p in enumerate(pts)}
    emb = eb.make_embedding(sphere, 9.0)
    feats = orc.sphere_mode_values([m.label for m in emb.band.modes], X) / emb.band.k_lambda
    eps = 0.25
    net = [index[id(c)] for c in eb.greedy_net(pts, eb.CanonicalDistance(emb), eps).centers]
    extra = next(i for i in range(len(pts)) if i not in net)
    assert orc.check_net("n", feats, net, eps, len(net))[0]
    assert not orc.check_net("n", feats, net[:-1], eps, len(net) - 1)[0]
    assert not orc.check_net("n", feats, net + [extra], eps, len(net) + 1)[0]
    assert not orc.check_net("n", feats, net, eps, len(net) + 1)[0]

    r = 0.4
    gnet = [index[id(c)] for c in eb.greedy_net(pts, eb.GeodesicDistance(sphere), r).centers]
    extra = next(i for i in range(len(pts)) if i not in gnet)
    assert orc.check_geodesic_net("g", X, gnet, r)[0]
    assert not orc.check_geodesic_net("g", X, gnet[:-1], r)[0]
    assert not orc.check_geodesic_net("g", X, gnet + [extra], r)[0]


@pytest.fixture(scope="module")
def nets():
    study = SmallNetsSphere()
    inp = study.setup(4)
    return study, inp, study.run_round(inp, _direct)


def test_nets_workload_checks_reject_planted_outputs(nets):
    study, inp, out = nets
    assert _failing(study.checks(inp, out)) == []
    curve = out["curve.lam9"]
    entries = list(curve.entries)
    entries[0], entries[1] = (entries[0][0], entries[1][1] + 1), entries[1]
    plants = {
        "diameter.lam9": (out["diameter.lam9"] * (1 - 1e-6), "sphere lam=9 diameter"),
        "curve.lam9": (dataclasses.replace(curve, entries=tuple(entries)), "curve lam=9"),
    }
    for key, (value, name) in plants.items():
        failing = _failing(study.checks(inp, dict(out, **{key: value})))
        assert failing and all(d.startswith(name) for d in failing), failing


@pytest.fixture(scope="module")
def geometry():
    study = GeometryScans()
    inp = study.setup(5)
    return study, inp, study.run_round(inp, _direct)


def _scaled_first(items, field, delta):
    first = items[0]
    if field is None:
        return [first * delta] + list(items[1:])
    return [first._replace(**{field: getattr(first, field) + delta})] + list(items[1:])


def _plants(out):
    band = out["band.sphere3000"]
    tband = out["band.torus600"]
    grad, fd = out["pullback.gradient"], out["pullback.kernel_fd"]
    return {
        "band.sphere3000": (dataclasses.replace(band, modes=band.modes[:-1],
                                                m_lambda=band.m_lambda - 1), "sphere band"),
        "band.torus600": (dataclasses.replace(tband, modes=tband.modes[2:],
                                              m_lambda=tband.m_lambda - 2), "torus band"),
        "lipschitz.lam30": (out["lipschitz.lam30"] * 0.8, "lipschitz lam=30"),
        "profile.lam200": (_scaled_first(out["profile.lam200"], "measured", 1e-6),
                           "profile lam=200"),
        "profile.lam11": (out["profile.lam11"][:-1]
                          + _scaled_first(out["profile.lam11"][-1:], "measured", 1e-6),
                          "antipodal distance at degree 11"),
        "pullback.gradient": ([dataclasses.replace(grad[0], matrix=grad[0].matrix * (1 + 1e-6))]
                              + grad[1:], "pullback"),
        "pullback.kernel_fd": ([dataclasses.replace(fd[0], matrix=fd[0].matrix * (1 + 1e-3))]
                               + fd[1:], "pullback kernel_fd"),
        "diameter.sphere20": (out["diameter.sphere20"] * (1 - 1e-6), "sphere lam=20 diameter"),
        "diameter.torus40": (out["diameter.torus40"] * (1 - 1e-6), "torus lam=40 diameter"),
        "cumulative.sphere": (_scaled_first(out["cumulative.sphere"], None, 1 + 1e-6),
                              "cumulative kernel sphere"),
        "cumulative.torus": (_scaled_first(out["cumulative.torus"], None, 1 + 1e-6),
                             "cumulative kernel torus"),
    }


def test_geometry_checks_pass_on_real_output(geometry):
    study, inp, out = geometry
    assert _failing(study.checks(inp, out)) == []


PLANT_KEYS = ("band.sphere3000", "band.torus600", "lipschitz.lam30", "profile.lam200",
              "profile.lam11", "pullback.gradient", "pullback.kernel_fd",
              "diameter.sphere20", "diameter.torus40", "cumulative.sphere",
              "cumulative.torus")


@pytest.mark.parametrize("key", PLANT_KEYS)
def test_geometry_checks_reject_a_planted_value(geometry, key):
    study, inp, out = geometry
    value, name = _plants(out)[key]
    failing = _failing(study.checks(inp, dict(out, **{key: value})))
    assert failing and all(d.startswith(name) for d in failing), failing


def test_missing_level_cache_is_reported(monkeypatch):
    import run
    from eigenband import waves

    assert run._clear_program_caches()
    monkeypatch.delattr(waves, "_LEVEL_CACHE")
    assert not run._clear_program_caches()
