"""Properties of the configuration format and of `main` over random small configurations."""

import contextlib
import io
import math
import os
import re
import tempfile
import warnings
from dataclasses import fields

from hypothesis import given, settings
from hypothesis import strategies as st

from elapsednet.cli import main
from elapsednet.config import (ConfigError, ExperimentConfig, parse_config, serialize_config,
                               validate_config)

finite = st.floats(allow_nan=False, allow_infinity=False)
nonnegative = st.floats(min_value=0.0, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
# the keys a refusal may name: the configuration's own, and the --config file
KEYS = {f.name for f in fields(ExperimentConfig)} | {"config"}
# a nan or inf written as a number: a whole token, so that p_inf or ||_inf do not count
NON_FINITE = re.compile(r"(?<![\w.])[-+]?(?:nan|inf)(?![\w.])", re.IGNORECASE)


@st.composite
def valid_configs(draw) -> ExperimentConfig:
    """Any configuration that validate_config accepts, except for its names, which are
    any text; t_end is a whole number of steps, and the values no rule bounds are drawn
    from all finite floats."""
    ns = draw(st.integers(2, 40))
    epsilon = draw(st.floats(0.1, 1.0))
    p_inf = draw(st.floats(0.05, 4.0))
    s_max = draw(st.floats(1.0, max(1.0, min(30.0, 1.99 * ns / p_inf))))
    dt_max = min(epsilon * s_max / ns, 1.0 / p_inf)
    rate = draw(st.sampled_from(["step", "smooth"]))
    sigma = draw(st.sampled_from(["identity", "bounded", "constant"]))
    inputs = draw(st.sampled_from(["constant", "sin_squared", "table"]))
    nx = draw(st.integers(1, 5))
    p_stars = st.floats(0.0, 1.0).map(lambda f: f * p_inf)
    dt = draw(st.none() | st.floats(0.05, 1.0).map(lambda f: f * dt_max))
    t_end = draw(st.integers(1, 64)) * (epsilon * (s_max / ns) / 2.0 if dt is None else dt)
    k = draw(finite)  # the input is k times the table or the amplitude, and must be finite
    scaled = lambda values: values.filter(lambda v: math.isfinite(k * v))
    return ExperimentConfig(
        nx=nx, ns=ns, s_max=s_max, epsilon=epsilon, p_inf=p_inf,
        dt=dt, t_end=t_end, save_every=draw(st.floats(0.01, 1.0)) * t_end,
        picard=draw(st.sampled_from(["lagged", "iterate"])),
        picard_tol=draw(st.floats(0.0, exclude_min=True, allow_infinity=False)),
        picard_max_iters=draw(st.integers(1, 500)),
        picard_damping=draw(st.floats(0.0, 1.0, exclude_min=True)),
        rate=rate, p_star=draw(p_stars if rate == "smooth" else st.none() | p_stars),
        s_star=draw(finite if rate == "smooth" else st.none() | finite),
        sigma=sigma,
        sigma_max=draw(nonnegative if sigma != "identity" else st.none() | finite),
        theta=draw(st.floats(1e-3, 5.0) if rate == "smooth" else st.none() | finite),
        rule=draw(st.sampled_from(["hebbian", "gaussian_sigmoid"])),
        gamma=draw(st.floats(0.0, 1e6)),
        input=inputs, input_amplitude=draw(finite if inputs == "table" else scaled(nonnegative)),
        input_scale=k,
        input_table=(tuple(draw(st.lists(scaled(finite), min_size=nx, max_size=nx)))
                     if inputs == "table" else None),
        density=draw(st.sampled_from(["homogeneous", "gaussian_profile"])),
        kernel=draw(st.sampled_from(["gaussian", "constant", "zero"])),
        kernel_amplitude=draw(finite), kernel_width=draw(finite),
        # 1 >= e_1 > e_2 > ... > 0 and 0 < k_1 < k_2 < ...
        epsilon_list=tuple(sorted(draw(st.lists(st.floats(0.0, 1.0, exclude_min=True),
                                                min_size=1, max_size=4, unique=True)),
                                  reverse=True)),
        large_input_k=tuple(sorted(draw(st.lists(positive, min_size=1, max_size=4,
                                                 unique=True)))),
        preset=draw(st.none() | st.text()), out=draw(st.none() | st.text()),
    )


@settings(deadline=None)
@given(cfg=valid_configs())
def test_round_trip_on_random_configs(cfg):
    """An accepted configuration reads back as itself; a refused one names a name's key."""
    try:
        validate_config(cfg)
    except ConfigError as exc:
        assert exc.key in ("out", "preset")
        return
    assert parse_config(serialize_config(cfg)) == cfg


@st.composite
def small_config_texts(draw) -> str:
    """Small configurations, mostly valid and mostly a whole number of steps long, for
    each epsilon of the study too; some break one constraint."""
    ns = draw(st.integers(4, 40))
    s_max = draw(st.floats(4.0, 20.0))
    epsilon = draw(st.floats(0.25, 1.0))
    ds = s_max / ns
    dt = epsilon * ds / 2.0  # the auto step
    rate = draw(st.sampled_from(["step", "smooth"]))
    sigma = draw(st.sampled_from(["identity", "bounded", "constant"]))
    # epsilon / 2^i: a whole number of steps at epsilon is one at each study epsilon;
    # an even number of them puts large-input's half-time sample on a step
    lines = {
        "nx": draw(st.integers(1, 5)), "ns": ns, "s_max": s_max, "epsilon": epsilon,
        "t_end": draw(st.integers(1, 16).map(lambda k: 2 * k * dt)
                      | st.integers(1, 32).map(lambda k: k * dt) | st.floats(0.01, 0.25)),
        "save_every": 0.0625,
        "picard": draw(st.sampled_from(["lagged", "iterate"])),
        "p_inf": draw(st.floats(0.0, min(4.0, 2.0 / ds), exclude_min=True)),
        "rate": rate, "sigma": sigma, "gamma": draw(st.floats(0.0, 3.0)),
        "rule": draw(st.sampled_from(["hebbian", "gaussian_sigmoid"])),
        "input": draw(st.sampled_from(["constant", "sin_squared"])),
        "input_amplitude": draw(st.floats(0.0, 3.0)),
        "density": draw(st.sampled_from(["homogeneous", "gaussian_profile"])),
        "kernel": draw(st.sampled_from(["gaussian", "constant", "zero"])),
        "kernel_amplitude": draw(st.floats(0.0, 3.0)),
        "epsilon_list": ", ".join(str(epsilon / 2**i) for i in range(draw(st.integers(1, 3)))),
        "large_input_k": ", ".join(map(str, sorted(draw(
            st.lists(st.floats(0.5, 100.0), min_size=1, max_size=3, unique=True))))),
    }
    if rate == "smooth":
        lines.update(theta=draw(st.floats(0.1, 2.0)), p_star=draw(st.floats(0.0, 0.5)),
                     s_star=draw(st.floats(1.0, 20.0)))
    if sigma != "identity":
        lines["sigma_max"] = draw(st.floats(0.0, 5.0))
    # at most one of these breaks a rule; the last grid is too coarse for its rate while
    # both dt rules hold
    broken = [{"picard_tol": 0.0}, {"picard_tol": -1e-3}, {"picard_damping": 0.0},
              {"picard_damping": 1.5}, {"picard_max_iters": 0}, {"picard_max_iters": -3},
              {"p_star": -0.25}, {"p_star": 5.0}, {"sigma_max": -0.5}, {"p_inf": 0.0},
              {"gamma": -0.25}, {"input_amplitude": -0.25},
              {"epsilon_list": "2, 1"}, {"epsilon_list": "0.1, 0.2"},
              {"large_input_k": "-1, 10"}, {"large_input_k": "10, 1"},
              {"p_inf": 2.25 / ds, "dt": ds / 4.0}]
    lines.update(draw(st.just({}) | st.sampled_from(broken)))
    return "".join(f"{key} = {value}\n" for key, value in lines.items())


@settings(deadline=None)
@given(command=st.sampled_from(["run", "limit", "stationary", "doeblin", "large-input",
                                "epsilon-study"]),
       text=small_config_texts())
def test_main_ends_in_a_manifest_or_a_key_error(command, text):
    """Each accepted config ends in a MANIFEST: complete with exit 0, or incomplete
    with exit 1; a refused one exits 2 naming a key.  Any exception is a bug."""
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        path, out = os.path.join(tmp, "exp.cfg"), os.path.join(tmp, "out")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, "--config", path, "--out", out])
        if code == 2:
            key = re.search(r"key '(\w+)'", err.getvalue())
            assert key and key.group(1) in KEYS and not os.path.exists(out)
        else:
            with open(os.path.join(out, "MANIFEST"), encoding="utf-8") as fh:
                manifest = fh.read()
            status = {0: "complete", 1: "incomplete"}[code]
            assert f"status = {status}\n" in manifest
            if code == 0:  # a complete run writes no non-finite number
                for name in re.findall(r"^file = (.+)$", manifest, flags=re.M):
                    with open(os.path.join(out, name), encoding="utf-8") as fh:
                        assert not NON_FINITE.search(fh.read()), name
