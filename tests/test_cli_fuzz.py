"""Properties of the configuration format and of `main` over random small configurations."""

import contextlib
import io
import os
import re
import tempfile
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from elapsednet.cli import main
from elapsednet.config import ExperimentConfig, parse_config, serialize_config

finite = st.floats(allow_nan=False, allow_infinity=False)
names = st.from_regex(r"[A-Za-z0-9_./-]{1,12}", fullmatch=True).filter(
    lambda s: s not in ("none", "auto"))


@st.composite
def valid_configs(draw) -> ExperimentConfig:
    """Any configuration that validate_config accepts; the values it does not
    bound are drawn from all finite floats."""
    ns = draw(st.integers(2, 40))
    epsilon = draw(st.floats(0.1, 1.0))
    p_inf = draw(st.floats(0.05, 4.0))
    s_max = draw(st.floats(1.0, max(1.0, min(30.0, 1.99 * ns / p_inf))))
    dt_max = min(epsilon * s_max / ns, 1.0 / p_inf)
    rate = draw(st.sampled_from(["step", "smooth"]))
    sigma = draw(st.sampled_from(["identity", "bounded", "constant"]))
    inputs = draw(st.sampled_from(["constant", "sin_squared", "table"]))
    nx = draw(st.integers(1, 5))
    t_end = draw(st.floats(0.01, 0.5))
    return ExperimentConfig(
        nx=nx, ns=ns, s_max=s_max, epsilon=epsilon, p_inf=p_inf,
        dt=draw(st.none() | st.floats(0.05, 1.0).map(lambda f: f * dt_max)),
        t_end=t_end, save_every=draw(st.floats(0.01, 1.0)) * t_end,
        picard=draw(st.sampled_from(["lagged", "iterate"])),
        picard_tol=draw(finite), picard_max_iters=draw(st.integers(-5, 500)),
        picard_damping=draw(finite),
        rate=rate, p_star=draw(st.none() | finite), s_star=draw(st.none() | finite),
        sigma=sigma,
        sigma_max=draw(finite if sigma != "identity" else st.none() | finite),
        theta=draw(st.floats(1e-3, 5.0) if rate == "smooth" else st.none() | finite),
        rule=draw(st.sampled_from(["hebbian", "gaussian_sigmoid"])),
        gamma=draw(st.floats(0.0, 1e6)),
        input=inputs, input_amplitude=draw(finite), input_scale=draw(finite),
        input_table=(tuple(draw(st.lists(finite, min_size=1, max_size=6)))
                     if inputs == "table" else None),
        density=draw(st.sampled_from(["homogeneous", "gaussian_profile"])),
        kernel=draw(st.sampled_from(["gaussian", "constant", "zero"])),
        kernel_amplitude=draw(finite), kernel_width=draw(finite),
        epsilon_list=tuple(draw(st.lists(finite, min_size=1, max_size=4))),
        large_input_k=tuple(draw(st.lists(finite, min_size=1, max_size=4))),
        preset=draw(st.none() | names), out=draw(st.none() | names),
    )


@settings(deadline=None)
@given(cfg=valid_configs())
def test_round_trip_on_random_configs(cfg):
    assert parse_config(serialize_config(cfg)) == cfg


@st.composite
def small_config_texts(draw) -> str:
    """Small configurations, mostly valid and mostly a whole number of steps long;
    some break one constraint."""
    ns = draw(st.integers(4, 40))
    s_max = draw(st.floats(4.0, 20.0))
    epsilon = draw(st.floats(0.25, 1.0))
    ds = s_max / ns
    rate = draw(st.sampled_from(["step", "smooth"]))
    sigma = draw(st.sampled_from(["identity", "bounded", "constant"]))
    lines = {
        "nx": draw(st.integers(1, 5)), "ns": ns, "s_max": s_max, "epsilon": epsilon,
        "t_end": draw(st.integers(1, 32).map(lambda k: k * (epsilon * ds / 2.0))
                      | st.floats(0.01, 0.25)),
        "save_every": 0.0625,
        "picard": draw(st.sampled_from(["lagged", "iterate"])),
        "p_inf": draw(st.floats(0.0, min(4.0, 2.5 / ds))),
        "rate": rate, "sigma": sigma, "gamma": draw(st.floats(-0.25, 3.0)),
        "rule": draw(st.sampled_from(["hebbian", "gaussian_sigmoid"])),
        "input": draw(st.sampled_from(["constant", "sin_squared"])),
        "input_amplitude": draw(st.floats(-0.25, 3.0)),
        "density": draw(st.sampled_from(["homogeneous", "gaussian_profile"])),
        "kernel": draw(st.sampled_from(["gaussian", "constant", "zero"])),
        "kernel_amplitude": draw(st.floats(0.0, 3.0)),
    }
    if rate == "smooth":
        lines.update(theta=draw(st.floats(0.1, 2.0)), p_star=draw(st.floats(0.0, 0.5)),
                     s_star=draw(st.floats(1.0, 20.0)))
    if sigma != "identity":
        lines["sigma_max"] = draw(st.floats(0.0, 5.0))
    return "".join(f"{key} = {value}\n" for key, value in lines.items())


@settings(deadline=None)
@given(command=st.sampled_from(["run", "limit", "stationary", "doeblin"]),
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
            assert re.search(r"key '\w+'", err.getvalue()) and not os.path.exists(out)
        else:
            with open(os.path.join(out, "MANIFEST"), encoding="utf-8") as fh:
                manifest = fh.read()
            status = {0: "complete", 1: "incomplete"}[code]
            assert f"status = {status}\n" in manifest
