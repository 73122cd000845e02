"""One rule per kind of field.

Every integer argument or field of the public API is a Python or numpy
integer, never a float truncated to one or a string parsed as one; every
positive number is a real number; and the four containers check their
intervals and ``meta`` alike.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from pyrafuse import (
    AttributeKind,
    AttributeMap,
    AttributeStack,
    Fault,
    FusionMethod,
    FusionSpec,
    Grid2,
    ParameterError,
    PlaneEvent,
    SegyImportOptions,
    SeismicSection,
    SeismicVolume,
    SynthSpec,
    attribute_stack,
    build_pyramid,
    default_weights,
    derivative_noise_demo,
    expand_to,
    fuse,
    gaussian_samples,
    make_kernel,
    multiscale_attribute,
    phase_dip,
    ricker,
)

_RNG = np.random.default_rng(29)
SECTION = SeismicSection(Grid2(_RNG.standard_normal((64, 32))), dt=0.004, dx=25.0)
VOLUME = SeismicVolume(_RNG.standard_normal((32, 12, 12)), dt=0.004, dx=25.0, dy=25.0)
GRID = Grid2(np.ones((8, 6)))
STACK = AttributeStack.from_maps([AttributeMap(GRID, AttributeKind.PHASE_DIP)] * 4)
EVENTS = (PlaneEvent(t0=4.0, sx=0.2),)

# (the name a refusal gives, a call that passes ``v`` for that integer)
INTEGERS = {
    "attribute_stack-scales": ("scales", lambda v: attribute_stack(SECTION, AttributeKind.PHASE_DIP, v)),
    "build_pyramid-scales": ("scales", lambda v: build_pyramid(GRID, v)),
    "multiscale_attribute-scales": (
        "scales", lambda v: multiscale_attribute(SECTION, AttributeKind.PHASE_DIP, scales=v)),
    "default_weights-scales": ("scales", lambda v: default_weights(v)),
    "make_kernel-radius": ("radius", lambda v: make_kernel(1.0, v)),
    "gaussian_samples-radius": ("radius", lambda v: gaussian_samples(1.0, v)),
    "time_slice": ("time index", lambda v: VOLUME.time_slice(v)),
    "inline_section": ("inline index", lambda v: VOLUME.inline_section(v)),
    "crossline_section": ("crossline index", lambda v: VOLUME.crossline_section(v)),
    "attribute_stack-time_index": (
        "time index", lambda v: attribute_stack(VOLUME, AttributeKind.DIP_ANGLE, 2, time_index=v)),
    "AttributeMap-scale": ("scale", lambda v: AttributeMap(GRID, AttributeKind.PHASE_DIP, scale=v)),
    "FusionSpec-rank": ("rank", lambda v: fuse(STACK, FusionSpec(FusionMethod.RANK, rank=v))),
    "FusionSpec.rank_of": ("rank", lambda v: fuse(STACK, FusionSpec.rank_of(v))),
    "ricker-half_length": ("half_length", lambda v: ricker(25.0, 0.004, half_length=v)),
    "SynthSpec-nt": ("nt", lambda v: SynthSpec(nt=v, nx=8, events=EVENTS)),
    "SynthSpec-nx": ("nx", lambda v: SynthSpec(nt=16, nx=v, events=EVENTS)),
    "SynthSpec-ny": ("ny", lambda v: SynthSpec(nt=16, nx=8, ny=v, events=EVENTS)),
    "SynthSpec-seed": ("seed", lambda v: SynthSpec(nt=16, nx=8, events=EVENTS, seed=v)),
    "Fault-trace": ("fault trace", lambda v: Fault(trace=v, throw=1)),
    "Fault-throw": ("fault throw", lambda v: Fault(trace=1, throw=v)),
    "derivative_noise_demo-trace_len": ("trace_len", lambda v: derivative_noise_demo(v)),
    "derivative_noise_demo-seed": ("seed", lambda v: derivative_noise_demo(128, seed=v)),
    "expand_to-rows": ("rows", lambda v: expand_to(GRID, v, 40)),
    "expand_to-cols": ("cols", lambda v: expand_to(GRID, 40, v)),
    "SegyImportOptions-max_traces": ("max_traces", lambda v: SegyImportOptions(max_traces=v)),
    "SegyImportOptions-format_code": ("format_code", lambda v: SegyImportOptions(format_code=v)),
}


@pytest.mark.parametrize("value", [2.5, "2", 2.0], ids=["float", "string", "integral-float"])
@pytest.mark.parametrize("entry", sorted(INTEGERS))
def test_an_integer_is_never_truncated_or_parsed(entry, value):
    name, call = INTEGERS[entry]
    with pytest.raises(ParameterError, match=re.escape(f"{name} must be an integer, got {value!r}")):
        call(value)


def test_numpy_integers_and_bools_are_stored_as_ints():
    spec = SynthSpec(nt=np.int64(16), nx=np.int32(8), ny=np.uint8(4), events=EVENTS, seed=np.int16(3))
    assert [type(v) for v in (spec.nt, spec.nx, spec.ny, spec.seed)] == [int] * 4
    assert type(AttributeMap(GRID, AttributeKind.PHASE_DIP, scale=np.int64(2)).scale) is int
    assert type(SegyImportOptions(max_traces=np.int64(3)).max_traces) is int
    assert Fault(trace=True, throw=np.int8(-2)) == Fault(trace=1, throw=-2)
    assert type(Fault(trace=True, throw=1).trace) is int
    fused = fuse(STACK, FusionSpec.rank_of(np.int64(1)))
    assert fused.meta["rank"] == "1"
    assert fuse(STACK, FusionSpec.rank_of(True)).meta["rank"] == "1"


@pytest.mark.parametrize("value", [None, "x", "0.004"], ids=["none", "word", "numeric-string"])
@pytest.mark.parametrize(
    "name, call",
    [
        ("sigma", lambda v: make_kernel(v)),
        ("p_max", lambda v: phase_dip(SECTION, p_max=v)),
        ("eps_freq", lambda v: phase_dip(SECTION, eps_freq=v)),
        ("velocity", lambda v: attribute_stack(VOLUME, AttributeKind.DIP_ANGLE, 1, time_index=3, velocity=v)),
        ("dt", lambda v: SeismicSection(GRID, dt=v, dx=1)),
        ("dy", lambda v: SeismicVolume(np.ones((4, 3, 3)), dt=1, dx=1, dy=v)),
        ("dx", lambda v: AttributeMap(GRID, AttributeKind.PHASE_DIP, dx=v)),
        ("dx", lambda v: SegyImportOptions(dx=v)),
        ("dt", lambda v: SynthSpec(nt=16, nx=8, events=EVENTS, dt=v)),
        ("dt", lambda v: ricker(25.0, v, 3)),
    ],
    ids=["make_kernel", "phase_dip-p_max", "phase_dip-eps_freq", "attribute_stack-velocity",
         "SeismicSection", "SeismicVolume", "AttributeMap", "SegyImportOptions", "SynthSpec", "ricker"],
)
def test_a_positive_number_must_be_a_real_number(name, call, value):
    with pytest.raises(ParameterError) as err:
        call(value)
    assert str(err.value) == f"{name} must be a positive finite number, got {value!r}"


def test_positive_numbers_are_stored_as_floats():
    options = SegyImportOptions(dx=25, dy=np.float32(12.5))
    assert (options.dx, options.dy) == (25.0, 12.5)
    assert type(options.dx) is type(options.dy) is float
    spec = SynthSpec(nt=16, nx=8, events=EVENTS, dt=np.float64(0.004), dx=10, dy=np.int64(5), velocity=1500)
    assert [type(v) for v in (spec.dt, spec.dx, spec.dy, spec.velocity)] == [float] * 4
    section = SeismicSection(GRID, dt=1, dx=np.float32(0.5))
    assert (type(section.dt), type(section.dx)) == (float, float)


@pytest.mark.parametrize(
    "make",
    [
        lambda meta: SeismicSection(GRID, dt=1, dx=1, meta=meta),
        lambda meta: SeismicVolume(np.ones((4, 3, 3)), dt=1, dx=1, dy=1, meta=meta),
        lambda meta: AttributeMap(GRID, AttributeKind.PHASE_DIP, meta=meta),
        lambda meta: AttributeStack(np.ones((1, 8, 6)), np.ones((1, 8, 6), bool),
                                    AttributeKind.PHASE_DIP, 1, 1, None, meta),
    ],
    ids=["section", "volume", "map", "stack"],
)
@pytest.mark.parametrize("meta", [None, 3, "ab"], ids=["none", "number", "string"])
def test_every_container_refuses_a_meta_that_is_not_a_mapping(make, meta):
    with pytest.raises(ParameterError) as err:
        make(meta)
    assert str(err.value) == f"meta must be a mapping, got {meta!r}"


@pytest.mark.parametrize(
    "name, make",
    [
        ("grid", lambda a: SeismicSection(a, dt=1, dx=1)),
        ("grid", lambda a: AttributeMap(a, AttributeKind.PHASE_DIP)),
        ("quality", lambda a: AttributeMap(GRID, AttributeKind.PHASE_DIP, quality=a)),
    ],
    ids=["section-grid", "map-grid", "map-quality"],
)
def test_grid_fields_must_be_grid2(name, make):
    with pytest.raises(ParameterError) as err:
        make(np.ones((8, 6)))
    assert str(err.value) == f"{name} must be a Grid2, got ndarray"
