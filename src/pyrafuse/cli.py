"""Command-line interface.

Exit codes: 0 success, 1 usage/parameter error, 2 data or file-format
error, or a request too large for memory. Logs go to stderr only; data
goes to files (or stdout for `info`). Identical invocations produce
byte-identical outputs.

Each command reads grid files through one typed reader: a container the
command cannot use (`fuse` takes attribute maps only) exits 2 naming the file.
The library calls that work on a command's input run under
`errors._naming(<input path>)`, so their refusals name that file too; calls
that check flags alone (`make_kernel`, the fusion flags, `export_pgm`, which
checks the clip flags first) run outside it.

On a section, `pipeline` is the exact composition of its stage
subcommands: it rounds every stage boundary (pyramid level, per-level dip,
expanded map) to float32, the precision a stage has after a trip through a
grid file, so running `pyramid`, `attr`, `expand` and `fuse` by hand
reproduces it bit for bit. Volume attributes have no stage route, because
`pyramid` takes sections only: their `pipeline` output is
`multiscale_attribute`, rounded to float32 once, when it is written.
`pipeline` runs `multiscale_attribute`'s composer, so its errors name their
stage, and an attribute that does not suit the input gets the library's
refusal.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import replace

import numpy as np

from .attributes import (
    EPS_FREQ_DEFAULT,
    P_MAX_DEFAULT,
    VELOCITY_DEFAULT,
    AttributeStack,
    attribute_stack,
)
from .errors import ConfigError, ParameterError, PyrafuseError, ShapeError, _naming
from .fusion import FusionMethod, FusionSpec, _check_fusion, _multiscale, fuse
from .grid import AttributeKind, AttributeMap, SeismicSection, SeismicVolume
from .gridio import describe_grid, export_pgm, read_grid, write_grid
from .pyramid import _kernel_meta, build_pyramid, expand_to, make_kernel
from .segy import SegyImportOptions, read_segy
from .synth import make_synthetic, parse_synth_spec

log = logging.getLogger("pyrafuse")

_ATTR_FLAGS = {
    "dip": AttributeKind.PHASE_DIP,
    "dip-angle": AttributeKind.DIP_ANGLE,
    "kpos": AttributeKind.CURV_POS,
    "kneg": AttributeKind.CURV_NEG,
}


class UsageError(Exception):
    """Bad flags or arguments; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract wants 1
        raise UsageError(message)


def _f32(values: np.ndarray) -> np.ndarray:
    """Round to the precision a stage boundary has after a file trip."""
    return values.astype(np.float32).astype(np.float64)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not (np.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"expected a positive finite number, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pyrafuse", description=__doc__.splitlines()[0] if __doc__ else None)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    sub.required = True

    def add_kernel_flags(p):
        p.add_argument("--sigma", type=_positive_float, default=1.0,
                       help="kernel standard deviation in samples (default %(default)s)")
        p.add_argument("--radius", type=_positive_int, default=2,
                       help="kernel half-width r, support 2r+1 (default %(default)s)")

    def add_attr_flags(p):
        p.add_argument("--attr", choices=sorted(_ATTR_FLAGS), default="dip",
                       help="attribute to compute (default %(default)s)")
        p.add_argument("--velocity", type=_positive_float, default=VELOCITY_DEFAULT,
                       help="time-to-depth velocity, m/s (default %(default)s)")
        p.add_argument("--pmax", type=_positive_float, default=P_MAX_DEFAULT,
                       help="dip clamp, samples/trace (default %(default)s)")
        p.add_argument("--eps-freq", type=_positive_float, default=EPS_FREQ_DEFAULT,
                       help="temporal phase-derivative floor, rad/sample (default %(default)s)")
        p.add_argument("--time-index", type=int, default=None,
                       help="time slice for volume attributes")

    def add_fusion_flags(p):
        p.add_argument("--fuse", choices=sorted(m.value for m in FusionMethod),
                       default="median", help="fusion rule (default %(default)s)")
        p.add_argument("--weights", default=None,
                       help="comma-separated weights for --fuse wmean (default 2^-i at scale i)")
        p.add_argument("--rank", type=int, default=None,
                       help="order statistic for --fuse rank (0 = smallest)")

    p = sub.add_parser("synth", help="generate a synthetic from a spec file")
    p.add_argument("spec", help="plain-text key=value spec file")
    p.add_argument("--out", required=True, help="output grid file")
    p.add_argument("--truth-prefix", default=None,
                   help="also write ground-truth maps with this path prefix")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("pyramid", help="write every pyramid level of a section")
    p.add_argument("grid", help="input section grid file")
    p.add_argument("--scales", type=_positive_int, default=4)
    add_kernel_flags(p)
    p.add_argument("--out-prefix", required=True, help="levels go to <prefix>_level<i>.pfg")
    p.set_defaults(func=_cmd_pyramid)

    p = sub.add_parser("attr", help="single-scale attribute of a grid file")
    p.add_argument("grid")
    add_attr_flags(p)
    p.add_argument("--out", required=True)
    p.add_argument("--quality-out", default=None, help="also write the 0/1 trust mask")
    p.set_defaults(func=_cmd_attr)

    p = sub.add_parser("expand", help="bilinear-expand a grid file to target dims")
    p.add_argument("grid")
    p.add_argument("--rows", type=_positive_int, required=True)
    p.add_argument("--cols", type=_positive_int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("fuse", help="fuse same-kind attribute map files")
    p.add_argument("maps", nargs="+", help="attribute map files, finest scale first")
    add_fusion_flags(p)
    p.add_argument("--quality", action="append", default=None,
                   help="trust-mask file per input map (repeatable, same order)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fuse)

    p = sub.add_parser("pipeline", help="pyramid + per-scale attribute + expand + fuse")
    p.add_argument("grid")
    p.add_argument("--scales", type=_positive_int, default=4)
    add_kernel_flags(p)
    add_attr_flags(p)
    add_fusion_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("segy-import", help="import a SEG-Y file (IBM or IEEE samples)")
    p.add_argument("segy")
    p.add_argument("--out", required=True)
    p.add_argument("--format-code", type=int, choices=(1, 5), default=None,
                   help="override the binary-header sample format")
    p.add_argument("--byte-order", choices=("big", "little"), default="big")
    p.add_argument("--max-traces", type=_positive_int, default=None)
    p.add_argument("--dx", type=_positive_float, default=25.0)
    p.add_argument("--dy", type=_positive_float, default=25.0)
    p.set_defaults(func=_cmd_segy_import)

    p = sub.add_parser("export-pgm", help="render a grid file to 8-bit PGM")
    p.add_argument("grid")
    p.add_argument("--out", required=True)
    p.add_argument("--clip-lo", type=float, default=2.0)
    p.add_argument("--clip-hi", type=float, default=98.0)
    p.add_argument("--time-index", type=int, default=None,
                   help="slice a volume at this time sample first")
    p.set_defaults(func=_cmd_export_pgm)

    p = sub.add_parser("info", help="print a grid file header")
    p.add_argument("grid")
    p.set_defaults(func=_cmd_info)

    return parser


def _fusion_spec(args, scales: int) -> FusionSpec:
    """The fusion flags as a spec for ``scales`` maps, checked before any
    input is read: a flag the rule does not use is refused."""
    method = FusionMethod(args.fuse)
    weights = None
    if args.weights is not None:
        try:
            weights = tuple(float(w) for w in args.weights.split(","))
        except ValueError:
            raise UsageError(f"--weights must be comma-separated numbers, got {args.weights!r}") from None
    if method is FusionMethod.RANK and args.rank is None:
        raise UsageError("--fuse rank needs --rank")
    with _naming("fusion stage"):
        return _check_fusion(FusionSpec(method, weights, args.rank), scales)


def _read(path: str, *types: type):
    """The grid in ``path``; a ConfigError unless it is one of ``types``."""
    obj = read_grid(path)
    if not isinstance(obj, types):
        takes = " or ".join(t.__name__ for t in types)
        raise ConfigError(f"{path}: unsupported input type {type(obj).__name__}; "
                          f"this command takes {takes}")
    return obj


def _cmd_synth(args) -> None:
    with open(args.spec, "rb") as handle:
        blob = handle.read()
    with _naming(args.spec):
        try:
            text = blob.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParameterError(f"not UTF-8 text at byte offset {exc.start}") from None
        spec = parse_synth_spec(text)
        data, truth = make_synthetic(spec)
    write_grid(args.out, data)
    log.info("wrote %s", args.out)
    if args.truth_prefix:
        dy = None if spec.ny is None else spec.dy
        truth_maps = {
            "dip_p": (truth.dip_p, AttributeKind.PHASE_DIP),
            "dip_q": (truth.dip_q, AttributeKind.PHASE_DIP),
            "k_pos": (truth.k_pos, AttributeKind.CURV_POS),
            "k_neg": (truth.k_neg, AttributeKind.CURV_NEG),
        }
        for name, (grid, kind) in truth_maps.items():
            if grid is None:  # a section has only dip_p
                continue
            target = f"{args.truth_prefix}_{name}.pfg"
            write_grid(
                target,
                AttributeMap(grid, kind, dt=spec.dt, dx=spec.dx, dy=dy,
                             meta={"truth": "analytic"}),
            )
            log.info("wrote %s", target)


def _cmd_pyramid(args) -> None:
    section = _read(args.grid, SeismicSection)
    kernel = make_kernel(args.sigma, args.radius)
    reduced = _kernel_meta(kernel)
    with _naming(args.grid):
        levels = build_pyramid(section.grid, args.scales, kernel)
    for i, level in enumerate(levels):
        target = f"{args.out_prefix}_level{i}.pfg"
        # level 0 is the input, never reduced, so it records no kernel
        write_grid(
            target,
            SeismicSection(level, dt=section.dt * 2**i, dx=section.dx * 2**i,
                           label=section.label,
                           meta={**section.meta, "level": str(i), **(reduced if i else {})}),
        )
        log.info("wrote %s (%dx%d)", target, level.rows, level.cols)


def _attribute_kind(args, obj) -> AttributeKind:
    """The ``--attr`` kind; the library refuses a kind that ``obj`` does not suit."""
    kind = _ATTR_FLAGS[args.attr]
    if (isinstance(obj, SeismicVolume) and kind is not AttributeKind.PHASE_DIP
            and args.time_index is None):
        raise UsageError(f"--attr {args.attr} needs --time-index")
    return kind


def _cmd_attr(args) -> None:
    obj = _read(args.grid, SeismicSection, SeismicVolume)
    kind = _attribute_kind(args, obj)
    with _naming(args.grid):
        m = attribute_stack(
            obj, kind, 1, time_index=args.time_index, velocity=args.velocity,
            p_max=args.pmax, eps_freq=args.eps_freq,
        ).maps[0]
    write_grid(args.out, m)
    log.info("wrote %s", args.out)
    if args.quality_out:
        write_grid(
            args.quality_out,
            SeismicSection(m.quality, dt=m.dt, dx=m.dx, label="quality",
                           meta={"role": "quality"}),
        )
        log.info("wrote %s", args.quality_out)


def _cmd_expand(args) -> None:
    obj = _read(args.grid, SeismicSection, AttributeMap)
    with _naming(args.grid):
        expanded = replace(obj, grid=expand_to(obj.grid, args.rows, args.cols))
    write_grid(args.out, expanded)
    log.info("wrote %s (%dx%d)", args.out, args.rows, args.cols)


def _cmd_fuse(args) -> None:
    quality = args.quality or []
    if quality and len(quality) != len(args.maps):
        raise UsageError(f"got {len(quality)} --quality files for {len(args.maps)} maps")
    spec = _fusion_spec(args, len(args.maps))
    maps = [_read(p, AttributeMap) for p in args.maps]
    masks = [_read(p, SeismicSection, AttributeMap).grid for p in quality]
    rows, cols = maps[0].grid.shape
    for path, grid in zip(args.maps + quality, [m.grid for m in maps] + masks):
        if grid.shape != (rows, cols):
            raise ShapeError(f"{path}: {grid.rows}x{grid.cols} grid does not match "
                             f"the {rows}x{cols} of {args.maps[0]}")
    kind = maps[0].kind
    for path, m in zip(args.maps, maps):
        if m.kind is not kind:
            raise ShapeError(f"{path}: {m.kind.value} map does not match "
                             f"the {kind.value} of {args.maps[0]}")
    if masks:
        maps = [replace(m, quality=q) for m, q in zip(maps, masks)]
    fused = fuse(AttributeStack.from_maps(maps), spec)
    write_grid(args.out, fused)
    log.info("wrote %s", args.out)


def _cmd_pipeline(args) -> None:
    spec = _fusion_spec(args, args.scales)  # a bad --fuse rank is a usage error first
    obj = _read(args.grid, SeismicSection, SeismicVolume)
    kernel = make_kernel(args.sigma, args.radius)
    with _naming(args.grid):
        fused = _multiscale(
            obj, _attribute_kind(args, obj), args.scales, kernel, spec, boundary=_f32,
            time_index=args.time_index, velocity=args.velocity,
            p_max=args.pmax, eps_freq=args.eps_freq,
        )
    write_grid(args.out, fused)
    log.info("wrote %s", args.out)


def _cmd_segy_import(args) -> None:
    options = SegyImportOptions(
        format_code=args.format_code,
        big_endian=args.byte_order == "big",
        max_traces=args.max_traces,
        dx=args.dx,
        dy=args.dy,
    )
    data = read_segy(args.segy, options)
    write_grid(args.out, data)
    log.info("wrote %s", args.out)


def _cmd_export_pgm(args) -> None:
    obj = _read(args.grid, SeismicSection, SeismicVolume, AttributeMap)
    if isinstance(obj, SeismicVolume):
        if args.time_index is None:
            raise UsageError("a volume needs --time-index to pick a slice")
        with _naming(args.grid):
            grid = obj.time_slice(args.time_index)
    else:
        grid = obj.grid
    export_pgm(grid, args.out, clip_lo=args.clip_lo, clip_hi=args.clip_hi)
    log.info("wrote %s", args.out)


def _cmd_info(args) -> None:
    for key, value in describe_grid(args.grid):
        print(f"{key}={value}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"pyrafuse: {exc}", file=sys.stderr)
        return 1
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s")
    try:
        args.func(args)
        return 0
    except UsageError as exc:
        print(f"pyrafuse: {exc}", file=sys.stderr)
        return 1
    except ParameterError as exc:
        log.error("%s", exc)
        return 1
    except PyrafuseError as exc:
        log.error("%s", exc)
        return 2
    except OSError as exc:
        log.error("%s", exc)
        return 2
    except MemoryError as exc:
        log.error("%s: out of memory: %s", args.command, exc)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
