"""Command line interface.

Five subcommands drive the pipeline end to end:

    catalog      list the builtin complexes and extensions
    cohomology   invariant factors (and a basis) of one cohomology space
    obstruction  obstruction class of a cocycle through an extension
    whitney      fused sums, additivity, and the doubled-cocycle cancellation
    count        number of inequivalent lifts of the doubled cocycle

Every command produces a RunReport: provenance of the inputs, a payload
of results, a dict of named re-checked theorems, and the elapsed time.
The human format and the machine format render the same report; the
machine format is JSON and parses back to an equal report.

Exit codes: 0 when every re-checked theorem in the run passed, 1 when
one failed, 2 when the inputs could not be read, 3 when the inputs were
readable but mathematically invalid or inconsistent.

The theorem re-checks duplicate, with plain group arithmetic local to
this module, guarantees the library already enforces: the per-triangle
defect projects to the identity, the defect is a 2-cocycle, the class
does not move when the section changes, returned lifts satisfy the
lifted triangle condition edgewise, and fused obstructions add.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from dataclasses import dataclass
from typing import Optional, Sequence

from .coefgroup import AbelianGroup, fusion_hom_mod2, parse_group
from .cochain import Cochain, classes_equal, cohomology, is_cocycle
from .errors import (
    BaseMismatchError,
    CapExceededError,
    ExtensionError,
    InternalCheckError,
    KernelViolationError,
    NotAGroupError,
)
from .fingroup import (
    BUILTIN_EXTENSIONS,
    CentralExtension,
    Section,
    builtin_extension,
    canonical_section,
    find_splitting,
    random_section,
    read_extension,
    same_group,
)
from .nerve import (
    BUILTIN_COMPLEXES,
    SimplicialComplex,
    builtin_complex,
    complex_digest,
    euler_characteristic,
    read_complex,
)
from .obstruct import (
    DEFAULT_BRUTE_CAP,
    BundleCocycle,
    Lift,
    ObstructionResult,
    brute_force_lift,
    identity_cocycle,
    mobius_cocycle,
    obstruction_class,
    obstruction_cocycle,
    random_cocycle,
    read_cocycle,
    validate_cocycle,
)
from .whitney import (
    additivity_check,
    hyperbolic_obstruction,
    hyperbolic_structure_count,
    whitney_obstruction,
    z2_h1_order_from_ranks,
)

__all__ = ["RunReport", "main", "EXIT_OK", "EXIT_CHECK_FAILED", "EXIT_PARSE", "EXIT_SEMANTIC"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_SEMANTIC = 3

CAP_ENV_VAR = "CECHLIFT_CAP"

_DOMAIN_ERRORS = (
    NotAGroupError,
    ExtensionError,
    KernelViolationError,
    BaseMismatchError,
    CapExceededError,
    InternalCheckError,
)


class CliInputError(Exception):
    """Input that could not be read: unknown names, malformed files."""


@dataclass(frozen=True)
class RunReport:
    """One command's inputs, results, theorem verdicts, and timing.

    The payload holds only JSON-native values (dicts with string keys,
    lists, strings, numbers, booleans, None) so that the machine format
    round-trips to an equal report.
    """

    command: str
    inputs: dict
    payload: dict
    checks: dict
    elapsed: float

    def ok(self) -> bool:
        return all(self.checks.values())

    def to_json(self) -> str:
        return json.dumps(
            {
                "command": self.command,
                "inputs": self.inputs,
                "payload": self.payload,
                "checks": self.checks,
                "elapsed": self.elapsed,
            },
            indent=2,
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        d = json.loads(text)
        return cls(
            command=d["command"],
            inputs=d["inputs"],
            payload=d["payload"],
            checks=d["checks"],
            elapsed=d["elapsed"],
        )

    def render_human(self) -> str:
        lines = [f"command: {self.command}"]
        for key in sorted(self.inputs):
            lines.append(f"input {key}: {self.inputs[key]}")
        _render_value(lines, "", self.payload)
        for key in sorted(self.checks):
            lines.append(f"check {key}: {'PASS' if self.checks[key] else 'FAIL'}")
        lines.append(f"elapsed: {self.elapsed:.3f}s")
        return "\n".join(lines)


def _render_value(lines: list, prefix: str, value) -> None:
    """Flatten a payload into one indented line per scalar."""
    if isinstance(value, dict):
        for key in value:
            _render_value(lines, f"{prefix}{key}.", value[key])
    elif isinstance(value, list) and value and isinstance(value[0], (dict, list)):
        for i, item in enumerate(value):
            _render_value(lines, f"{prefix}{i}.", item)
    else:
        if isinstance(value, list):
            text = " ".join(str(v) for v in value)
        else:
            text = str(value)
        lines.append(f"{prefix.rstrip('.')}: {text}")


# ------------------------------------------------------------ input loading --


def _read_input(what: str, read, *args, **kwargs):
    """read(*args, **kwargs); a domain error or a MemoryError passes, any
    other error becomes a CliInputError that starts with `what`."""
    try:
        return read(*args, **kwargs)
    except (*_DOMAIN_ERRORS, MemoryError):
        raise
    except Exception as exc:
        raise CliInputError(f"{what}: {exc}") from exc


def _load_complex(args) -> tuple[SimplicialComplex, str]:
    if args.builtin is not None:
        return builtin_complex(args.builtin), f"builtin:{args.builtin}"
    x = _read_input(f"cannot read complex file {args.complex}", read_complex, args.complex)
    return x, f"file:{args.complex}"


def _load_extension(spec: str) -> tuple[CentralExtension, str]:
    if spec in BUILTIN_EXTENSIONS:
        return builtin_extension(spec), f"builtin:{spec}"
    if not os.path.exists(spec):
        raise CliInputError(
            f"unknown extension {spec!r}: not one of {', '.join(BUILTIN_EXTENSIONS)} and not a file"
        )
    return _read_input(f"cannot read extension file {spec}", read_extension, spec), f"file:{spec}"


def _load_cocycle(
    spec: str, complex_: SimplicialComplex, ext: CentralExtension, seed: int
) -> tuple[BundleCocycle, str]:
    if spec == "identity":
        return identity_cocycle(complex_, ext.base), "identity"
    if spec == "mobius":
        s = mobius_cocycle()
        if complex_digest(complex_) != complex_digest(s.base):
            raise BaseMismatchError("the mobius cocycle lives on the builtin rp2_6 complex")
        if not same_group(ext.base, s.group):
            raise BaseMismatchError("the mobius cocycle needs an extension with base Z2")
        return BundleCocycle(complex_, ext.base, s.table), "mobius"
    if spec == "random":
        return random_cocycle(complex_, ext.base, seed), f"random:seed={seed}"
    if not os.path.exists(spec):
        raise CliInputError(
            f"unknown cocycle {spec!r}: not identity, mobius, random, or a file"
        )
    s = _read_input(f"cannot read cocycle file {spec}", read_cocycle, spec, complex_=complex_, group=ext.base)
    return s, f"file:{spec}"


def _resolve_cap(args) -> int:
    if getattr(args, "cap", None) is not None:
        return args.cap
    env = os.environ.get(CAP_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise CliInputError(f"{CAP_ENV_VAR} must be an integer, got {env!r}") from exc
    return DEFAULT_BRUTE_CAP


# --------------------------------------------------------- theorem re-checks --


def _recheck_defect(s: BundleCocycle, ext: CentralExtension, section: Section, q: Cochain) -> bool:
    """Recompute the per-triangle defect with raw group operations and compare
    it against the cochain the library returned."""
    total = ext.total
    for (a, b, l), claimed in zip(s.base.triangles(), q.values):
        lifted = total.mul(
            total.mul(section(s.value(b, l)), total.inv(section(s.value(a, l)))),
            section(s.value(a, b)),
        )
        if ext.projection(lifted) != ext.base.identity:
            return False
        if ext.kernel_element_of(lifted) != claimed:
            return False
    return True


def _recheck_lift(lift: Optional[Lift]) -> bool:
    """Walk every edge and triangle of a lift with raw group operations."""
    if lift is None:
        return False
    ext = lift.extension
    s = lift.cocycle
    for (a, b), v in zip(s.base.edges(), lift.values):
        if ext.projection(v) != s.value(a, b):
            return False
    total = ext.total
    for a, b, l in s.base.triangles():
        if total.mul(lift.value(a, b), lift.value(b, l)) != lift.value(a, l):
            return False
    return True


def _section_swap_check(
    s: BundleCocycle, ext: CentralExtension, q: Cochain, seed: int
) -> bool:
    """The class must not move when the section does."""
    other = random_section(ext, random.Random(seed + 0x5EC71017))
    q2 = obstruction_cocycle(s, ext, other)
    return classes_equal(q, q2)


# ------------------------------------------------------------- JSON shaping --


def _cochain_table(base: SimplicialComplex, q: Cochain) -> list:
    return [
        [a, b, l, list(v)] for (a, b, l), v in zip(base.triangles(), q.values)
    ]


def _lift_table(lift: Lift) -> list:
    total = lift.extension.total
    return [
        [a, b, total.name_of(v)]
        for (a, b), v in zip(lift.cocycle.base.edges(), lift.values)
    ]


def _obstruction_payload(base: SimplicialComplex, result: ObstructionResult) -> dict:
    return {
        "verdict": "TRIVIAL" if result.trivial else "NONTRIVIAL",
        "trivial": result.trivial,
        "cochain": _cochain_table(base, result.cochain),
        "lift": _lift_table(result.lift) if result.lift is not None else None,
    }


# ----------------------------------------------------------------- commands --


def cmd_catalog(args) -> RunReport:
    t0 = time.perf_counter()
    complexes = []
    for name in BUILTIN_COMPLEXES:
        x = builtin_complex(name)
        complexes.append(
            {
                "name": name,
                "vertices": x.dim_count(0),
                "edges": x.dim_count(1),
                "triangles": x.dim_count(2),
                "euler_characteristic": euler_characteristic(x),
                "digest": complex_digest(x),
            }
        )
    extensions = []
    for name in BUILTIN_EXTENSIONS:
        ext = builtin_extension(name)
        extensions.append(
            {
                "name": name,
                "total_order": ext.total.order,
                "base_order": ext.base.order,
                "kernel": ext.kernel.format(),
                "kernel_order": ext.kernel.order,
                "splits": find_splitting(ext) is not None,
            }
        )
    checks = {
        "catalog_has_five_complexes": len(complexes) == 5,
        "catalog_has_four_extensions": len(extensions) == 4,
    }
    return RunReport(
        command="catalog",
        inputs={},
        payload={"complexes": complexes, "extensions": extensions},
        checks=checks,
        elapsed=time.perf_counter() - t0,
    )


def cmd_cohomology(args) -> RunReport:
    t0 = time.perf_counter()
    x, cdesc = _load_complex(args)
    coeffs = _read_input("-k/--coefficients", parse_group, args.coefficients)
    space = cohomology(x, args.degree, coeffs)
    payload = {
        "degree": args.degree,
        "coefficients": coeffs.format(),
        "invariant_factors": list(space.invariant_factors),
        "order": space.order,
        "dimension": space.dimension,
    }
    checks = {}
    if space.dimension is not None:
        checks["order_matches_dimension"] = space.order == space.prime**space.dimension
    if args.basis:
        if space.basis is None:
            raise ValueError(
                "a basis is only available over elementary abelian coefficients "
                f"of a single prime, not {coeffs.format()}"
            )
        payload["basis"] = [
            [list(v) for v in c.values] for c in space.basis
        ]
        checks["basis_representatives_are_cocycles"] = all(
            is_cocycle(c) for c in space.basis
        )
        checks["basis_size_matches_dimension"] = len(space.basis) == space.dimension
    return RunReport(
        command="cohomology",
        inputs={"complex": f"{cdesc}#{complex_digest(x)}"},
        payload=payload,
        checks=checks,
        elapsed=time.perf_counter() - t0,
    )


def cmd_obstruction(args) -> RunReport:
    t0 = time.perf_counter()
    x, cdesc = _load_complex(args)
    ext, edesc = _load_extension(args.extension)
    s, sdesc = _load_cocycle(args.cocycle, x, ext, args.seed)
    cap = _resolve_cap(args)

    ok, bad = validate_cocycle(s)
    if not ok:
        raise ValueError(f"input cocycle fails the triangle condition on {bad}")
    section = canonical_section(ext)
    result = obstruction_class(s, ext, section)
    checks = {
        "defect_projects_to_identity_and_matches": _recheck_defect(s, ext, section, result.cochain),
        "defect_is_cocycle": is_cocycle(result.cochain),
        "class_independent_of_section": _section_swap_check(s, ext, result.cochain, args.seed),
        "lift_verified_when_trivial": _recheck_lift(result.lift) if result.trivial else True,
    }
    payload = {"obstruction": _obstruction_payload(x, result)}
    if args.brute_force:
        found = brute_force_lift(s, ext, cap=cap)
        payload["brute_force"] = "FOUND" if found is not None else "NONE"
        checks["brute_force_agrees_with_class"] = (found is not None) == result.trivial
        if found is not None:
            checks["brute_force_lift_verified"] = _recheck_lift(found)
    return RunReport(
        command="obstruction",
        inputs={
            "complex": f"{cdesc}#{complex_digest(x)}",
            "extension": edesc,
            "cocycle": sdesc,
        },
        payload=payload,
        checks=checks,
        elapsed=time.perf_counter() - t0,
    )


def cmd_whitney(args) -> RunReport:
    t0 = time.perf_counter()
    x, cdesc = _load_complex(args)
    specs = args.cocycle
    ext_specs = args.extension
    if args.hyperbolic:
        if len(specs) != 1 or len(ext_specs) != 1:
            raise CliInputError("--hyperbolic takes exactly one --cocycle and one --extension")
        return _whitney_hyperbolic(args, x, cdesc, specs[0], ext_specs[0], t0)
    if len(specs) != len(ext_specs):
        raise CliInputError(
            f"need one --extension per --cocycle, got {len(specs)} and {len(ext_specs)}"
        )
    exts, edescs = [], []
    for espec in ext_specs:
        ext, edesc = _load_extension(espec)
        exts.append(ext)
        edescs.append(edesc)
    cocycles, sdescs = [], []
    for i, spec in enumerate(specs):
        s, sdesc = _load_cocycle(spec, x, exts[i], args.seed + i)
        cocycles.append(s)
        sdescs.append(sdesc)
    fusion = fusion_hom_mod2(len(cocycles))

    component_results = [obstruction_class(s, e) for s, e in zip(cocycles, exts)]
    fused_result = whitney_obstruction(cocycles, exts, fusion)
    induced = additivity_check(cocycles, exts, fusion)
    rng = random.Random(args.seed + 0xF0537)
    swapped = additivity_check(
        cocycles, exts, fusion, sections=[random_section(e, rng) for e in exts]
    )
    checks = {
        "additivity_cochain_with_induced_section": induced.cochain_equal,
        "additivity_class_with_induced_section": induced.class_equal,
        "additivity_class_with_random_sections": swapped.class_equal,
        "fused_lift_verified_when_trivial": (
            _recheck_lift(fused_result.lift) if fused_result.trivial else True
        ),
    }
    payload = {
        "components": [
            {"cocycle": sdescs[i], "extension": edescs[i], "trivial": component_results[i].trivial}
            for i in range(len(cocycles))
        ],
        "fusion": f"mod2:{len(cocycles)}",
        "fused": _obstruction_payload(x, fused_result),
        "additivity": {
            "cochain_equal": induced.cochain_equal,
            "class_equal": induced.class_equal,
            "mismatched_triangles": len(induced.mismatched_triangles),
        },
    }
    return RunReport(
        command="whitney",
        inputs={"complex": f"{cdesc}#{complex_digest(x)}"},
        payload=payload,
        checks=checks,
        elapsed=time.perf_counter() - t0,
    )


def _whitney_hyperbolic(args, x, cdesc, spec, ext_spec, t0) -> RunReport:
    ext, edesc = _load_extension(ext_spec)
    s, sdesc = _load_cocycle(spec, x, ext, args.seed)
    single = obstruction_class(s, ext)
    doubled = hyperbolic_obstruction(s, ext)
    checks = {
        "doubled_cochain_identically_zero": doubled.cochain.is_zero(),
        "doubled_class_trivial": doubled.trivial,
        "doubled_lift_verified": _recheck_lift(doubled.lift),
    }
    payload = {
        "single": {"verdict": "TRIVIAL" if single.trivial else "NONTRIVIAL", "trivial": single.trivial},
        "doubled": _obstruction_payload(x, doubled),
    }
    return RunReport(
        command="whitney",
        inputs={
            "complex": f"{cdesc}#{complex_digest(x)}",
            "extension": edesc,
            "cocycle": sdesc,
        },
        payload=payload,
        checks=checks,
        elapsed=time.perf_counter() - t0,
    )


def cmd_count(args) -> RunReport:
    t0 = time.perf_counter()
    x, cdesc = _load_complex(args)
    ext, edesc = _load_extension(args.extension)
    s, sdesc = _load_cocycle(args.cocycle, x, ext, args.seed)
    n = hyperbolic_structure_count(s, ext)
    h1 = cohomology(x, 1, ext.kernel)
    checks = {"count_equals_h1_order": n == h1.order == z2_h1_order_from_ranks(x)}
    payload = {
        "count": n,
        "h1_invariant_factors": list(h1.invariant_factors),
        "h1_order": h1.order,
    }
    return RunReport(
        command="count",
        inputs={
            "complex": f"{cdesc}#{complex_digest(x)}",
            "extension": edesc,
            "cocycle": sdesc,
        },
        payload=payload,
        checks=checks,
        elapsed=time.perf_counter() - t0,
    )


# ------------------------------------------------------------------- parser --


def _add_complex_flags(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--builtin", choices=BUILTIN_COMPLEXES, help="builtin complex name")
    src.add_argument("--complex", metavar="PATH", help="complex file (.cplx)")


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="seed for random cocycles and sections")
    p.add_argument(
        "--cap",
        type=int,
        default=None,
        help=f"search budget cap (default {CAP_ENV_VAR} env var, else {DEFAULT_BRUTE_CAP})",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cechlift",
        description="Obstruction classes for lifting bundle cocycles through central extensions.",
    )
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument(
        "--format",
        choices=("human", "machine"),
        default="human",
        help="output format; machine is JSON and round-trips",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("catalog", parents=[fmt], help="list builtin complexes and extensions")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("cohomology", parents=[fmt], help="one cohomology space of a complex")
    _add_complex_flags(p)
    p.add_argument("-p", "--degree", type=int, required=True, help="cochain degree")
    p.add_argument(
        "-k", "--coefficients", required=True, help="coefficient group literal, e.g. Z2 or Z2xZ4"
    )
    p.add_argument("--basis", action="store_true", help="also print a basis of classes")
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("obstruction", parents=[fmt], help="obstruction class of one cocycle")
    _add_complex_flags(p)
    p.add_argument(
        "--cocycle",
        required=True,
        help="identity, mobius, random, or a cocycle file path",
    )
    p.add_argument("--extension", required=True, help="builtin extension name or file path")
    p.add_argument(
        "--brute-force",
        action="store_true",
        help="cross-check the verdict by exhaustive lift search",
    )
    _add_common_flags(p)
    p.set_defaults(func=cmd_obstruction)

    p = sub.add_parser("whitney", parents=[fmt], help="fused sums and the doubling cancellation")
    _add_complex_flags(p)
    p.add_argument(
        "--cocycle",
        action="append",
        required=True,
        help="component cocycle (repeatable): identity, mobius, random, or a file path",
    )
    p.add_argument(
        "--extension",
        action="append",
        required=True,
        help="component extension (repeatable): builtin name or file path",
    )
    p.add_argument(
        "--hyperbolic",
        action="store_true",
        help="double the single given cocycle and verify the obstruction cancels",
    )
    _add_common_flags(p)
    p.set_defaults(func=cmd_whitney)

    p = sub.add_parser("count", parents=[fmt], help="number of inequivalent lifts of the doubled cocycle")
    _add_complex_flags(p)
    p.add_argument(
        "--cocycle",
        required=True,
        help="identity, mobius, random, or a cocycle file path",
    )
    p.add_argument("--extension", required=True, help="builtin extension name or file path")
    _add_common_flags(p)
    p.set_defaults(func=cmd_count)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        report = args.func(args)
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC
    if args.format == "machine":
        print(report.to_json())
    else:
        print(report.render_human())
    return EXIT_OK if report.ok() else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
