"""The three workloads: batch, ladder and cli.

Each is a closed loop with one client in one process: the next instance
starts when the previous one returns.  A workload object is built for one
seed; setup() makes every input from scratch (and may be called several
times), run_pass() runs the fixed instance set once and records timings
and outcomes, and check() compares every recorded outcome against the
references of reference.py.  Outcomes are checked after the timed phase,
so checking costs no timed time.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

from cechlift import (
    BUILTIN_COMPLEXES,
    BUILTIN_EXTENSIONS,
    BundleCocycle,
    additivity_check,
    build_complex,
    builtin_complex,
    builtin_extension,
    fused_extension,
    fusion_hom_mod2,
    hyperbolic_obstruction,
    mobius_cocycle,
    obstruction_class,
    product_cocycle,
    random_cocycle,
    random_section,
    write_cocycle,
    write_complex,
)

import inputs
import reference

clock = time.perf_counter

# The criterion-2 extension pairs of the acceptance suite.
EXTENSION_PAIRS = (
    ("z4_over_z2", "z4_over_z2"),
    ("z4_over_z2", "q8_over_v4"),
    ("q8_over_v4", "d8_over_v4"),
    ("split_z2", "d8_over_v4"),
)


def clear_library_caches(tracer=None):
    """Empty every lru_cache in the library, so set-up starts cold."""
    if tracer is not None:
        tracer.bank_caches()
    for mod in list(sys.modules.values()):
        if not getattr(mod, "__name__", "").startswith("cechlift"):
            continue
        for obj in list(vars(mod).values()):
            target = getattr(obj, "__wrapped__", None) if not hasattr(obj, "cache_clear") else obj
            if hasattr(target, "cache_clear"):
                target.cache_clear()
    if tracer is not None:
        tracer.after_clear()


class Workload:
    name = ""

    def __init__(self, seed: int, scale: float = 1.0):
        self.seed = seed
        self.scale = scale
        self.tracer = None  # set while a traced run has the tracer installed
        self.reset_samples()
        self.outcomes: dict = defaultdict(Counter)
        self.failed = 0
        self.attempted = 0
        self.errors: list[str] = []

    def _call(self, key, fn):
        """Time one instance; record its outcome, or count it failed if it raises."""
        self.attempted += 1
        t0 = clock()
        try:
            out = fn()
        except Exception as exc:  # a raised instance is a failed one, not a crashed benchmark
            dt = clock() - t0
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{key}: {type(exc).__name__}: {exc}")
        else:
            dt = clock() - t0
            self.outcomes[key][out] += 1
        self.latencies.append(dt)
        return dt

    def reset_samples(self):
        """Drop samples before a timed phase; outcomes are kept for checking."""
        self.latencies: list[float] = []
        self.cold: dict[str, list[float]] = defaultdict(list)
        # Each instance's shortest time so far, warm and cold.  batch and cli
        # run every instance many times in a run and report these: on a
        # shared machine other work only ever adds time, and a short instance
        # has good odds of running undisturbed once in a dozen tries, so best
        # times vary much less between runs than medians of passes do.
        self.best: dict[str, dict] = {"warm": {}, "cold": {}}

    def keep_best(self, table, key, dt):
        best = self.best[table]
        best[key] = min(dt, best.get(key, dt))

    def cold_pass(self):
        """A pass measured cold before each timed pass; most workloads take
        their cold samples inside run_pass instead."""


# ------------------------------------------------------------------ batch ----


class Batch(Workload):
    """Many small instances on the builtins, criteria 1-2 mix."""

    name = "batch"
    OPS = ("obstruction", "hyperbolic", "additivity_induced", "additivity_random")

    def cold_pass(self):
        """One pass over the instance set right after the caches were emptied."""
        clear_library_caches(self.tracer)
        self.run_pass(record="cold")

    def setup(self):
        clear_library_caches(self.tracer)
        rng = inputs.seeded(self.seed, "batch")
        self.mu = fusion_hom_mod2(2)
        exts = {n: builtin_extension(n) for n in BUILTIN_EXTENSIONS}
        per_pair = max(1, round(4 * self.scale))
        self.groups = []
        for cname in BUILTIN_COMPLEXES:
            x = builtin_complex(cname)
            edges, triangles = x.edges(), x.triangles()
            classes = inputs.gf2_class_basis(edges, triangles, x.vertex_count)

            def draw(group, k):
                vals = inputs.random_cocycle_values(edges, x.vertex_count, group, rng, classes, k)
                return BundleCocycle(x, group, vals)

            for n1, n2 in EXTENSION_PAIRS:
                e1, e2 = exts[n1], exts[n2]
                for k in range(per_pair):
                    s1, s2 = draw(e1.base, k), draw(e2.base, k + 1)
                    fe = fused_extension((e1, e2), self.mu)
                    secs = [random_section(e, rng, normalized=rng.random() < 0.5) for e in (e1, e2)]
                    stray = random_section(fe.fused, rng, normalized=rng.random() < 0.5)
                    self.groups.append((cname, s1, s2, e1, e2, secs, stray))
        self.run_pass(record=None)

    def run_pass(self, record="warm"):
        """Run every instance once.  Times go to best[record]; only warm
        ones are latency samples, and a warm-up pass (record None) keeps none."""
        mu = self.mu
        n = len(self.latencies)
        for gi, (cname, s1, s2, e1, e2, secs, stray) in enumerate(self.groups):
            ops = (
                lambda: _verdict(obstruction_class(s1, e1)),
                lambda: _verdict(hyperbolic_obstruction(s1, e1), zero=True),
                lambda: _additivity(additivity_check((s1, s2), (e1, e2), mu)),
                lambda: additivity_check((s1, s2), (e1, e2), mu, sections=secs, fused_section=stray).class_equal,
            )
            for op, fn in zip(self.OPS, ops):
                dt = self._call((gi, op), fn)
                if record:
                    self.keep_best(record, (gi, op), dt)
        if record != "warm":
            del self.latencies[n:]

    def check(self) -> tuple[int, int, list[str]]:
        wrong, bad_lifts, notes = 0, 0, []
        images = {}
        for (gi, op), outs in self.outcomes.items():
            cname, s1, s2, e1, e2, _, _ = self.groups[gi]
            x = s1.base
            for out, n in outs.items():
                if op == "obstruction":
                    if cname not in images:
                        images[cname] = reference.Gf2Image(x.edges(), x.triangles())
                    expect = reference.z2_verdict(images[cname], x.edges(), s1.values, e1)
                    trivial, lift, lift_ext, _ = out
                    ok = trivial == expect
                    if trivial and not reference.lift_ok(x.edges(), x.triangles(), s1.values, lift_ext, lift):
                        bad_lifts += n
                elif op == "hyperbolic":
                    trivial, lift, lift_ext, zero = out
                    ok = trivial and zero
                    doubled = tuple(v * s1.group.order + v for v in s1.values)
                    if not reference.lift_ok(x.edges(), x.triangles(), doubled, lift_ext, lift):
                        bad_lifts += n
                elif op == "additivity_induced":
                    ok = out == (True, True, 0)
                else:
                    ok = out is True
                if not ok:
                    wrong += n
                    if len(notes) < 5:
                        notes.append(f"batch group {gi} {op}: got {out[:1] if isinstance(out, tuple) else out}")
        return wrong, bad_lifts, notes


def _verdict(result, zero=False):
    """Hashable outcome: verdict, lift values and the extension they live in,
    and (for doubled cocycles) whether the cochain is identically zero."""
    lift = result.lift
    return (
        result.trivial,
        lift.values if lift is not None else None,
        lift.extension if lift is not None else None,
        result.cochain.is_zero() if zero else None,
    )


def _additivity(report):
    return (report.cochain_equal, report.class_equal, len(report.mismatched_triangles))


def _instances(rung):
    """(extension, label, pulled-back values) of every verdict on a rung."""
    return [(en, label, vals) for en, rows in rung.cocycles.items() for label, vals in rows]


# ----------------------------------------------------------------- ladder ----


class Ladder(Workload):
    """Subdivision rungs built anew each pass: one cold verdict per rung,
    then warm verdicts on the same complex."""

    name = "ladder"
    RUNGS = (("rp2_6", 1), ("rp2_6", 2), ("torus7", 1), ("torus7", 2), ("klein", 1))
    HYPERBOLIC_EXT = "z4_over_z2"
    # Rounds of warm verdicts per pass by subdivision level.  Most latency
    # samples then come from the sd2 nerves, so the median lies inside
    # their cluster rather than in the gap between rung sizes.
    WARM_ROUNDS = {1: 1, 2: 3}

    def __init__(self, seed, scale=1.0):
        super().__init__(seed, scale)
        # Reduced-size runs (scale < 1) keep only the sd1 rungs.
        self.rung_spec = tuple(r for r in self.RUNGS if scale >= 1 or r[1] == 1)

    def setup(self):
        clear_library_caches(self.tracer)
        rng = inputs.seeded(self.seed, "ladder")
        self.exts = {n: builtin_extension(n) for n in BUILTIN_EXTENSIONS}
        self.exts["z8_over_z2"] = inputs.z8_over_z2()
        n_random = max(1, round(3 * self.scale))
        self.base_sets = {}
        for name in dict.fromkeys(b for b, _ in self.rung_spec):
            # The composite kernel is left out on klein: its brute-force
            # reference takes minutes.
            names = [n for n in self.exts if not (name == "klein" and n == "z8_over_z2")]
            self.base_sets[name] = inputs.base_cocycles(
                builtin_complex(name), name, names, self.exts, rng, n_random)
        self.rungs = [inputs.build_rung(builtin_complex(b), b, k, self.base_sets[b]) for b, k in self.rung_spec]

    def run_pass(self):
        # Every rung is built and gets its cold verdict first; the warm
        # rounds then go round-robin over the rungs, so each rung's warm
        # samples are spread over the whole warm phase.  The caches still
        # hold the previous pass's complexes and their Smith forms; emptying
        # them first keeps memory independent of how many passes fit.
        clear_library_caches(self.tracer)
        built = []
        for ri, rung in enumerate(self.rungs):
            t0 = clock()
            x = build_complex(rung.facets)
            self._verdict_on(x, ri, *_instances(rung)[0])
            self.latencies.pop()  # the cold verdict is not a warm latency sample
            self.cold[rung.name].append(clock() - t0)
            built.append(x)
        for r in range(max(self.WARM_ROUNDS.values())):
            for ri, rung in enumerate(self.rungs):
                if r < self.WARM_ROUNDS[rung.level]:
                    for instance in _instances(rung)[0 if r else 1:]:
                        self._verdict_on(built[ri], ri, *instance)
                    self._doubled_on(built[ri], ri, rung)

    def _verdict_on(self, x, ri, en, label, vals):
        ext = self.exts[en]
        s = BundleCocycle(x, ext.base, vals)
        self._call((ri, en, label), lambda: _verdict(obstruction_class(s, ext)))

    def _doubled_on(self, x, ri, rung):
        ext = self.exts[self.HYPERBOLIC_EXT]
        label, vals = rung.cocycles[self.HYPERBOLIC_EXT][-1]
        s = BundleCocycle(x, ext.base, vals)
        self._call((ri, "hyperbolic", label), lambda: _verdict(hyperbolic_obstruction(s, ext), zero=True))

    def base_references(self) -> dict:
        refs = {}
        for bname, per_ext in self.base_sets.items():
            for en, items in per_ext.items():
                for label, s in items:
                    refs[(bname, en, label)] = reference.brute_verdict(s, self.exts[en])
        return refs

    def check(self) -> tuple[int, int, list[str]]:
        refs = self.base_references()
        wrong, bad_lifts, notes = 0, 0, []
        seen = defaultdict(set)
        for key, outs in self.outcomes.items():
            ri, en, label = key
            rung = self.rungs[ri]
            edges, triangles = rung.edges, rung.triangles
            for (trivial, lift, lift_ext, zero), n in outs.items():
                if en == "hyperbolic":
                    order = self.exts[self.HYPERBOLIC_EXT].base.order
                    vals = dict(rung.cocycles[self.HYPERBOLIC_EXT])[label]
                    expect, ok = True, trivial and zero
                    cocycle = tuple(v * order + v for v in vals)
                else:
                    expect = refs[(rung.base_name, en, label)]
                    ok = trivial == expect
                    cocycle = dict(rung.cocycles[en])[label]
                    seen[ri].add(trivial)
                if not ok:
                    wrong += n
                    if len(notes) < 5:
                        notes.append(f"{rung.name} {en} {label}: got trivial={trivial}, reference {expect}")
                if trivial and not reference.lift_ok(edges, triangles, cocycle, lift_ext, lift):
                    bad_lifts += n
        for ri, rung in enumerate(self.rungs):
            base_has = {v for (b, _, _), v in refs.items() if b == rung.base_name}
            if ri in seen and seen[ri] != base_has:
                notes.append(f"{rung.name} ran verdicts {sorted(seen[ri])}, its base has {sorted(base_has)}")
                wrong += 1
        return wrong, bad_lifts, notes


# -------------------------------------------------------------------- cli ----


class Cli(Workload):
    """Sequential `python -m cechlift.cli ... --format machine` calls."""

    name = "cli"

    def __init__(self, seed, root: Path, workdir: Path, scale=1.0):
        super().__init__(seed, scale)
        self.root = root
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.env.pop("PYTHONHOME", None)

    def reset_samples(self):
        super().reset_samples()
        self.calls: list[tuple[int, float, float]] = []  # command, wall time, report elapsed

    def setup(self):
        rng = inputs.seeded(self.seed, "cli")
        self.whitney_seed = rng.randrange(1000)
        self.coh = (rng.choice(BUILTIN_COMPLEXES), rng.choice((1, 2)))
        base = builtin_complex("rp2_6")
        ext = builtin_extension("z4_over_z2")
        classes = inputs.gf2_class_basis(base.edges(), base.triangles(), base.vertex_count)
        vals = inputs.random_cocycle_values(base.edges(), base.vertex_count, ext.base, rng, classes, rng.randrange(2))
        self.file_cocycle = BundleCocycle(base, ext.base, vals)
        facets, vmap = inputs.subdivide(base.facets)
        sd1 = build_complex(facets)
        self.workdir.mkdir(parents=True, exist_ok=True)
        cplx = self.workdir / "sd1.cplx"
        write_complex(cplx, sd1)
        self.sd1 = sd1
        self.sd1_values = inputs.pullback_values(self.file_cocycle, sd1.edges(), vmap)
        write_cocycle(self.workdir / "sd1.bcoc", BundleCocycle(sd1, ext.base, self.sd1_values), complex_ref="sd1.cplx")
        coh_name, coh_p = self.coh
        self.commands = [
            ["catalog"],
            ["cohomology", "--builtin", "torus7", "-p", "1", "-k", "Z2", "--basis"],
            ["obstruction", "--builtin", "rp2_6", "--cocycle", "mobius", "--extension", "z4_over_z2", "--brute-force"],
            ["whitney", "--builtin", "rp2_6", "--cocycle", "mobius", "--extension", "z4_over_z2", "--hyperbolic"],
            ["whitney", "--builtin", "torus7", "--cocycle", "random", "--cocycle", "random",
             "--extension", "z4_over_z2", "--extension", "q8_over_v4", "--seed", str(self.whitney_seed)],
            ["count", "--builtin", "torus7", "--cocycle", "identity", "--extension", "z4_over_z2"],
            ["cohomology", "--builtin", coh_name, "-p", str(coh_p), "-k", "Z4"],
            ["obstruction", "--complex", str(cplx), "--cocycle", str(self.workdir / "sd1.bcoc"),
             "--extension", "z4_over_z2"],
        ]
        self.file_cmd = len(self.commands) - 1

    def run_pass(self):
        for ci, argv in enumerate(self.commands):
            self.run_command(ci, argv)

    def run_command(self, ci, argv):
        cmd = [sys.executable, "-m", "cechlift.cli", *argv, "--format", "machine"]
        self.attempted += 1
        t0 = clock()
        proc = subprocess.run(cmd, capture_output=True, text=True, env=self.env, cwd=self.workdir)
        dt = clock() - t0
        self.latencies.append(dt)
        self.keep_best("warm", ci, dt)
        if ci == self.file_cmd:
            self.keep_best("cold", ci, dt)
        try:
            report = json.loads(proc.stdout) if proc.returncode == 0 else None
        except ValueError:
            report = None
        if report is None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{' '.join(argv)}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
            return
        self.calls.append((ci, dt, report.pop("elapsed")))
        self.outcomes[ci][json.dumps(report, sort_keys=True)] += 1

    def replay_in_process(self):
        """Run each command through cechlift.cli.main in this process, with
        the caches emptied first, as a fresh process would see them."""
        cli = importlib.import_module("cechlift.cli")
        for argv in self.commands:
            clear_library_caches(self.tracer)
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main([*argv, "--format", "machine"])

    def check(self) -> tuple[int, int, list[str]]:
        expect = self.expectations()
        wrong, bad_lifts, notes = 0, 0, []
        for ci, outs in self.outcomes.items():
            for text, n in outs.items():
                report = json.loads(text)
                if not all(report["checks"].values()):
                    wrong += n
                    notes.append(f"command {ci}: a re-checked theorem failed")
                    continue
                problem = expect[ci](report["payload"])
                if problem == "lift":
                    bad_lifts += n
                elif problem:
                    wrong += n
                    if len(notes) < 5:
                        notes.append(f"command {' '.join(self.commands[ci])}: {problem}")
        return wrong, bad_lifts, notes

    def expectations(self):
        """One payload checker per command, each built from a reference."""
        z4 = builtin_extension("z4_over_z2")
        q8 = builtin_extension("q8_over_v4")
        torus = builtin_complex("torus7")
        rp2 = builtin_complex("rp2_6")
        mobius = mobius_cocycle()
        mobius_trivial = reference.brute_verdict(mobius, z4)
        ws = self.whitney_seed
        s1, s2 = random_cocycle(torus, z4.base, ws), random_cocycle(torus, q8.base, ws + 1)
        fused = fused_extension((z4, q8), fusion_hom_mod2(2)).fused
        comp = [reference.brute_verdict(s1, z4), reference.brute_verdict(s2, q8)]
        fused_trivial = reference.brute_verdict(product_cocycle((s1, s2)), fused)
        h1_torus = reference.cohomology_factors(torus.facets, 1, 2)
        coh_name, coh_p = self.coh
        coh_z4 = reference.cohomology_factors(builtin_complex(coh_name).facets, coh_p, 4)
        file_trivial = reference.brute_verdict(self.file_cocycle, z4)
        index_of = {z4.total.name_of(v): v for v in range(z4.total.order)}

        def catalog(p):
            got = [(c["name"], c["euler_characteristic"]) for c in p["complexes"]]
            want = [(n, reference.euler_characteristic(builtin_complex(n).facets)) for n in BUILTIN_COMPLEXES]
            ext_names = [e["name"] for e in p["extensions"]]
            return None if got == want and ext_names == list(BUILTIN_EXTENSIONS) else "catalog differs"

        def factors(want):
            return lambda p: None if p["invariant_factors"] == want else f"factors {p['invariant_factors']} != {want}"

        def obstruction(want, edges, triangles, values):
            brute = "FOUND" if want else "NONE"

            def f(p):
                o = p["obstruction"]
                if o["trivial"] != want or p.get("brute_force", brute) != brute:
                    return f"verdict trivial={o['trivial']}, reference {want}"
                if o["trivial"]:
                    lift = [index_of.get(v) for _, _, v in o["lift"]]
                    if None in lift or not reference.lift_ok(edges, triangles, values, z4, lift):
                        return "lift"
                return None
            return f

        def hyperbolic(p):
            d = p["doubled"]
            if p["single"]["trivial"] != mobius_trivial or not d["trivial"]:
                return "doubled or single verdict differs"
            return None if all(v == [0] for *_, v in d["cochain"]) else "doubled cochain is not zero"

        def whitney(p):
            got = [c["trivial"] for c in p["components"]]
            add = p["additivity"]
            if got != comp or p["fused"]["trivial"] != fused_trivial:
                return f"verdicts {got}/{p['fused']['trivial']}, reference {comp}/{fused_trivial}"
            ok = add == {"class_equal": True, "cochain_equal": True, "mismatched_triangles": 0}
            return None if ok else "additivity failed"

        def count(p):
            want = 1
            for f in h1_torus:
                want *= f
            return None if p["count"] == want else f"count {p['count']} != {want}"

        return [
            catalog,
            factors(h1_torus),
            obstruction(mobius_trivial, rp2.edges(), rp2.triangles(), mobius.values),
            hyperbolic,
            whitney,
            count,
            factors(coh_z4),
            obstruction(file_trivial, self.sd1.edges(), self.sd1.triangles(), self.sd1_values),
        ]


def probe(cmd_args, env, cwd, n) -> list[float]:
    """Wall times of n runs of the interpreter with the given arguments."""
    out = []
    for _ in range(n):
        t0 = clock()
        subprocess.run([sys.executable, *cmd_args], env=env, cwd=cwd, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        out.append(clock() - t0)
    return out
