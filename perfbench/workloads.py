"""The benchmark's four workloads, as seeded experiment configs.

Each workload is an nsklab config text.  ``demo`` and ``vacuum-2d`` are
copies of ``configs/demo.cfg`` and ``configs/growth-law.cfg`` as committed,
so that a later edit of those example files does not silently change what
the benchmark measures.  The program only ever sees the generated text.

The benchmark seed goes into ``[rng] seed`` modulo ``REFERENCE_SEEDS``: the
correctness check compares every run against reference values recorded for
each of those seeds (see ``reference.json``).  Only the ``random-large``
preset draws from the seed; the Gaussian-bump workloads are the same input
for every seed.
"""

from __future__ import annotations

from dataclasses import dataclass

REFERENCE_SEEDS = 8


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    template: str
    # span names (see spans.py) this workload is meant to exercise; the
    # coverage tests check that each one fires on it
    exercises: tuple
    # whether the preset draws from [rng] seed (reference values per seed)
    seeded: bool = False

    def config_text(self, seed: int, n_steps: int | None = None) -> str:
        """The config the program sees; ``n_steps`` shortens the horizon (tests only)."""
        text = self.template.replace("{seed}", str(rng_seed(seed)))
        if n_steps is not None:
            lines = []
            for line in text.splitlines():
                if line.startswith("t_end = "):
                    line = f"t_end = {n_steps * _DT!r}"
                lines.append(line)
            text = "\n".join(lines) + "\n"
        return text


_DT = 1e-3  # every workload steps at dt = 1e-3


def rng_seed(seed: int) -> int:
    return seed % REFERENCE_SEEDS


_DEMO = """\
# gaussian density bump relaxing on a periodic box, effective formulation,
# with the standard diagnostic probes and inequality audits

[grid]
dim = 2
n = 128
box_length = 12.566370614359172   # 4*pi
far_field_density = 1.0

[preset]
name = gaussian-bump
amplitude = 0.5
width = 1.2566370614359172        # 0.1 * box_length

[solver]
gamma = 2.0
dt = 1e-3
t_end = 0.5
formulation = effective

[probes]
names = energy.total, energy.kinetic, venergy, norm.weighted.p2, norm.weighted.p6, sobolev.rho.H2

[audits]
names = bd-identity, pi-equivalence, region-split, jungel, log-law, reverse-holder, certificate

[output]
directory = out/demo
state_stride = 25

[rng]
seed = {seed}
"""

_VACUUM_2D = """\
# near-vacuum density dip: the regime where the weighted velocity norms
# saturate their square-root growth in the integrability exponent

[grid]
dim = 2
n = 128
box_length = 12.566370614359172
far_field_density = 1.0

[preset]
name = gaussian-bump
amplitude = -0.99
width = 1.0053096491487339        # 0.08 * box_length

[solver]
gamma = 2.0
dt = 1e-3
t_end = 1.0
formulation = effective

[probes]
names = norm.weighted.p2, norm.weighted.p6, norm.weighted.p14, norm.weighted.p30, venergy

[audits]
names = growth-law, log-law, certificate

[output]
directory = out/growth-law
state_stride = 50

[rng]
seed = {seed}
"""

_EFFECTIVE_3D = """\
# 3d gaussian bump in effective form: 2 MB fields, larger than per-core L2

[grid]
dim = 3
n = 64
box_length = 12.566370614359172
far_field_density = 1.0

[preset]
name = gaussian-bump
amplitude = 0.5
width = 1.2566370614359172

[solver]
gamma = 2.0
dt = 1e-3
t_end = 0.02
formulation = effective

[probes]
names = venergy, norm.weighted.p6

[audits]
names = log-law, certificate

[output]
directory = out/effective-3d
state_stride = 5

[rng]
seed = {seed}
"""

_PRIMITIVE_3D = """\
# 3d seeded random state in primitive form, with the asserted 3d convexity audits

[grid]
dim = 3
n = 64
box_length = 12.566370614359172
far_field_density = 1.0

[preset]
name = random-large
amplitude = 0.4
velocity_amplitude = 0.3
max_mode = 4

[solver]
gamma = 2.0
dt = 1e-3
t_end = 0.01
formulation = primitive

[probes]
names = energy.total

[audits]
names = bd-identity, jungel, pi-equivalence, region-split

[output]
directory = out/primitive-3d
state_stride = 2

[rng]
seed = {seed}
"""

_IO = ("io.series_csv", "io.snapshot", "io.write_text")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "demo",
            "configs/demo.cfg: 2D 128^2 effective, 6 probes, 7 audits; the only "
            "probe-heavy workload (energy probes, formulation changes)",
            _DEMO,
            (
                "solver.run", "solver.step", "probe.energy.total", "probe.energy.kinetic",
                "probe.venergy", "probe.norm.weighted.p2", "probe.norm.weighted.p6",
                "probe.sobolev.rho.H2", "estimates.energy", "formulation.to_effective",
                "formulation.from_effective", "audit.bd-identity", "audit.pi-equivalence",
                "audit.region-split", "audit.jungel", "audit.log-law",
                "audit.reverse-holder", "audit.certificate",
                "degiorgi.lower_bound_certificate", *_IO,
            ),
        ),
        Workload(
            "vacuum-2d",
            "configs/growth-law.cfg: near-vacuum dip, 1000 steps, ~90% in the "
            "effective stepper, no formulation changes; stresses solver.step",
            _VACUUM_2D,
            (
                "solver.run", "solver.step", "probe.norm.weighted.p14",
                "probe.norm.weighted.p30", "audit.growth-law", "audit.log-law",
                "audit.certificate", "degiorgi.lower_bound_certificate", *_IO,
            ),
        ),
        Workload(
            "effective-3d",
            "3D 64^3 effective Gaussian bump, 20 steps; fields outgrow per-core "
            "L2, stresses the effective stepper and the FFT kernel in 3D",
            _EFFECTIVE_3D,
            (
                "solver.run", "solver.step", "probe.venergy", "probe.norm.weighted.p6",
                "audit.log-law", "audit.certificate", "degiorgi.lower_bound_certificate",
                *_IO,
            ),
        ),
        Workload(
            "primitive-3d",
            "3D 64^3 seeded random state, primitive form, 10 steps; the only "
            "primitive-stepper workload, stresses the asserted 3D audits",
            _PRIMITIVE_3D,
            (
                "solver.run", "solver.step", "probe.energy.total", "estimates.energy",
                "audit.bd-identity", "audit.jungel", "audit.pi-equivalence",
                "audit.region-split", *_IO,
            ),
            seeded=True,
        ),
    )
}
