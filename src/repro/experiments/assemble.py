"""EXPERIMENTS.md assembly: raw report text -> published document.

``repro report`` (:mod:`repro.experiments.incremental`) and
``tools/build_experiments_md.py`` both assemble the document through
:func:`build`, so the two can never disagree on its text.

The raw report text is rendered tables separated by ``[{section}:
{N}s]`` timing lines, as the incremental reporter writes it; the output
of ``python -m repro sweep`` (the same tables with one ``[sweep]``
trailer) is accepted too.  :func:`build` splices each measured table
into the paper-vs-measured commentary of :data:`SECTIONS`; the timing
lines are stripped, so two raw inputs with identical tables but
different timings assemble to byte-identical documents.
"""

from __future__ import annotations

import re
import sys

HEADER = """# EXPERIMENTS — paper vs. measured

Every table and figure of the paper's evaluation, regenerated by this
repository.  Measured numbers below come from one full pass of
`python -m repro report` at the default experiment scale
(`DEFAULT_SCALE`: 60,000-access traces, 12,000-access warmup, seed 42;
`python -m repro sweep` produces identical tables as one deduplicated
parallel batch);
the raw output is checked in as `docs/experiments_raw.txt` and this file
is assembled from it by `tools/build_experiments_md.py` (CI verifies it
never drifts).  `python -m repro validate` asserts the qualitative
shapes at a reduced trace scale, and the test suite runs those checks.

**Statistical methodology.**  The comparative experiments (`repro
compare`, `repro mt`, `repro scaling`) replicate every cell over 5
trace seeds (`Scale.with_replicate`; replicate 0 is the historical
seed-42 run, so single-seed sections are unchanged).  A replicated
cell reads `mean ±h`, where ±h is the half-width of a 95%
percentile-bootstrap confidence interval over the per-seed values, and
a trailing `*` marks cells whose distribution differs from the table's
baseline column under a two-sided exact Mann-Whitney U test at
p < 0.05 (5-vs-5 enumerates all 252 splits; the smallest attainable p
is 2/252 ≈ 0.008).  All resampling is seeded from the cells' spec
hashes (`repro.stats`), so every interval is deterministic and the
sweep-determinism CI gate byte-compares replicated tables like any
others.

**How to read this file.**  Our substrate is a calibrated trace-driven
simulator over synthetic workloads, not the authors' testbed, so absolute
cycle counts are not expected to match.  For each experiment we state the
paper's numbers, our measurement, and which *shapes* (orderings, ratios,
crossovers) reproduce.  Three global calibration effects, detailed in
docs/ARCHITECTURE.md §7, recur throughout:

* **C1 — trace-length compression**: we replay tens of thousands of
  accesses instead of billions, so cold page-table fetches weigh more and
  our *isolated* baselines land above the paper's 34-101 cycle range.
* **C2 — co-runner interference scaling**: colocated runs start from the
  co-runner's steady-state cache occupancy and replay several
  interference groups per application access; the colocation *uplift* is
  directionally right but smaller than the paper's 2.6x, because the
  isolated baseline (C1) is already partly "pressured".
* **C3 — synthetic workloads**: locality knobs are calibrated once per
  workload (`repro/workloads/suite.py`) against the paper's Table 2/3 and
  Figure 9 structure, never per experiment.
"""

SECTIONS: list[tuple[str, tuple[str, ...], str]] = [
    (
        "Table 1 — memcached walk latency under deployment pressure",
        ("Table 1:",),
        """**Paper:** 5x dataset 1.2x, SMT colocation 2.7x, virtualization
5.3x, virtualization+SMT 12.0x (normalised to native mc80).

**Reproduces:** the full ordering — dataset growth < SMT colocation <
virtualization < virtualization+colocation — and the 5x-dataset ratio
(paper 1.2x, ours ~1.1-1.2x).  **Under-reproduces (C1/C2):** the
virtualization and colocation multipliers are compressed (our native
baseline is already cold-heavy); ours land around 1.1-2x rather than
2.7-12x.""",
    ),
    (
        "Table 2 — VMAs, PT contiguity, PT page count",
        ("Table 2:",),
        """**Paper:** 7-33 VMAs total, 1-13 covering 99%; PT pages
scattered over hundreds-to-thousands of physical regions; PT page counts
2842-213097.

**Reproduces:** essentially everything, by construction plus measurement:
the VMA counts and 99%-coverage counts are exact; measured contiguous
regions (e.g. mcf ~500 vs 626, mc400 ~5200 vs 5376) and PT page counts
(e.g. mc80 ~41k vs 45878, mc400 ~205k vs 213097) land within ~10-20% of
the paper's, from the simulated buddy allocator's fragmentation model.""",
    ),
    (
        "Figure 2 — fraction of execution time in page walks",
        ("Figure 2:",),
        """**Paper:** up to 82% native / 93% virtualized; every pressure
dimension increases the fraction.

**Reproduces:** the monotone scenario ordering per workload and the large
magnitudes (tens of percent, graph workloads worst).  Our absolute
fractions depend on the simple in-order core model (docs/ARCHITECTURE.md
§5), which
understates the paper's most extreme (out-of-order, fully
translation-bound) cases.""",
    ),
    (
        "Figure 3 — average walk latency across scenarios",
        ("Figure 3:",),
        """**Paper:** tens of cycles native-isolated, hundreds under
virtualization+colocation (up to ~700).

**Reproduces:** the scenario ordering for every workload and the
magnitude progression into hundreds of cycles.  **C1:** isolated
baselines sit ~1.5-2x above the paper's; virtualized+colocated numbers
land in the paper's range.""",
    ),
    (
        "Figure 8 — native ASAP ladder (isolation / SMT colocation)",
        ("Figure 8a:", "Figure 8b:"),
        """**Paper:** P1 cuts 12% / P1+P2 14% in isolation; 20% / 25%
under colocation (max 42% on mc400).

**Reproduces:** the ladder (Baseline > P1 >= P1+P2), the PL2 increment
being small, the *growth of ASAP's win under colocation*, and the
workload ordering (mc400 and redis benefit most, mcf and pagerank least —
exactly the Figure 9 story).  Our reduction magnitudes run a few points
above the paper's in isolation (C1: more long walks to overlap).""",
    ),
    (
        "Figure 9 — which level serves each PT level's requests",
        ("Figure 9a:", "Figure 9b:", "Figure 9c:", "Figure 9d:"),
        """**Paper:** mcf: PL4-PL2 almost all PWC hits, PL1 mostly L1-D —
little for ASAP to overlap; redis: far more PL2 PWC misses reaching
L2/LLC; colocation drains the L1-D share.

**Reproduces:** all four panels' structure — compare mcf's ~100%/95%/80%+
PWC rows and redis's PL2 row spread across L2/LLC/MEM, and the L1 share
dropping under colocation.  This figure is the mechanism check for the
whole calibration: it is why mcf sees small ASAP gains and redis/mc400
large ones.""",
    ),
    (
        "Figure 10 — virtualized ASAP ladder",
        ("Figure 10a:", "Figure 10b:"),
        """**Paper:** P1g 13%, P1g+P2g 15%, P1g+P1h 35%, full 39%
(isolation); 37%/45% under colocation, max 55% on mc400.

**Reproduces:** every config beats baseline; deeper prefetching never
hurts; the full two-dimensional config is best; reductions are largest
for the big-footprint workloads and grow under colocation.
**Partially reproduces:** the gap between guest-only and guest+host
configs — at our trace scale the host PT is partially cache-resident, so
host-side prefetching's margin over P1g+P2g is a few percent rather than
the paper's ~20 points (C1; the ordering itself is verified at larger
scale by `repro.validation`).""",
    ),
    (
        "Table 6 — projected performance improvement",
        ("Table 6:",),
        """**Paper:** critical-path walk fraction 18-68% (avg 34%), ASAP
reduction 25-43% (avg 39%), projected improvement 6-28% (avg 12%), graph
workloads dominating.

**Reproduces:** the methodology end to end (infinite-TLB run as the
no-walk measurement), double-digit average projected improvement, and
graph workloads at the top.""",
    ),
    (
        "Figure 11 + Table 7 — Clustered TLB vs ASAP vs both",
        ("Figure 11:", "Table 7:"),
        """**Paper:** Clustered TLB cuts walk cycles 5% on average (it
removes mostly short walks), ASAP 14%, combined 22% (41% max); MPKI
reductions 58%/48% for mcf/canneal vs 4-16% for the rest.

**Reproduces:** the whole composition story: coalescing removes walks
(big MPKI cuts exactly for the small-footprint, contiguity-friendly mcf
and canneal; single digits for memcached), ASAP's walk-cycle cut exceeds
Clustered TLB's, and the combination is additive.""",
    ),
    (
        "Figure 12 — ASAP with 2MB host pages",
        ("Figure 12:",),
        """**Paper:** with the hypervisor using 2MB pages (19-access 2D
walks), ASAP still cuts 25% (31% max) in isolation and 30% (44% max)
under colocation.

**Reproduces:** 2MB host pages shorten baseline walks; ASAP
(P1g+P2g+P2h) still delivers a double-digit reduction on top, larger
under colocation.""",
    ),
    (
        "Ablations — PWC capacity, five-level PT, PT-region holes",
        ("Ablation (§",),
        """**Paper:** doubling every PWC buys ~2-3%; five-level paging
deepens walks and ASAP extends with one more prefetch target (§3.5);
region holes only forfeit acceleration for the affected walks (§3.7.2).

**Reproduces:** PWC doubling is marginal; the extra PT level is fully
hidden while one PL5 entry covers the process (an honest refinement of
the paper's expectation — see `examples/five_level_future.py` for the
sprawling-address-space case where the cost and ASAP's recovery both
appear); hole injection degrades prefetch usefulness monotonically while
walks stay correct.""",
    ),
    (
        "Compare — translation schemes head-to-head (beyond the paper)",
        ("Compare:", "Compare ("),
        """**Not a paper figure.**  `repro compare` races the paper's
design against related-work schemes modelled behind the pluggable
`TranslationScheme` interface (docs/ARCHITECTURE.md §8) on the identical
workload suite, machine model and trace streams: `victima` parks L2-TLB
victims in the L2 data cache and probes it before walking (PAPERS.md:
Victima), `revelator` issues hash-based speculative PAs verified by the
walk (PAPERS.md: Revelator, 85% placement coverage).  The metric is the
translation-cycle fraction — the share of execution the core stalls on
address translation; lower is better.

**Reading at this trace scale:** speculation (`revelator`) dominates
because a correct guess removes the *whole* walk from the critical path
while ASAP can only overlap the deep PT levels; its lead is bounded by
coverage and the mis-speculation penalty.  ASAP wins among the
walk-based designs.  `victima` trades a small walk-count reduction
(extended reach) against cache pollution from parked entries, landing
near baseline on latency at 60k-trace scale — its reach benefit grows
with trace length as parked victims see more reuse.  Per-workload
cells carry 5-seed confidence intervals; the scheme orderings above
hold with significance markers against the baseline column on
essentially every workload, so the ranking is a property of the
designs, not of one trace seed.""",
    ),
    (
        "Multi-tenant — consolidation, ASIDs and switch policies "
        "(beyond the paper)",
        ("Multi-tenant (", "Multi-tenant:"),
        """**Not a paper figure.**  The paper's motivating setting is the
consolidated datacenter server, but its cost model is measured one
process at a time; `repro mt` (docs/ARCHITECTURE.md §10) simulates the
consolidation directly — N address spaces sharing one physical memory,
cache hierarchy and TLB/PWC set, round-robin scheduled with a
configurable quantum — and sweeps the four translation schemes across
process count, quantum and context-switch policy (full
translation-state flush vs ASID-tagged retention).

**Reading.**  Consolidation raises every scheme's translation-cycle
fraction above its isolated mean: tenants evict each other's PT lines
from the shared caches and compete for TLB/PWC reach, the §4 pressure
without the co-runner abstraction.  ASID retention's margin over full
flushing appears exactly where the hardware story says it should: at
the sub-TLB-capacity quantum (q = trace/128) retention is ahead for
every scheme, while at the large quantum (trace/8) the policies
converge to within a hundredth of a point of zero (either side of it:
an intervening tenant's ~4k fills churn the 1536-entry L2 S-TLB
completely, so there is nothing left to retain and the residual delta
is second-order set-pressure noise).  The absolute retention deltas are fractions of a
point at this trace scale (C1: cold misses, which retention cannot
save, dominate); their *sign and quantum-dependence* are the
reproducible shape — the retention table's intervals, taken over
per-seed grid means, show whether that sign survives seed noise.  The
scheme ordering of the Compare section (revelator < asap < victima ≈
baseline) survives consolidation in both modes, with the same 5-seed
significance marking as the Compare tables.""",
    ),
    (
        "Scaling — translation-fraction convergence vs trace length (beyond the paper)",
        ("Scaling:",),
        """**Not a paper figure.**  The paper replays billions of
instructions; every other section here replays 60k records, where the
fractions are still warmup-dominated (C1).  `repro scaling` streams the
record count up two orders of magnitude — 60k / 1M / 10M on the Table 1
anchor workload — through the chunked trace subsystem
(docs/ARCHITECTURE.md §11: bounded memory, byte-identical statistics to
a monolithic replay) and measures how the translation-cycle fraction
converges for the baseline and ASAP pipelines.  Only the 60k rung is
seed-replicated (its interval is the seed-noise yardstick); the 1M/10M
rungs are single long runs, so the convergence reading below compares
a 5-seed mean against them.

**Reading.**  The drift columns quantify C1 directly: both pipelines'
fractions fall monotonically as the TLBs, PWCs and the cached PT lines
approach steady state (baseline 49.0% → 44.6%, 4.4pp of drift at 60k).
The larger finding is the *direction of the bias*: ASAP converges much
further (44.7% → 35.1%, 9.6pp), so its measured reduction **grows**
from 8.9% at 60k to 21.3% at 10M — short traces understate the paper's
design, they do not flatter it.  Mechanically: in a cold trace most
stall time is compulsory PT-line misses, which prefetching can only
race; at steady state the residual walks are exactly the
deep-level-dominated kind ASAP overlaps best.  The 10M reduction sits
inside the paper's reported 14-25% native band where the 60k cell did
not — every ASAP-reduction number in the sections above should be read
as a steady-state *lower bound*.  Wall-clock/peak-RSS for the same
record ladder live in `BENCH_trajectory.json` (`tools/bench.py`);
peak RSS grows with the touched page count (page tables + per-page walk
paths — inherent state), not with trace length.""",
    ),
]

FOOTER = """
## Scorecard

| Shape | Status |
|---|---|
| Walk latency ordering: native < +SMT < virt < virt+SMT (Tab 1/Fig 3) | reproduced |
| 5x dataset -> longer walks, ~1.2x (Tab 1) | reproduced |
| VMA structure & PT scattering statistics (Tab 2) | reproduced (quantitative) |
| Walk-time fractions large & ordered (Fig 2) | reproduced |
| Native ladder Baseline > P1 >= P1+P2; small PL2 increment (Fig 8) | reproduced |
| ASAP's win grows under colocation (Fig 8b/10b) | reproduced |
| Per-level service structure, mcf vs redis, iso vs coloc (Fig 9) | reproduced |
| Virtualized ladder; full 2D config best (Fig 10) | reproduced |
| Host-dimension margin over guest-only (~20 points, Fig 10) | partially (scale-dependent; ordering verified at >=30k traces) |
| Projection methodology; graphs dominate (Tab 6) | reproduced |
| Coalescing/ASAP composition; contiguity split (Fig 11/Tab 7) | reproduced |
| 2MB host pages: ASAP still wins (Fig 12) | reproduced |
| PWC doubling marginal (§5.1.1) | reproduced |
| Consolidation raises translation pressure; ASID retention ahead at sub-TLB-capacity quanta, policies converge at large ones (`repro mt`, beyond the paper) | reproduced (new axis) |
| Translation fractions converge with trace scale; ASAP's reduction grows to the paper's band at 10M records (`repro scaling`, beyond the paper) | reproduced (new axis: 8.9% @60k -> 21.3% @10M) |
| Absolute isolated walk latencies 34-101 cycles | not matched (C1: ours ~1.5-2x higher) |
| Colocation uplift 2.6x / virtualization 4.4x multipliers | under-reproduced (C1/C2: ours ~1.1-2x) |

`python -m repro validate` re-checks every reproduced shape;
`python -m repro report --output EXPERIMENTS.md` regenerates every table above.
"""


def split_sections(raw: str) -> list[str]:
    """Split the raw report into titled blocks (tables + timing lines)."""
    blocks = re.split(r"\n\[[^\]]+: \d+s\]\n", raw)
    return [block.strip() for block in blocks if block.strip()]


def build(raw: str) -> str:
    """Assemble the full EXPERIMENTS.md text from raw report output."""
    out = [HEADER]
    missing = 0
    for title, markers, commentary in SECTIONS:
        out.append(f"\n## {title}\n")
        out.append(commentary.strip())
        # Pull every rendered table whose title starts with a marker.
        tables = []
        for block in split_sections(raw):
            for chunk in block.split("\n\n"):
                first = chunk.strip().splitlines()[0] if chunk.strip() else ""
                if any(first.startswith(marker) for marker in markers):
                    tables.append(chunk.strip())
        if tables:
            out.append("\n\n**Measured:**\n")
            for table in tables:
                out.append("```")
                out.append(table)
                out.append("```")
        else:
            missing += 1
            out.append("\n\n*(measured table missing from raw input)*")
    out.append(FOOTER)
    if missing:
        print(f"warning: {missing} section(s) missing from raw input",
              file=sys.stderr)
    return "\n".join(out) + "\n"
