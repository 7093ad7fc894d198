"""The paper's claims: one catalogue of expected-shape checks.

The reproduction's contract is not to match the paper's absolute
numbers (our substrate is a different simulator) but to reproduce the
*shape* of each result — who wins, in which direction, where the costs
come from.  Each checker takes an experiment's tables and the settings
they ran at and returns one :class:`ShapeCheck` per claim, built by
:func:`claim` from ``(what, measured, relation, threshold)`` terms.
``repro run --report`` prints the verdicts and
``benchmarks/bench_paper.py`` asserts them; nothing else restates them.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator

from .tables import TextTable, _fmt

if TYPE_CHECKING:
    from .experiments import Settings

_RELATIONS = {
    "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
    "==": operator.eq,
}


@dataclass(frozen=True)
class ShapeCheck:
    """One claim's verdict.

    ``margin`` is the claim's distance from flipping: the minimum over
    its terms of the signed gap from measured value to threshold,
    relative to ``|threshold|`` (absolute when the threshold is 0).  A
    holding equality has no gap, so a claim made only of holding
    equalities has margin ``None`` (``exact``).
    """

    claim: str
    passed: bool
    margin: float | None
    detail: str


def _gap(measured: float, relation: str, threshold: float) -> float | None:
    """Signed distance from flipping; None for a holding equality."""
    if relation == "==":
        if measured == threshold:
            return None
        gap = -abs(measured - threshold)
    else:
        gap = measured - threshold if relation[0] == ">" else threshold - measured
    return gap / abs(threshold) if threshold else gap


def claim(text: str, *terms: tuple[str, float, str, float]) -> ShapeCheck:
    """Judge a claim: every ``(what, measured, relation, threshold)``
    term must hold.  The detail names the binding term (the worst
    failure, else the tightest) and the claim's margin."""

    def rank(term):
        _, measured, rel, limit = term
        gap = _gap(measured, rel, limit)
        return _RELATIONS[rel](measured, limit), math.inf if gap is None else gap

    what, measured, rel, limit = min(terms, key=rank)
    held = _RELATIONS[rel](measured, limit)
    margin = _gap(measured, rel, limit)
    if margin is None:
        detail = "exact"
    elif limit:
        detail = f"margin {margin:+.1%}"
    else:
        detail = f"margin {'+' if margin >= 0 else '-'}{_fmt(abs(margin))} (absolute)"
    if len(terms) > 1:
        detail += f"; {'tightest' if held else 'worst'} of {len(terms)}"
    detail += f"; {what}: {_fmt(measured)} {rel} {_fmt(limit)}"
    return ShapeCheck(text, bool(held), margin, detail)


Checker = Callable[[list[TextTable], "Settings"], Iterator[ShapeCheck]]
CHECKERS: dict[str, Checker] = {}


def checker(exp_id: str):
    def register(fn: Checker) -> Checker:
        CHECKERS[exp_id] = fn
        return fn

    return register


def run_checks(
    exp_id: str, tables: list[TextTable], settings: Settings
) -> list[ShapeCheck]:
    """Run the shape checks for one experiment (empty if none defined)."""
    fn = CHECKERS.get(exp_id)
    return list(fn(tables, settings)) if fn else []


def _variants(table: TextTable) -> tuple[dict[tuple, list], list[str]]:
    """An ablation table as ``(workload, variant) -> row``, plus its
    workloads in order."""
    rows = {(row[0], row[1]): row for row in table.rows}
    return rows, list(dict.fromkeys(row[0] for row in table.rows))


@checker("table1_system_config")
def _config(tables, settings):
    names = tables[0].column("component")
    yield claim("Table I lists every simulated component", *(
        (f"rows named {name!r}", names.count(name), "==", 1) for name in (
            "Cores", "L1 (private, per core)", "LLC (shared)",
            "AIM (CE+ metadata cache)", "Interconnect", "Main memory")))


@checker("table2_workloads")
def _workloads(tables, settings):
    table = tables[0]
    shared = table.column("shared %")
    yield claim("the suite is 8 conflict-free plus 2 racy workloads",
                ("workloads", len(table.rows), "==", 10))
    yield claim("every workload makes accesses and runs regions",
                ("fewest accesses", min(table.column("accesses")), ">", 0),
                ("fewest regions", min(table.column("regions")), ">", 0))
    yield claim("sharing spans near-private (<5%) to heavily shared (>30%)",
                ("least shared %", min(shared), "<", 5.0),
                ("most shared %", max(shared), ">", 30.0))


@checker("table_storage")
def _storage(tables, settings):
    rows = tables[0].row_dict("system")
    kb = {name: row["per-core total"] for name, row in rows.items()}
    yield claim(
        "storage ordering: MESI = 0 < CE < CE+; ARC's L1 bits exceed CE's",
        ("MESI KB per core", kb["MESI"], "==", 0),
        ("CE KB per core", kb["CE"], ">", 0),
        ("CE+ vs CE KB per core", kb["CE+"], ">", kb["CE"]),
        ("ARC vs CE L1 access bits", rows["ARC"]["L1 access bits"], ">",
         rows["CE"]["L1 access bits"]),
    )


@checker("fig_perf_16")
def _perf(tables, settings):
    g = tables[0].row_dict("workload")["geomean"]
    yield claim("CE is never faster than CE+ overall (metadata in DRAM vs AIM)",
                ("CE vs CE+ - 0.02", g["ce"], ">=", g["ce+"] - 0.02))
    yield claim("ARC is competitive with CE+ (within 15% geomean)",
                ("ARC vs 1.15 x CE+", g["arc"], "<=", g["ce+"] * 1.15))
    yield claim("every detector's geomean runtime is within 0.3x-10x of MESI", *(
        (f"{p} geomean", g[p], rel, limit) for p in ("ce", "ce+", "arc")
        for rel, limit in ((">", 0.3), ("<", 10.0))))


@checker("fig_perf_scaling")
def _scaling(tables, settings):
    cores, ce, cp = (tables[0].column(c) for c in ("cores", "ce", "ce+"))
    want = settings.core_counts
    yield claim("CE's overhead does not shrink as cores grow",
                ("CE at most vs fewest cores - 0.02", ce[-1], ">=", ce[0] - 0.02))
    yield claim("CE+ stays at or below CE at every core count", *(
        (f"CE+ vs CE + 0.02 @{n} cores", b, "<=", a + 0.02)
        for n, a, b in zip(cores, ce, cp)))
    yield claim("one row per configured core count, in order",
                ("rows", len(cores), "==", len(want)), *(
                    (f"row {i} cores", n, "==", w)
                    for i, (n, w) in enumerate(zip(cores, want))))


@checker("fig_energy")
def _energy(tables, settings):
    totals, breakdown = tables
    g = totals.row_dict("workload")["geomean"]
    yield claim("CE's energy is not below CE+'s (off-chip metadata is costly)",
                ("CE vs CE+ - 0.03", g["ce"], ">=", g["ce+"] - 0.03))
    yield claim("each protocol's component shares sum to its total (within 5%)", *(
        (f"{proto} component sum", sum(parts), rel, total * factor)
        for proto, *parts, total in breakdown.rows
        for rel, factor in ((">=", 0.95), ("<=", 1.05))))


@checker("fig_onchip_traffic")
def _onchip(tables, settings):
    rows = tables[0].row_dict("workload")
    g, migratory = rows["geomean"], rows["migratory-token"]
    yield claim("CE/CE+ never send fewer flit-hops than MESI",
                ("CE geomean", g["ce"], ">=", 0.999),
                ("CE+ geomean", g["ce+"], ">=", 0.999))
    yield claim("ARC does not exceed CE+ on migratory write sharing",
                ("ARC vs CE+ + 0.05", migratory["arc"], "<=", migratory["ce+"] + 0.05))


@checker("fig_traffic_breakdown")
def _breakdown(tables, settings):
    rows = tables[0].row_dict("protocol")
    skip = ("protocol", "total", "data")
    yield claim("ARC sends no invalidation traffic",
                ("ARC inv share", rows["arc"]["inv"], "==", 0.0))
    yield claim("data messages dominate every protocol's traffic", *(
        (f"{p} data vs largest other category", rows[p]["data"], ">=",
         max(v for k, v in rows[p].items() if k not in skip))
        for p in ("mesi", "ce", "ce+", "arc")))
    yield claim("only conflict detectors send metadata traffic",
                ("MESI meta share", rows["mesi"]["meta"], "==", 0.0))
    yield claim("MESI sends the invalidation traffic ARC avoids",
                ("MESI inv share", rows["mesi"]["inv"], ">", 0.0))


@checker("fig_offchip_traffic")
def _offchip(tables, settings):
    totals, metadata = tables
    g = totals.row_dict("workload")["geomean"]
    meta = list(zip(*(metadata.column(c) for c in ("workload", "ce", "ce+", "arc"))))
    yield claim("CE moves the most bytes off-chip",
                ("CE vs CE+", g["ce"], ">=", g["ce+"]),
                ("CE vs ARC", g["ce"], ">=", g["arc"]))
    yield claim("ARC moves zero metadata off-chip", *(
        (f"{w} ARC metadata bytes", arc, "==", 0) for w, _, _, arc in meta))
    yield claim("CE moves at least CE+'s metadata off-chip on every workload", *(
        (f"{w} CE vs CE+ metadata bytes", ce, ">=", cp)
        for w, ce, cp, _ in meta))


@checker("fig_aim_sensitivity")
def _aim(tables, settings):
    table = tables[0]
    sizes, meta, runtime = (table.column(c) for c in (
        "aim size", "offchip metadata bytes", "runtime vs MESI"))
    steps = list(zip(sizes[1:], sizes[2:]))
    yield claim("plain CE is the off-chip metadata ceiling",
                ("first row is plain CE", int(sizes[0] == "CE (no AIM)"), "==", 1),
                ("CE vs largest CE+ metadata bytes", meta[0], ">=", max(meta[1:])))
    yield claim("growing the AIM never increases off-chip metadata", *(
        (f"{big} vs {small} metadata bytes", b, "<=", a)
        for (small, big), a, b in zip(steps, meta[1:], meta[2:])))
    yield claim("growing the AIM never costs more than 0.05 runtime", *(
        (f"{big} vs {small} runtime + 0.05", b, "<=", a + 0.05)
        for (small, big), a, b in zip(steps, runtime[1:], runtime[2:])))


@checker("fig_region_length")
def _region_length(tables, settings):
    phases, lengths, ce, cp = (tables[0].column(c) for c in (
        "phases", "mean region len", "ce", "ce+"))
    want = (1, 2, 4, 8, 16)
    yield claim("CE's overhead grows with region length",
                ("CE at longest vs shortest - 0.02", ce[0], ">=", ce[-1] - 0.02))
    yield claim("CE+ stays at or below CE at every region length", *(
        (f"CE+ vs CE + 0.02 @{n} phases", b, "<=", a + 0.02)
        for n, a, b in zip(phases, ce, cp)))
    yield claim("the sweep runs 1, 2, 4, 8 and 16 phases",
                ("rows", len(phases), "==", len(want)), *(
                    (f"row {i} phases", n, "==", w)
                    for i, (n, w) in enumerate(zip(phases, want))))
    yield claim("mean region length falls as phases grow", *(
        (f"{n} vs {m} phases region length", b, "<=", a)
        for m, n, a, b in zip(phases, phases[1:], lengths, lengths[1:])))


@checker("table3_conflicts")
def _conflicts(tables, settings):
    rows = tables[0].rows
    detectors = [row for row in rows if row[1] != "mesi"]
    yield claim("MESI reports no conflicts", *(
        term for w, p, conflicts, _, _, vias in rows if p == "mesi"
        for term in (
            (f"{w} MESI conflicts", conflicts, "==", 0),
            (f"{w} MESI detection points",
             0 if vias == "-" else len(vias.split(",")), "==", 0))))
    yield claim("every detector reports conflicts on every racy workload", *(
        (f"{w} {p} conflicts", conflicts, ">", 0)
        for w, p, conflicts, *_ in detectors))
    yield claim("racy-readers raises no W-W conflict (one thread writes)", *(
        (f"racy-readers {p} W-W", ww, "==", 0)
        for w, p, _, ww, *_ in detectors if w == "racy-readers"))
    yield claim("ARC detects without invalidations or forwards", *(
        (f"{w} ARC inv/fwd detection points",
         vias.count("inv") + vias.count("fwd"), "==", 0)
        for w, p, *_, vias in detectors if p == "arc"))


@checker("fig_network_saturation")
def _saturation(tables, settings):
    rows = tables[0].row_dict("protocol")
    arc, cp = rows["arc"], rows["ce+"]
    hops, queue = "flit-hops vs MESI", "queue cyc/kcycle"
    yield claim("CE+ sends more on-chip traffic than MESI under write sharing",
                ("CE+ flit-hops vs MESI", cp[hops], ">", 1.0))
    yield claim("ARC sends less on-chip traffic than CE+",
                ("ARC vs CE+ flit-hops", arc[hops], "<", cp[hops]))
    yield claim("ARC queues less per cycle than CE+",
                ("ARC vs CE+ queue cyc/kcycle", arc[queue], "<=", cp[queue]))


@checker("abl_arc_lazy_clear")
def _lazy_clear(tables, settings):
    rows, names = _variants(tables[0])
    yield claim("lazy clearing sends zero messages", *(
        (f"{w} lazy clear msgs", rows[w, "lazy"][4], "==", 0) for w in names))
    yield claim("explicit clearing sends messages", *(
        (f"{w} explicit clear msgs", rows[w, "explicit"][4], ">", 0)
        for w in names))
    yield claim("explicit clearing costs flit-hops on every workload", *(
        (f"{w} explicit vs lazy flit-hops", rows[w, "explicit"][3], ">",
         rows[w, "lazy"][3]) for w in names))


@checker("abl_arc_write_through")
def _arc_wt(tables, settings):
    rows, names = _variants(tables[0])
    wb, wt = "write-back", "write-through"
    yield claim("write-back issues no write-through stores", *(
        (f"{w} WB write-through stores", rows[w, wb][4], "==", 0)
        for w in names))
    yield claim("write-through issues per-store messages", *(
        (f"{w} WT write-through stores", rows[w, wt][4], ">", 0)
        for w in names))
    yield claim("write-through never adds self-downgrades", *(
        (f"{w} WT vs WB downgrades", rows[w, wt][5], "<=", rows[w, wb][5])
        for w in names))
    yield claim("on migratory-token, per-store messages outweigh saved downgrades",
                ("WT vs WB flit-hops", rows["migratory-token", wt][3], ">",
                 rows["migratory-token", wb][3]))


@checker("abl_moesi")
def _moesi(tables, settings):
    rows, names = _variants(tables[0])
    within = [(f"{w} MOESI vs 1.03 x MESI flit-hops", rows[w, "MOESI"][3], "<=",
               rows[w, "MESI"][3] * 1.03) for w in names]
    drops = [(f"{w} MOESI vs MESI flit-hops", rows[w, "MOESI"][3], "<",
              rows[w, "MESI"][3]) for w in ("stencil-ocean", "migratory-token")]
    yield claim("MOESI eliminates downgrade writebacks outright", *(
        (f"{w} MOESI downgrade writebacks", rows[w, "MOESI"][4], "==", 0)
        for w in names),
        ("most MESI downgrade writebacks",
         max(rows[w, "MESI"][4] for w in names), ">", 0))
    yield claim("traffic drops on write-then-reshare patterns and never grows "
                "beyond the forward-vs-LLC-sourcing trade (<3%)", *within, *drops)


@checker("abl_sparse_directory")
def _sparse_dir(tables, settings):
    rows = tables[0].row_dict("directory")
    full, mid, small = rows["full-map"], rows["1K/bank"], rows["256/bank"]
    yield claim("full-map never recalls; pressure produces recalls and spills",
                ("full-map recalls", full["recalls"], "==", 0),
                ("256/bank recalls", small["recalls"], ">", 0),
                ("256/bank vs full-map metadata spills", small["metadata spills"],
                 ">=", full["metadata spills"]))
    yield claim("recalls grow as the directory shrinks",
                ("256/bank vs 1K/bank recalls", small["recalls"], ">=", mid["recalls"]))
    yield claim("a smaller directory never sends fewer invalidations",
                ("256/bank vs full-map invalidations", small["invalidations"], ">=",
                 full["invalidations"]))


@checker("abl_private_l2")
def _private_l2(tables, settings):
    rows = tables[0].row_dict("config")
    base, l2 = rows["L1 only"], rows["L1 + 256KB L2"]
    yield claim("a private L2 filters misses and CE metadata spills", *(
        (f"L2 vs L1-only {c}", l2[c], "<=", base[c])
        for c in ("private misses", "metadata spills")))
    yield claim("the L1-only configuration has no L2 hits",
                ("L1-only L2 hit rate", base["L2 hit rate"], "==", 0.0))


@checker("abl_aim_writeback")
def _aim_wb(tables, settings):
    rows = tables[0].row_dict("policy")
    wb, wt = rows["write-back"], rows["write-through"]
    meta = "offchip metadata bytes"
    yield claim("write-back AIM never moves more metadata off-chip than write-through",
                ("WB vs WT offchip metadata bytes", wb[meta], "<=", wt[meta]))
    yield claim("write-back costs at most 5% more cycles than write-through",
                ("WB vs 1.05 x WT cycles", wb["cycles"], "<=", wt["cycles"] * 1.05))
