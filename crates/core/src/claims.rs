//! The paper's §5 claims, each defined once.
//!
//! [`PAPER_CLAIMS`] is every claim EXPERIMENTS.md scores: the paper
//! section, the claim, the value as the paper prints it, and one
//! check over points of [`crate::experiments::FIGURES`]' subfigures.
//! `bsim score` evaluates every row on the figures it computes (or
//! replays from a result store) and prints the Markdown block
//! EXPERIMENTS.md carries; the golden store (`tests/golden.rs`) scores
//! every row on its smoke figures and pins the verdict.
//!
//! A check yields a *distance*, in log-ratio units (0 when it holds;
//! 0.1 is about 10 % off), and a [`Verdict`]: met when it holds,
//! partial when it misses by at most `ln(slack)`, deviates otherwise.
//! Slacks follow one rule: a value the paper prints as a number gets
//! `FAR` (2), a qualitative claim gets `NEAR` (1.18), and a row that
//! replaced an older test keeps that test's bound. "≈ v" is `v` within
//! `NEAR`.

use crate::experiments::{figure, Series};
use crate::metrics::deviation_from_parity;
use bsim_workloads::microbench::{self, Category};
use std::fmt::Write as _;

/// "≈": within this factor either way.
const NEAR: f64 = 1.18;
/// A printed value's tolerance: within a factor of 2 of the paper's band.
const FAR: f64 = 2.0;
const INF: f64 = f64::INFINITY;

/// The paper's single-core CG gain from the L1 step alone, as a
/// stock-over-tuned runtime ratio.
const L1_CG_GAIN: f64 = 1.0 / (1.0 - 0.277);

/// Which points a check reads: every label of every series of every
/// subfigure, in that order.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Sel {
    figs: &'static [&'static str],
    series: &'static [&'static str],
    labels: Labels,
}

/// The point labels of a [`Sel`].
#[derive(Clone, Copy, Debug)]
pub(crate) enum Labels {
    /// Every point of the series.
    All,
    /// These labels, in this order.
    Named(&'static [&'static str]),
    /// The MicroBench kernels of these Table 1 categories, in plot order.
    Kinds(&'static [Category]),
}

/// How a claim is checked.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Check {
    /// Every point lies in `[lo, hi]`.
    Band(Sel, f64, f64),
    /// Every quotient of the first selection's points by the second's,
    /// paired in order, lies in `[lo, hi]`.
    Ratio(Sel, Sel, f64, f64),
    /// Every point of the first selection exceeds every point of the second.
    Direction(Sel, Sel),
    /// The first selection is closer to parity than each of the others,
    /// by [`deviation_from_parity`].
    Ordering(Sel, &'static [Sel]),
}

/// One claim of the paper's evaluation.
#[derive(Debug)]
pub struct Claim {
    pub id: &'static str,
    /// Paper section.
    pub section: &'static str,
    pub claim: &'static str,
    /// The value as the paper prints it.
    pub paper: &'static str,
    pub(crate) check: Check,
    /// Tolerance factor: a miss within `ln(slack)` is partial.
    pub(crate) slack: f64,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Met,
    Partial,
    Deviates,
}

/// A claim evaluated on a set of figures.
#[derive(Clone, Debug)]
pub struct Score {
    pub verdict: Verdict,
    pub distance: f64,
    /// The points the verdict rests on, for a reader.
    pub measured: String,
}

/// Subfigure key → its series: what a claim reads.
pub type Figures<'a> = [(&'a str, &'a [Series])];

const fn on(figs: &'static [&'static str], series: &'static [&'static str], labels: Labels) -> Sel {
    Sel {
        figs,
        series,
        labels,
    }
}

/// "≈ v" as a band.
const fn approx(v: f64) -> (f64, f64) {
    (v / NEAR, v * NEAR)
}

use Category::{Cache, ControlFlow, Data, Execution, Memory};
use Check::{Band, Direction, Ordering, Ratio};
use Labels::{All, Kinds, Named};

const FIG1: &[&str] = &["fig1"];
const FIG2: &[&str] = &["fig2"];
const FIG3: &[&str] = &["fig3a", "fig3b"];
const FIG4A: &[&str] = &["fig4a"];
const FIG4B: &[&str] = &["fig4b1", "fig4b4"];
const FIG4B1: &[&str] = &["fig4b1"];
const FIG4B4: &[&str] = &["fig4b4"];
const FIG5: &[&str] = &["fig5"];
const FIG6: &[&str] = &["fig6"];
const FIG7: &[&str] = &["fig7"];

const BPI: &[&str] = &["Banana Pi Sim Model"];
const FAST: &[&str] = &["Fast Banana Pi Sim Model"];
const ROCKET1: &[&str] = &["Rocket 1"];
const ROCKET2: &[&str] = &["Rocket 2"];
const ROCKETS: &[&str] = &["Rocket 1", "Rocket 2", "Banana Pi Sim Model"];
const SMALL: &[&str] = &["Small BOOM"];
const MEDIUM: &[&str] = &["Medium BOOM"];
const LARGE: &[&str] = &["Large BOOM"];
const MILKV: &[&str] = &["MILK-V Sim Model"];
const RUNTIMES: &[&str] = &[
    "Banana Pi (hw) runtime [s]",
    "Banana Pi Sim Model runtime [s]",
    "MILK-V (hw) runtime [s]",
    "MILK-V Sim Model runtime [s]",
];
const BPI_REL: &[&str] = &["Banana Pi rel. speedup"];
const MILKV_REL: &[&str] = &["MILK-V rel. speedup"];

const COMPUTE: Labels = Kinds(&[ControlFlow, Data, Execution]);
/// Figure 2's cache kernels other than the conflict-miss and
/// instruction-miss ones it makes separate claims about.
#[rustfmt::skip]
const OTHER_CACHE: Labels = Named(&[
    "MD", "MI", "MIM", "MIM2", "ML2", "ML2_BW_ld", "ML2_BW_ldst", "ML2_BW_st", "ML2_st", "STL2",
    "STL2b", "STc", "M_Dyn",
]);
const NPB_GAINS: Labels = Named(&["CG", "IS"]);

/// An application figure's runtimes shrink from each rank count to the next.
const fn scales(fig: &'static [&'static str]) -> Check {
    Ratio(
        on(fig, RUNTIMES, Named(&["2 ranks", "4 ranks"])),
        on(fig, RUNTIMES, Named(&["1 ranks", "2 ranks"])),
        0.0,
        1.0,
    )
}

/// A relative-speedup series of an application figure lies near `v`.
const fn gap(fig: &'static [&'static str], pair: &'static [&'static str], v: f64) -> Check {
    let (lo, hi) = approx(v);
    Band(on(fig, pair, All), lo, hi)
}

/// A band over the points of `sel`.
const fn band(sel: Sel, (lo, hi): (f64, f64)) -> Check {
    Band(sel, lo, hi)
}

/// Every claim of the paper's Figures 1–7, in figure order.
#[rustfmt::skip]
pub static PAPER_CLAIMS: [Claim; 38] = [
    Claim { id: "f1-memory-band", section: "5.1", paper: "0.35–0.37", slack: FAR,
        claim: "MM/MM_st achieve the lowest relative performance",
        check: Band(on(FIG1, BPI, Kinds(&[Memory])), 0.35, 0.37) },
    Claim { id: "f1-mm-lowest", section: "5.1", paper: "lowest", slack: NEAR,
        claim: "MM, the DRAM-bound linked list, shows the largest gap of the 39 kernels",
        check: Direction(on(FIG1, BPI, Kinds(&[ControlFlow, Data, Execution, Cache])),
                         on(FIG1, BPI, Named(&["MM"]))) },
    Claim { id: "f1-compute-below", section: "5.1", paper: "< 1.0 \"pretty uniformly\"", slack: NEAR,
        claim: "Control flow, data and execution kernels under-achieve uniformly",
        check: Band(on(FIG1, BPI, COMPUTE), 0.0, 1.0) },
    Claim { id: "f1-fast-compute", section: "5.1", paper: "better matching", slack: 1.8,
        claim: "The Fast (3.2 GHz) model improves control flow, data and execution: \
                their time scales with the clock",
        check: Ratio(on(FIG1, FAST, COMPUTE), on(FIG1, BPI, COMPUTE), 1.8, INF) },
    Claim { id: "f1-fast-cache", section: "5.1", paper: "improves", slack: NEAR,
        claim: "The Fast model's cache results improve further",
        check: Ratio(on(FIG1, FAST, Kinds(&[Cache])), on(FIG1, BPI, Kinds(&[Cache])), 1.0, INF) },
    Claim { id: "f1-fast-memory", section: "5.1", paper: "drops", slack: 1.4,
        claim: "The Fast model's memory kernels drop further",
        check: Ratio(on(FIG1, FAST, Kinds(&[Memory])), on(FIG1, BPI, Kinds(&[Memory])), 0.0, 1.0) },
    Claim { id: "f2-memory-band", section: "5.1", paper: "0.28–0.43", slack: FAR,
        claim: "Memory kernels reach a fraction of the silicon's performance on Large BOOM",
        check: Band(on(FIG2, LARGE, Kinds(&[Memory])), 0.28, 0.43) },
    Claim { id: "f2-large-boom-best", section: "5.1", paper: "selected", slack: NEAR,
        claim: "Large BOOM aligns best with the MILK-V",
        check: Ordering(on(FIG2, LARGE, All), &[on(FIG2, SMALL, All), on(FIG2, MEDIUM, All)]) },
    Claim { id: "f2-cr-best", section: "5.1", paper: "best", slack: NEAR,
        claim: "CRd/CRf are among the best performers",
        check: Band(on(FIG2, LARGE, Named(&["CRd", "CRf"])), 1.0 / NEAR, INF) },
    Claim { id: "f2-ex-chains", section: "5.1", paper: "< 1", slack: NEAR,
        claim: "Dependency-chain execution kernels (EM5, EF) under-perform",
        check: Band(on(FIG2, LARGE, Named(&["EM5", "EF"])), 0.0, 1.0) },
    Claim { id: "f2-ei-parity", section: "5.1", paper: "≈ 1", slack: FAR,
        claim: "EI is comparable to the hardware",
        check: band(on(FIG2, LARGE, Named(&["EI"])), approx(1.0)) },
    Claim { id: "f2-mip", section: "5.1", paper: "> 1", slack: NEAR,
        claim: "MIP substantially outperforms the hardware",
        check: Band(on(FIG2, LARGE, Named(&["MIP"])), NEAR, INF) },
    Claim { id: "f2-conflict", section: "5.1", paper: "mixed", slack: NEAR,
        claim: "Conflict-miss kernels (MC, MCS) do worse in simulation",
        check: Band(on(FIG2, LARGE, Named(&["MC", "MCS"])), 0.0, 1.0) },
    Claim { id: "f2-cache-similar", section: "5.1", paper: "mixed", slack: FAR,
        claim: "The other cache kernels perform similarly",
        check: band(on(FIG2, LARGE, OTHER_CACHE), approx(1.0)) },
    Claim { id: "f3-rocket12", section: "5.2.1", paper: "≈ 1", slack: FAR,
        claim: "No significant difference between Rocket 1 and Rocket 2",
        check: Ratio(on(FIG3, ROCKET2, All), on(FIG3, ROCKET1, All), 1.0 / NEAR, NEAR) },
    Claim { id: "f3-bpi-improves", section: "5.2.1", paper: "improves", slack: NEAR,
        claim: "The Banana Pi Sim Model improves CG and IS over Rocket 1",
        check: Ratio(on(FIG3, BPI, NPB_GAINS), on(FIG3, ROCKET1, NPB_GAINS), 1.0, INF) },
    Claim { id: "f3-ep-slower", section: "5.2.1", paper: "< 1", slack: NEAR,
        claim: "EP is slower on the simulated Rocket (single- vs dual-issue)",
        check: Band(on(FIG3, ROCKETS, Named(&["EP"])), 0.0, 1.0) },
    Claim { id: "f3-fast-closest", section: "5.2.1", paper: "best", slack: NEAR,
        claim: "The Fast model matches best",
        check: Ordering(on(FIG3, FAST, All),
                        &[on(FIG3, ROCKET1, All), on(FIG3, ROCKET2, All), on(FIG3, BPI, All)]) },
    Claim { id: "f3-fast-mg", section: "5.2.1", paper: "> 1", slack: NEAR,
        claim: "The Fast model overshoots on cache-sensitive MG",
        check: Band(on(FIG3, FAST, Named(&["MG"])), 1.0, INF) },
    Claim { id: "f4-large-boom-closest", section: "5.2.2", paper: "closest", slack: NEAR,
        claim: "Large BOOM is the closest stock config",
        check: Ordering(on(FIG4A, LARGE, All), &[on(FIG4A, SMALL, All), on(FIG4A, MEDIUM, All)]) },
    Claim { id: "f4-ep-close", section: "5.2.2", paper: "close", slack: FAR,
        claim: "EP runs close to the MILK-V on Large BOOM",
        check: band(on(FIG4A, LARGE, Named(&["EP"])), approx(1.0)) },
    Claim { id: "f4-npb-slower", section: "5.2.2", paper: "< 1", slack: NEAR,
        claim: "CG, IS and MG run noticeably slower on Large BOOM",
        check: Band(on(FIG4A, LARGE, Named(&["CG", "IS", "MG"])), 0.0, 1.0 / NEAR) },
    Claim { id: "f4-tuning-cg", section: "5.2.2", paper: "≈ 27.7 % (L1 step alone)", slack: L1_CG_GAIN,
        claim: "The MILK-V cache tuning improves single-core CG at least as much as its L1 step",
        check: Ratio(on(FIG4B1, MILKV, Named(&["CG"])), on(FIG4B1, LARGE, Named(&["CG"])),
                     L1_CG_GAIN, INF) },
    Claim { id: "f4-tuning-is-mg", section: "5.2.2", paper: "little effect", slack: FAR,
        claim: "The tuning has little effect on IS and MG",
        check: Ratio(on(FIG4B1, MILKV, Named(&["IS", "MG"])), on(FIG4B1, LARGE, Named(&["IS", "MG"])),
                     1.0 / NEAR, NEAR) },
    Claim { id: "f4-tuning-cg-4", section: "5.2.2", paper: "improves", slack: NEAR,
        claim: "The tuning improves CG on 4 cores",
        check: Ratio(on(FIG4B4, MILKV, Named(&["CG"])), on(FIG4B4, LARGE, Named(&["CG"])), 1.0, INF) },
    Claim { id: "f4-multicore-gap", section: "5.2.2", paper: "larger gap", slack: NEAR,
        claim: "On 4 cores the gap grows for CG and IS",
        check: Ratio(on(FIG4B4, MILKV, NPB_GAINS), on(FIG4B1, MILKV, NPB_GAINS), 0.0, 1.0) },
    Claim { id: "f4-mg-gap", section: "5.2.2", paper: "smaller gap", slack: NEAR,
        claim: "MG's gap is smaller at 4 cores (the MILK-V's MG does not scale)",
        check: Direction(on(FIG4B4, MILKV, Named(&["MG"])), on(FIG4B1, MILKV, Named(&["MG"]))) },
    Claim { id: "f4-ep-parity", section: "5.2.2", paper: "≈ 1", slack: FAR,
        claim: "EP reaches parity on 1 and 4 cores",
        check: band(on(FIG4B, MILKV, Named(&["EP"])), approx(1.0)) },
    Claim { id: "f4-ep-closest", section: "5.2.2", paper: "near parity", slack: NEAR,
        claim: "EP is the NPB kernel closest to parity",
        check: Ordering(on(FIG4B, MILKV, Named(&["EP"])), &[on(FIG4B, MILKV, Named(&["CG"])),
                        on(FIG4B, MILKV, Named(&["IS"])), on(FIG4B, MILKV, Named(&["MG"]))]) },
    Claim { id: "f5-scaling", section: "5.3", paper: "0.73/0.40/0.21 s (BPi hw, 1/2/4)", slack: NEAR,
        claim: "UME runtimes scale with MPI ranks everywhere",
        check: scales(FIG5) },
    Claim { id: "f5-bpi-close", section: "5.3", paper: "rel ≈ 0.73", slack: FAR,
        claim: "The Banana Pi Sim Model is close to the hardware",
        check: gap(FIG5, BPI_REL, 0.73) },
    Claim { id: "f5-milkv-gap", section: "5.3", paper: "rel ≈ 0.31", slack: FAR,
        claim: "The MILK-V significantly outperforms its simulation",
        check: gap(FIG5, MILKV_REL, 0.31) },
    Claim { id: "f6-bpi-gap", section: "5.3", paper: "13/55 ≈ 0.24", slack: FAR,
        claim: "LJ: a large gap on the Banana Pi pair",
        check: gap(FIG6, BPI_REL, 0.24) },
    Claim { id: "f6-milkv-gap", section: "5.3", paper: "4/21 ≈ 0.19", slack: FAR,
        claim: "LJ: a large gap on the MILK-V pair",
        check: gap(FIG6, MILKV_REL, 0.19) },
    Claim { id: "f6-scaling", section: "5.3", paper: "speedup with ranks", slack: NEAR,
        claim: "LJ scales with MPI ranks in all configurations",
        check: scales(FIG6) },
    Claim { id: "f7-bpi-gap", section: "5.3", paper: "9/28 ≈ 0.32", slack: FAR,
        claim: "Chain: a large gap on the Banana Pi pair",
        check: gap(FIG7, BPI_REL, 0.32) },
    Claim { id: "f7-milkv-gap", section: "5.3", paper: "4/13 ≈ 0.31", slack: FAR,
        claim: "Chain: a large gap on the MILK-V pair",
        check: gap(FIG7, MILKV_REL, 0.31) },
    Claim { id: "f7-scaling", section: "5.3", paper: "speedup with ranks", slack: NEAR,
        claim: "Chain scales with MPI ranks in all configurations",
        check: scales(FIG7) },
];

/// The claim named `id`. Panics on a name that is not in [`PAPER_CLAIMS`].
pub fn claim(id: &str) -> &'static Claim {
    PAPER_CLAIMS
        .iter()
        .find(|c| c.id == id)
        .unwrap_or_else(|| panic!("unknown claim {id}"))
}

/// A named point of a selection.
type Point = (String, f64);

impl Sel {
    fn points(&self, figs: &Figures) -> Result<Vec<Point>, String> {
        let mut out = Vec::new();
        for &fig in self.figs {
            let (_, all) = figs
                .iter()
                .find(|(key, _)| *key == fig)
                .ok_or_else(|| format!("no subfigure {fig}"))?;
            for &name in self.series {
                let series = all
                    .iter()
                    .find(|s| s.name == name)
                    .ok_or_else(|| format!("{fig} has no series {name}"))?;
                let tag = |label: &str| {
                    let mut parts = Vec::new();
                    if self.series.len() > 1 {
                        parts.push(name);
                    }
                    parts.push(label);
                    if self.figs.len() > 1 {
                        parts.push(fig);
                    }
                    parts.join(" ")
                };
                let kind = |label: &str, kinds: &[Category]| {
                    microbench::find(label).is_some_and(|k| kinds.contains(&k.category))
                };
                let picked: Vec<(&str, f64)> = match self.labels {
                    Named(labels) => labels
                        .iter()
                        .map(|&label| {
                            let point = series.points.iter().find(|(l, _)| l == label);
                            let missing = || format!("{fig} {name} has no point {label}");
                            point.map(|(_, v)| (label, *v)).ok_or_else(missing)
                        })
                        .collect::<Result<_, _>>()?,
                    All => series.points.iter().map(|(l, v)| (&l[..], *v)).collect(),
                    Kinds(kinds) => series
                        .points
                        .iter()
                        .filter(|(l, _)| kind(l, kinds))
                        .map(|(l, v)| (&l[..], *v))
                        .collect(),
                };
                out.extend(picked.into_iter().map(|(label, v)| (tag(label), v)));
            }
        }
        if out.is_empty() {
            return Err(format!("{self:?} selects no point"));
        }
        Ok(out)
    }

    /// What an ordering calls the selection: its one label, or its series.
    fn name(&self) -> String {
        match self.labels {
            Named([label]) => label.to_string(),
            _ => self.series.join("/"),
        }
    }
}

/// How far `v` lies outside `[lo, hi]`, in log-ratio units.
fn log_gap(v: f64, lo: f64, hi: f64) -> f64 {
    if v < lo {
        (lo / v).ln()
    } else if v > hi {
        (v / hi).ln()
    } else {
        0.0
    }
}

/// `v` with at most three decimals.
fn num(v: f64) -> String {
    if v.is_infinite() {
        return "∞".into();
    }
    let s = format!("{v:.3}");
    s.trim_end_matches('0').trim_end_matches('.').to_string()
}

fn range(lo: f64, hi: f64) -> String {
    match (lo, hi) {
        (lo, INF) => format!("≥ {}", num(lo)),
        (0.0, hi) => format!("≤ {}", num(hi)),
        (lo, hi) => format!("{}–{}", num(lo), num(hi)),
    }
}

/// Points against a band: its distance and a reader's summary.
fn banded(points: &[Point], lo: f64, hi: f64) -> (f64, String) {
    let gap = |(_, v): &&Point| log_gap(*v, lo, hi);
    let farthest = points.iter().max_by(|a, b| gap(a).total_cmp(&gap(b)));
    let distance = farthest.map(|p| gap(&p)).unwrap_or(0.0);
    let measured = if points.len() <= 3 {
        let each: Vec<String> = points
            .iter()
            .map(|(n, v)| format!("{n} {}", num(*v)))
            .collect();
        each.join(", ")
    } else {
        let (min, max) = points
            .iter()
            .fold((INF, -INF), |(lo, hi), (_, v)| (lo.min(*v), hi.max(*v)));
        let mut s = format!("{}–{} over {}", num(min), num(max), points.len());
        if let Some((name, v)) = farthest.filter(|_| distance > 0.0) {
            let _ = write!(s, "; farthest {name} {}", num(*v));
        }
        s
    };
    (distance, measured)
}

impl Check {
    /// Whether the check holds on `figs`, its distance, and what it read.
    fn eval(&self, figs: &Figures) -> Result<(bool, f64, String), String> {
        Ok(match self {
            Band(sel, lo, hi) => {
                let (distance, measured) = banded(&sel.points(figs)?, *lo, *hi);
                (distance == 0.0, distance, measured)
            }
            Ratio(num, den, lo, hi) => {
                let (n, d) = (num.points(figs)?, den.points(figs)?);
                if n.len() != d.len() {
                    return Err(format!("ratio pairs {} points with {}", n.len(), d.len()));
                }
                let quotients: Vec<Point> = n
                    .into_iter()
                    .zip(d)
                    .map(|((name, a), (_, b))| (name, a / b))
                    .collect();
                let (distance, measured) = banded(&quotients, *lo, *hi);
                (distance == 0.0, distance, measured)
            }
            Direction(above, below) => {
                // Name the subfigures when the two sides read different ones.
                let at = |sel: &Sel| match above.figs == below.figs {
                    true => String::new(),
                    false => format!("{} ", sel.figs.join("+")),
                };
                let (la, lb) = (at(above), at(below));
                let by = |a: &&Point, b: &&Point| a.1.total_cmp(&b.1);
                let (above, below) = (above.points(figs)?, below.points(figs)?);
                let (low, high) = (above.iter().min_by(by), below.iter().max_by(by));
                let (Some((ln, lv)), Some((hn, hv))) = (low, high) else {
                    unreachable!("a selection has points")
                };
                let measured = format!("{la}{ln} {} vs {lb}{hn} {}", num(*lv), num(*hv));
                (lv > hv, (hv / lv).ln().max(0.0), measured)
            }
            Ordering(closest, others) => {
                let dev = |sel: &Sel| -> Result<f64, String> {
                    let values: Vec<f64> = sel.points(figs)?.iter().map(|(_, v)| *v).collect();
                    Ok(deviation_from_parity(&values))
                };
                let mine = dev(closest)?;
                let mut measured = format!("deviation {} {}", closest.name(), num(mine));
                let mut best = INF;
                for other in *others {
                    let d = dev(other)?;
                    let _ = write!(measured, ", {} {}", other.name(), num(d));
                    best = best.min(d);
                }
                (mine < best, (mine - best).max(0.0), measured)
            }
        })
    }

    /// The check's pass condition, for a reader.
    fn describe(&self) -> String {
        match self {
            Band(_, lo, hi) => range(*lo, *hi),
            Ratio(_, _, lo, hi) => format!("ratio {}", range(*lo, *hi)),
            Direction(..) => "min > max".into(),
            Ordering(..) => "closest to 1".into(),
        }
    }

    /// The subfigure the claim is filed under.
    fn home(&self) -> &'static str {
        let (Band(sel, ..) | Ratio(sel, ..) | Direction(sel, _) | Ordering(sel, _)) = self;
        sel.figs[0]
    }
}

impl Claim {
    /// The claim evaluated on `figs`; `Err` when a point it reads is missing.
    pub fn score(&self, figs: &Figures) -> Result<Score, String> {
        let (holds, distance, measured) = self.check.eval(figs)?;
        let verdict = if holds {
            Verdict::Met
        } else if distance <= self.slack.ln() {
            Verdict::Partial
        } else {
            Verdict::Deviates
        };
        Ok(Score {
            verdict,
            distance,
            measured,
        })
    }
}

/// The first and last line of the block [`markdown`] renders.
pub const BLOCK: (&str, &str) = (
    "<!-- bsim score: generated, edit crates/core/src/claims.rs instead -->",
    "<!-- end of bsim score -->",
);

/// Every claim scored on `figs` (computed at `preset`) as Markdown: one
/// table per figure, then the tally, between the [`BLOCK`] markers.
pub fn markdown(figs: &Figures, preset: &str) -> Result<String, String> {
    let mut out = format!("{}\n", BLOCK.0);
    let mut tally = [0usize; 3];
    let mut filed = "";
    for claim in &PAPER_CLAIMS {
        let id = figure(claim.check.home()).id;
        if id != filed {
            filed = id;
            let _ = write!(
                out,
                "\n#### Figure {id} (`bsim fig {id}`)\n\n\
                 | Id | § | Claim (paper) | Paper value | Check | Measured | Verdict | Distance |\n\
                 |---|---|---|---|---|---|---|---|\n"
            );
        }
        let score = claim
            .score(figs)
            .map_err(|e| format!("{}: {e}", claim.id))?;
        let verdict = match score.verdict {
            Verdict::Met => "met ✓",
            Verdict::Partial => "partial",
            Verdict::Deviates => "**deviates**",
        };
        tally[score.verdict as usize] += 1;
        let _ = writeln!(
            out,
            "| `{}` | {} | {} | {} | {} (×{}) | {} | {verdict} | {:.3} |",
            claim.id,
            claim.section,
            claim.claim,
            claim.paper,
            claim.check.describe(),
            num(claim.slack),
            score.measured,
            score.distance,
        );
    }
    let _ = write!(
        out,
        "\nScored at the `{preset}` sizes: {} met, {} partial, {} deviate, of {} claims.\n{}\n",
        tally[0],
        tally[1],
        tally[2],
        PAPER_CLAIMS.len(),
        BLOCK.1
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::FIGURES;

    #[test]
    fn claims_are_unique_and_filed_in_figure_order() {
        let id = |c: &Claim| {
            FIGURES
                .iter()
                .find(|f| f.key == c.check.home())
                .map(|f| f.id)
        };
        let order = |c: &Claim| FIGURES.iter().position(|f| Some(f.id) == id(c));
        for pair in PAPER_CLAIMS.windows(2) {
            assert!(
                order(&pair[0]) <= order(&pair[1]),
                "{} files after {}",
                pair[0].id,
                pair[1].id
            );
        }
        for (i, c) in PAPER_CLAIMS.iter().enumerate() {
            assert!(order(c).is_some(), "{} reads no subfigure of FIGURES", c.id);
            assert!(c.slack >= 1.0, "{}", c.id);
            assert!(
                PAPER_CLAIMS[..i].iter().all(|d| d.id != c.id),
                "{} twice",
                c.id
            );
        }
        assert_eq!(claim("f4-tuning-cg").section, "5.2.2");
    }

    #[test]
    fn each_kind_scores_met_partial_and_deviates() {
        let series = |name: &str, points: &[(&str, f64)]| Series {
            name: name.into(),
            points: points.iter().map(|(l, v)| (l.to_string(), *v)).collect(),
        };
        let fig = [
            series("a", &[("x", 1.0), ("y", 0.5)]),
            series("b", &[("x", 2.0), ("y", 0.55)]),
        ];
        let figs: &Figures = &[("t", &fig)];
        let sel = |s: &'static [&'static str], l: &'static [&'static str]| on(&["t"], s, Named(l));
        let score = |check: Check, slack: f64| {
            let c = Claim {
                id: "t",
                section: "0",
                claim: "",
                paper: "",
                check,
                slack,
            };
            let s = c.score(figs).unwrap();
            (s.verdict, (s.distance * 1000.0).round() / 1000.0)
        };
        let (a, b) = (&["a"][..], &["b"][..]);
        assert_eq!(
            score(Band(sel(a, &["x", "y"]), 0.5, 1.0), 2.0),
            (Verdict::Met, 0.0)
        );
        assert_eq!(
            score(Band(sel(a, &["y"]), 0.6, 1.0), 2.0),
            (Verdict::Partial, 0.182)
        );
        assert_eq!(
            score(Band(sel(a, &["y"]), 0.6, 1.0), 1.1),
            (Verdict::Deviates, 0.182)
        );
        assert_eq!(
            score(Ratio(sel(b, &["x"]), sel(a, &["x"]), 1.5, INF), 1.0),
            (Verdict::Met, 0.0)
        );
        assert_eq!(
            score(Direction(sel(b, &["y"]), sel(a, &["y"])), 1.0),
            (Verdict::Met, 0.0)
        );
        assert_eq!(
            score(Direction(sel(a, &["x", "y"]), sel(b, &["y"])), 1.2),
            (Verdict::Partial, 0.095)
        );
        const OTHERS: &[Sel] = &[on(&["t"], &["b"], All)];
        assert_eq!(
            score(Ordering(on(&["t"], &["a"], All), OTHERS), 1.0),
            (Verdict::Met, 0.0)
        );
        let missing = Claim {
            check: Band(sel(a, &["z"]), 0.0, 1.0),
            ..PAPER_CLAIMS[0]
        };
        assert!(missing.score(figs).unwrap_err().contains("no point z"));
    }
}
