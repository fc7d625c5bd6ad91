//! `rsj-benchmark compare A.json... -- B.json...`: two sets of results
//! files (base first), one row per workload × end-to-end metric.
//!
//! The verdict follows the choosing-metrics rules: a metric has
//! `regressed` when the new median is worse than the base median by
//! more than its bound; it is `unresolved`, not unchanged, when either
//! side's own spread exceeds the bound — unless every new run beats
//! every base run. Exact counts are held to no change at all when both
//! sides ran the same seeds.

use std::process::ExitCode;

use crate::json::Json;
use crate::spec::{Better, Metric, END_TO_END, WORKLOADS};
use crate::stats::quartiles;

struct ResultsFile {
    seed: u64,
    doc: Json,
}

fn load(path: &str) -> Result<ResultsFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let seed = doc
        .get("provenance")
        .and_then(|p| p.get("seed"))
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("{path}: no provenance.seed"))?;
    Ok(ResultsFile { seed, doc })
}

fn values(files: &[ResultsFile], workload: &str, metric: &str) -> Vec<f64> {
    files
        .iter()
        .filter_map(|f| {
            f.doc
                .get("workloads")?
                .get(workload)?
                .get("metrics")?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

#[derive(Debug, PartialEq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

/// Judges one metric on one workload. `bound` is already 0 for an exact
/// count compared on equal seeds.
pub fn judge(better: Better, bound: f64, base: &[f64], new: &[f64]) -> Verdict {
    let [b1, b2, b3] = quartiles(base);
    let [n1, n2, n3] = quartiles(new);
    let share = |x: f64, of: f64| if of == 0.0 { 0.0 } else { x / of.abs() };
    let worse_by = match better {
        Better::Lower => share(n2 - b2, b2),
        Better::Higher => share(b2 - n2, b2),
    };
    let spread = share(b3 - b1, b2).max(share(n3 - n1, n2));
    if spread > bound {
        let every_new_run_wins = match better {
            Better::Lower => max(new) < min(base),
            Better::Higher => min(new) > max(base),
        };
        return if every_new_run_wins {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn min(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

fn max(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

fn effective_bound(m: &Metric, same_seeds: bool) -> f64 {
    if m.exact && same_seeds {
        0.0
    } else {
        m.bound
    }
}

pub fn run(args: &[String]) -> Result<ExitCode, String> {
    let split = args
        .iter()
        .position(|a| a == "--")
        .ok_or("usage: compare BASE.json... -- NEW.json...")?;
    let load_all = |paths: &[String]| paths.iter().map(|p| load(p)).collect::<Result<Vec<_>, _>>();
    let (base, new) = (load_all(&args[..split])?, load_all(&args[split + 1..])?);
    if base.is_empty() || new.is_empty() {
        return Err("compare needs at least one file on each side of --".into());
    }
    let seeds = |files: &[ResultsFile]| {
        let mut s: Vec<u64> = files.iter().map(|f| f.seed).collect();
        s.sort_unstable();
        s
    };
    let same_seeds = seeds(&base) == seeds(&new);
    println!(
        "base: {} runs, new: {} runs, seeds {}",
        base.len(),
        new.len(),
        if same_seeds {
            "equal (exact counts held to no change)"
        } else {
            "differ"
        }
    );
    println!(
        "{:<13} {:<24} {:>12} {:>23} {:>12} {:>23} {:>9} {:>6}  verdict",
        "workload",
        "metric",
        "base median",
        "[q1, q3]",
        "new median",
        "[q1, q3]",
        "new/base",
        "bound"
    );

    let mut regressed = 0;
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let (b, n) = (values(&base, w.name, m.name), values(&new, w.name, m.name));
            if b.is_empty() || n.is_empty() {
                return Err(format!("{} × {}: missing on one side", w.name, m.name));
            }
            let bound = effective_bound(m, same_seeds);
            let verdict = judge(m.better, bound, &b, &n);
            let ([b1, b2, b3], [n1, n2, n3]) = (quartiles(&b), quartiles(&n));
            println!(
                "{:<13} {:<24} {:>12.4} {:>23} {:>12.4} {:>23} {:>9.4} {:>6.2}  {}",
                w.name,
                m.name,
                b2,
                format!("[{b1:.4}, {b3:.4}]"),
                n2,
                format!("[{n1:.4}, {n3:.4}]"),
                n2 / b2,
                bound,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => {
                        regressed += 1;
                        "regressed"
                    }
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    Ok(if regressed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let steady = [100.0, 101.0, 99.0, 100.5];
        // Within the bound.
        assert_eq!(
            judge(Better::Lower, 0.10, &steady, &[104.0, 105.0, 103.0]),
            Verdict::Ok
        );
        // Worse by more than the bound, both sides steady.
        assert_eq!(
            judge(Better::Lower, 0.10, &steady, &[115.0, 116.0, 114.0]),
            Verdict::Regressed
        );
        assert_eq!(
            judge(Better::Higher, 0.10, &steady, &[85.0, 86.0, 84.0]),
            Verdict::Regressed
        );
        // Spread beyond the bound and interleaved runs: cannot tell.
        assert_eq!(
            judge(
                Better::Lower,
                0.10,
                &[80.0, 100.0, 120.0],
                &[90.0, 110.0, 130.0]
            ),
            Verdict::Unresolved
        );
        // Noisy, but every new run beats every base run.
        assert_eq!(
            judge(
                Better::Lower,
                0.10,
                &[80.0, 100.0, 120.0],
                &[50.0, 60.0, 70.0]
            ),
            Verdict::Ok
        );
        // Exact counts: any worsening regresses, none is fine.
        assert_eq!(
            judge(Better::Lower, 0.0, &[1410.0; 3], &[1410.0; 3]),
            Verdict::Ok
        );
        assert_eq!(
            judge(Better::Lower, 0.0, &[1410.0; 3], &[1411.0; 3]),
            Verdict::Regressed
        );
    }
}
