//! `compare A B`: two result sets side by side.
//!
//! A set is a directory `run.sh` wrote: per workload one
//! `<workload>.e2e.jsonl` and one `<workload>.layers.jsonl`, each line a
//! result object in the driver's format (one line per run). For every
//! metric × workload the comparer prints both medians with quartiles, the
//! ratio B ÷ A with its base, the bound, and a verdict.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use crate::json::{self, Json};
use crate::metrics::{self, Better};
use crate::stats::{iqr_share, median, quartiles};
use crate::workload::Workload;

/// What the two sets say about one end-to-end metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is better than A beyond the noise.
    Better,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// Within the bound.
    Same,
    /// The run-to-run spread is wider than the bound and the sets overlap.
    Unresolved,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "WORSE",
            Verdict::Same => "same",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges set `b` (the change) against set `a` (the parent).
///
/// Where the spread of either set is wider than the bound the metric is
/// unresolved, unless every run of one set reads better than every run
/// of the other. Otherwise B is worse when its median is worse by more
/// than the bound, and better when it improves by more than the distance
/// between A's own quartiles.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (med_a, med_b) = (median(a), median(b));
    if med_a == 0.0 || a.is_empty() || b.is_empty() {
        return if med_a == med_b {
            Verdict::Same
        } else {
            Verdict::Unresolved
        };
    }
    // Signed so that larger means worse, whichever way the metric improves.
    let sign = if better == Better::Lower { 1.0 } else { -1.0 };
    let worse_by = sign * (med_b - med_a) / med_a.abs();
    let badness = |v: &[f64]| -> (f64, f64) {
        let signed = v.iter().map(|x| sign * x);
        (
            signed.clone().fold(f64::INFINITY, f64::min),
            signed.fold(f64::NEG_INFINITY, f64::max),
        )
    };
    let ((a_best, a_worst), (b_best, b_worst)) = (badness(a), badness(b));
    if iqr_share(a).max(iqr_share(b)) > bound {
        return if b_worst < a_best {
            Verdict::Better
        } else if b_best > a_worst && worse_by > bound {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        Verdict::Worse
    } else if -worse_by > iqr_share(a) {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Metric name → one value per run.
type Samples = BTreeMap<String, Vec<f64>>;

fn read_set(file: &Path) -> Result<Samples, String> {
    let text = std::fs::read_to_string(file).map_err(|e| format!("{}: {e}", file.display()))?;
    let mut samples = Samples::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let doc = json::parse(line).map_err(|e| format!("{}:{}: {e}", file.display(), n + 1))?;
        let metrics = doc
            .get("metrics")
            .and_then(Json::obj)
            .ok_or_else(|| format!("{}:{}: no metrics object", file.display(), n + 1))?;
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::num) {
                samples.entry(name.clone()).or_default().push(v);
            }
        }
    }
    Ok(samples)
}

fn fmt_set(v: &[f64]) -> String {
    let [q1, q2, q3] = quartiles(v);
    format!("{q2:>12.4} [{q1:.4} .. {q3:.4}] n={}", v.len())
}

/// Compares the sets in directories `a` and `b`.
///
/// # Errors
///
/// Returns a message when neither set holds a result file.
pub fn compare(a: &Path, b: &Path) -> Result<String, String> {
    let mut out = String::new();
    let mut found = false;
    let _ = writeln!(
        out,
        "A = {}   B = {}   (every ratio is B / A, base A)",
        a.display(),
        b.display()
    );
    for workload in Workload::ALL {
        for (kind, gated) in [("e2e", true), ("layers", false)] {
            let file = format!("{}.{kind}.jsonl", workload.name());
            let (Ok(sa), Ok(sb)) = (read_set(&a.join(&file)), read_set(&b.join(&file))) else {
                continue;
            };
            found = true;
            let _ = writeln!(out, "\n== {} ({kind}) ==", workload.name());
            let _ = writeln!(
                out,
                "{:<34} {:>6} {:>44} {:>44} {:>9} {:>7}  verdict",
                "metric", "unit", "A median [q1 .. q3]", "B median [q1 .. q3]", "B/A", "bound"
            );
            for (name, va) in &sa {
                let Some(vb) = sb.get(name) else { continue };
                let spec = metrics::find(name);
                let unit = spec.map_or("", |s| s.unit);
                let base = median(va);
                let rel = if base == 0.0 { 0.0 } else { median(vb) / base };
                let (bound, verdict) = match spec {
                    Some(s) if gated => (
                        format!("{:.1}%", s.bound * 100.0),
                        judge(va, vb, s.better, s.bound).word(),
                    ),
                    _ => ("-".to_string(), ""),
                };
                let _ = writeln!(
                    out,
                    "{name:<34} {unit:>6} {:>44} {:>44} {rel:>9.4} {bound:>7}  {verdict}",
                    fmt_set(va),
                    fmt_set(vb),
                );
            }
        }
    }
    if found {
        Ok(out)
    } else {
        Err(format!(
            "no <workload>.e2e.jsonl / .layers.jsonl found in both {} and {}",
            a.display(),
            b.display()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_shift_inside_the_bound_is_same() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let b = [98.0, 99.0, 97.5, 98.5, 99.2];
        assert_eq!(judge(&a, &b, Better::Higher, 0.10), Verdict::Same);
    }

    #[test]
    fn median_worse_than_the_bound_is_worse() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let b = [85.0, 86.0, 84.0, 85.5, 84.5];
        assert_eq!(judge(&a, &b, Better::Higher, 0.10), Verdict::Worse);
        // The same numbers as latencies are an improvement.
        assert_eq!(judge(&a, &b, Better::Lower, 0.10), Verdict::Better);
    }

    #[test]
    fn wide_overlapping_spread_is_unresolved() {
        let a = [100.0, 140.0, 70.0, 120.0, 85.0];
        let b = [95.0, 130.0, 60.0, 125.0, 80.0];
        assert_eq!(judge(&a, &b, Better::Higher, 0.10), Verdict::Unresolved);
    }

    #[test]
    fn every_run_better_resolves_a_noisy_metric() {
        let a = [100.0, 140.0, 70.0, 120.0, 85.0];
        let b = [200.0, 260.0, 150.0, 240.0, 170.0];
        assert_eq!(judge(&a, &b, Better::Higher, 0.10), Verdict::Better);
    }

    #[test]
    fn compare_reads_result_lines() {
        // Under the crate's own ignored `out/`, not the system temp dir.
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/test-compare");
        let (a, b) = (dir.join("a"), dir.join("b"));
        for (set, tok_s) in [(&a, [300.0, 310.0]), (&b, [200.0, 205.0])] {
            std::fs::create_dir_all(set).expect("temp dir");
            let lines: Vec<String> = tok_s
                .iter()
                .map(|&v| json::result_line(true, 10, 0, &[("tok_s", v, "tok/s")]))
                .collect();
            std::fs::write(set.join("solo_ar.e2e.jsonl"), lines.join("\n")).expect("write");
        }
        let text = compare(&a, &b).expect("both sets present");
        assert!(text.contains("== solo_ar (e2e) =="), "{text}");
        assert!(text.contains("WORSE"), "{text}");
        assert!(text.contains("n=2"), "{text}");
        assert!(compare(&dir.join("missing"), &b).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
