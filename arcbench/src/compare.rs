//! `arcbench compare A.jsonl B.jsonl`: apply each end-to-end metric's bound,
//! workload by workload, to two sets of recorded runs (`--append` files).
//! A is the base, B the candidate.

use crate::json::Json;
use crate::metrics::{self, Better};
use crate::stats::{summarize, Summary};

struct Record {
    workload: String,
    key: String,
    traced: bool,
    failed: f64,
    attempted: f64,
    json: Json,
}

fn load(path: &str) -> Result<Vec<Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let mut records = Vec::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let json = Json::parse(line).map_err(|e| format!("{path}: {e}"))?;
        let text_of = |k: &str| json.get(k).map(Json::render).unwrap_or_default();
        let number = |k: &str| json.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        records.push(Record {
            workload: json
                .get("workload")
                .and_then(Json::as_str)
                .ok_or("record without a workload")?
                .to_string(),
            key: format!(
                "{} seed {} trace {} smoke {}",
                text_of("workload"),
                text_of("seed"),
                text_of("trace"),
                text_of("smoke")
            ),
            traced: json.get("trace").and_then(Json::as_bool).unwrap_or(false),
            failed: number("failed"),
            attempted: number("attempted").max(1.0),
            json,
        });
    }
    Ok(records)
}

fn values(records: &[Record], workload: &str, metric: &str) -> Vec<f64> {
    records
        .iter()
        .filter(|r| r.workload == workload && !r.traced)
        .filter_map(|r| r.json.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// Inter-quartile range as a share of the median.
fn spread(s: &Summary) -> f64 {
    (s.q3 - s.q1) / s.median.abs().max(f64::MIN_POSITIVE)
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    Ok,
    Regressed,
    /// Run-to-run spread is wider than the bound, so the medians cannot
    /// show that the metric held.
    Unresolved,
}

/// Judge candidate runs `b` against base runs `a` for one metric.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (sa, sb) = (summarize(a), summarize(b));
    let worse_by = match better {
        Better::Higher => (sa.median - sb.median) / sa.median.abs(),
        Better::Lower => (sb.median - sa.median) / sa.median.abs(),
    };
    if worse_by > bound {
        return Verdict::Regressed;
    }
    let every_b_better = match better {
        Better::Higher => sb.min > sa.max,
        Better::Lower => sb.max < sa.min,
    };
    if spread(&sa).max(spread(&sb)) > bound && !every_b_better {
        return Verdict::Unresolved;
    }
    Verdict::Ok
}

/// Print one row per (metric, workload); `Ok(false)` on any regression, any
/// rise in failed ops, or any exact count that differs between runs of the
/// same workload, seed and mode.
pub fn run(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let mut all_ok = true;
    println!("base A = {path_a} ({} runs), candidate B = {path_b} ({} runs)", a.len(), b.len());
    println!(
        "{:<16} {:<15} {:>12} {:>9} {:>12} {:>9} {:>9} {:>6}  verdict",
        "metric", "workload", "median A", "IQR A", "median B", "IQR B", "B/A", "bound"
    );
    for w in &metrics::WORKLOADS {
        for m in metrics::end_to_end() {
            let (va, vb) = (values(&a, w.name, &m.name), values(&b, w.name, &m.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let bound = m.bound.unwrap_or(0.0);
            let verdict = judge(&va, &vb, m.better, bound);
            all_ok &= verdict != Verdict::Regressed;
            let (sa, sb) = (summarize(&va), summarize(&vb));
            println!(
                "{:<16} {:<15} {:>12.4} {:>8.1}% {:>12.4} {:>8.1}% {:>9.4} {:>5.0}%  {}",
                m.name,
                w.name,
                sa.median,
                100.0 * spread(&sa),
                sb.median,
                100.0 * spread(&sb),
                sb.median / sa.median,
                100.0 * bound,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        let failed_frac = |rs: &[Record]| {
            let of_w: Vec<&Record> = rs.iter().filter(|r| r.workload == w.name).collect();
            of_w.iter().map(|r| r.failed).sum::<f64>()
                / of_w.iter().map(|r| r.attempted).sum::<f64>().max(1.0)
        };
        let (fa, fb) = (failed_frac(&a), failed_frac(&b));
        let verdict = if fb > fa { "regressed" } else { "ok" };
        all_ok &= fb <= fa;
        println!(
            "{:<16} {:<15} {fa:>12} {:>9} {fb:>12} {:>9} {:>9} {:>6}  {verdict}",
            "failed_frac", w.name, "", "", "", "any"
        );
    }

    let (mut compared, mut differing) = (0, 0);
    for ra in &a {
        for rb in b.iter().filter(|rb| rb.key == ra.key) {
            compared += 1;
            if ra.json.get("exact") != rb.json.get("exact") {
                differing += 1;
                println!("exact counts differ: {}", ra.key);
            }
        }
    }
    println!("exact counts: {compared} run pairs with the same workload, seed and mode compared, {differing} differ");
    Ok(all_ok && differing == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_separates_ok_regressed_and_unresolved() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        // 3 % slower under a 7 % bound: ok. 10 % slower: regressed.
        assert_eq!(
            judge(&base, &[97.0, 97.5, 96.5, 97.2, 96.8], Better::Higher, 0.07),
            Verdict::Ok
        );
        assert_eq!(
            judge(&base, &[90.0, 90.5, 89.5, 90.2, 89.8], Better::Higher, 0.07),
            Verdict::Regressed
        );
        // For a lower-is-better metric the same numbers read the other way.
        assert_eq!(judge(&base, &[90.0, 90.5, 89.5, 90.2, 89.8], Better::Lower, 0.07), Verdict::Ok);
        assert_eq!(
            judge(&base, &[110.0, 110.5, 109.5, 110.2, 111.0], Better::Lower, 0.07),
            Verdict::Regressed
        );
        // Spread wider than the bound: the medians agree but show nothing.
        let noisy = [80.0, 120.0, 100.0, 90.0, 110.0];
        assert_eq!(judge(&noisy, &base, Better::Higher, 0.07), Verdict::Unresolved);
        // Unless every candidate run beats every base run.
        assert_eq!(judge(&noisy, &[130.0, 170.0, 150.0], Better::Higher, 0.07), Verdict::Ok);
    }

    #[test]
    fn result_lines_written_by_the_json_writer_are_read_back() {
        let dir = std::env::temp_dir().join(format!("arcbench-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let line = |rate: f64, failed: f64| {
            let metrics = metrics::end_to_end()
                .iter()
                .map(|m| {
                    (
                        m.name.clone(),
                        Json::obj(vec![
                            ("value", Json::Num(rate)),
                            ("unit", Json::Str(m.unit.into())),
                        ]),
                    )
                })
                .collect();
            Json::obj(vec![
                ("workload", Json::Str("ecc_bulk".into())),
                ("seed", Json::Str("24301".into())),
                ("trace", Json::Bool(false)),
                ("smoke", Json::Bool(true)),
                ("attempted", Json::Num(40.0)),
                ("failed", Json::Num(failed)),
                ("metrics", Json::Obj(metrics)),
                ("exact", Json::obj(vec![("parity8.stored_bytes", Json::Num(4718592.0))])),
            ])
            .render()
        };
        let write = |name: &str, lines: Vec<String>| {
            let path = dir.join(name);
            std::fs::write(&path, lines.join("\n") + "\n").unwrap();
            path.to_string_lossy().into_owned()
        };
        let a = write("a.jsonl", vec![line(100.0, 0.0), line(101.0, 0.0), line(99.0, 0.0)]);
        let same = write("same.jsonl", vec![line(100.2, 0.0), line(100.9, 0.0), line(99.1, 0.0)]);
        let failing = write("failing.jsonl", vec![line(100.0, 1.0)]);
        assert_eq!(
            values(&load(&a).unwrap(), "ecc_bulk", "protect_mib_s"),
            vec![100.0, 101.0, 99.0]
        );
        assert_eq!(run(&a, &same), Ok(true));
        assert_eq!(run(&a, &failing), Ok(false), "a rise in failed ops is a regression");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
