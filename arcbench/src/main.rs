//! `arcbench`: the paper's pipeline end to end, four workloads, a per-layer
//! ledger. See `README.md` beside this package for the workload and metric
//! tables; `run.sh` builds and runs this binary.
//!
//! ```text
//! arcbench --workload W --seed N --seconds S --trace 0|1 [--smoke]
//!          [--append FILE] [--check-counts FILE] [--out-dir DIR]
//! arcbench compare A.jsonl B.jsonl
//! arcbench manifest
//! ```

mod alloc;
mod cells;
mod checkpoint;
mod compare;
mod compressors;
mod ecc_bulk;
mod inputs;
mod json;
mod metrics;
mod probes;
mod stats;
mod tile_serve;
mod trace;

use std::io::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use arc_pressio::CompressorSpec;

use cells::{Outcome, Passes};
use json::Json;
use trace::Tracer;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// One invocation: which workload, on what inputs, for how long.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub scale: inputs::Scale,
}

/// Set up `reps` times, timing each from scratch, and keep the last. The
/// untraced run reports the median as `setup_s`; a traced run, which
/// reports no end-to-end metric, sets up once.
pub fn timed_setups<S>(
    run: &Run,
    mut setup: impl FnMut() -> Result<S, String>,
) -> Result<(S, f64), String> {
    let reps = if run.traced { 1 } else { 3 };
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup()?);
        times.push(t0.elapsed().as_secs_f64());
    }
    last.map(|s| (s, stats::median(&times))).ok_or_else(|| "no set-up ran".to_string())
}

/// The coverage ledger of a traced run, and what tracing cost: how much of
/// each op's wall time the spans around layer calls account for, which
/// layers that time went to, and traced over untraced pass time.
pub fn record_ledger(tr: &Tracer, passes: &Passes, out: &mut Outcome) {
    let spans = tr.spans();
    let protect = trace::ledger(spans, &["protect", "write"]);
    let recover = trace::ledger(spans, &["recover", "read"]);
    out.set("ledger.protect_coverage", protect.coverage());
    out.set("ledger.recover_coverage", recover.coverage());
    let wall = (protect.wall_ns + recover.wall_ns).max(1) as f64;
    out.set("ledger.compressor_share", (protect.pressio_ns + recover.pressio_ns) as f64 / wall);
    out.set("ledger.ecc_core_share", (protect.core_ns + recover.core_ns) as f64 / wall);
    out.set("trace.spans", spans.len() as f64);
    if !passes.traced_pass_ns.is_empty() && !passes.untraced_pass_ns.is_empty() {
        let overhead =
            stats::median(&passes.traced_pass_ns) / stats::median(&passes.untraced_pass_ns) - 1.0;
        out.set("trace.overhead_frac", overhead);
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", metrics::manifest());
            Ok(true)
        }
        Some("compare") => match args.as_slice() {
            [_, a, b] => compare::run(a, b),
            _ => Err("usage: arcbench compare A.jsonl B.jsonl".into()),
        },
        _ => parse(&args).and_then(|(run, files)| measure(&run, &files)),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("arcbench: {why}");
            ExitCode::from(2)
        }
    }
}

#[derive(Default)]
struct Files {
    append: Option<String>,
    check_counts: Option<String>,
    out_dir: Option<String>,
}

fn parse(args: &[String]) -> Result<(Run, Files), String> {
    let mut run = Run {
        workload: String::new(),
        seed: 0x5EED,
        seconds: 0.0,
        traced: false,
        scale: inputs::Scale { smoke: false },
    };
    let mut files = Files::default();
    let mut seconds = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            run.scale.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => run.workload = value.clone(),
            "--seed" => {
                run.seed = match value.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => value.parse(),
                }
                .map_err(|_| format!("bad seed {value}"))?
            }
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad --seconds {value}"))?;
                if !s.is_finite() || s < 0.0 {
                    return Err(format!("bad --seconds {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => run.traced = value == "1",
            "--append" => files.append = Some(value.clone()),
            "--check-counts" => files.check_counts = Some(value.clone()),
            "--out-dir" => files.out_dir = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    // The smoke scale is for CI: its passes take a fraction of a second.
    run.seconds =
        seconds.unwrap_or(if run.scale.smoke { 0.5 } else { metrics::RUN_SECONDS as f64 });
    if !metrics::WORKLOADS.iter().any(|w| w.name == run.workload) {
        let names: Vec<&str> = metrics::WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!("--workload must be one of {}", names.join(", ")));
    }
    Ok((run, files))
}

/// Run one workload and print its metrics, one `name value unit` line each,
/// then the result object as the last line. `Ok(false)` when an op failed or
/// a pinned count differs.
fn measure(run: &Run, files: &Files) -> Result<bool, String> {
    let recorded =
        files.check_counts.as_deref().map(|path| recorded_counts(path, run)).transpose()?;
    let mut tr = Tracer::new();
    let mut out = Outcome::default();
    match run.workload.as_str() {
        "sz_checkpoint" => checkpoint::run(
            run,
            [CompressorSpec::SzAbs(0.1), CompressorSpec::SzPwRel(0.1)],
            &mut tr,
            &mut out,
        ),
        "zfp_checkpoint" => checkpoint::run(
            run,
            [CompressorSpec::ZfpAcc(0.1), CompressorSpec::ZfpRate(8.0)],
            &mut tr,
            &mut out,
        ),
        "ecc_bulk" => ecc_bulk::run(run, &mut tr, &mut out),
        _ => tile_serve::run(run, &mut tr, &mut out),
    }?;

    let defs = if run.traced { metrics::per_layer() } else { metrics::end_to_end() };
    let mut reported = Vec::new();
    for def in &defs {
        let value = match out.values.get(&def.name) {
            Some(v) if v.is_finite() => *v,
            Some(v) => {
                out.op(&def.name, Some(format!("metric is {v}")));
                0.0
            }
            // A layer that is not on this workload's path did no work.
            None if run.traced => 0.0,
            None => {
                out.op(&def.name, Some("metric was not measured".into()));
                0.0
            }
        };
        println!("{} {} {}", def.name, value, def.unit);
        reported.push((def.name.clone(), value, def.unit));
    }
    for line in &out.failures {
        println!("FAILED {line}");
    }
    println!("failed_frac {} frac", out.failed as f64 / out.attempted.max(1) as f64);

    let mut correct = out.failed == 0;
    for line in recorded.iter().flat_map(|r| count_diffs(r, &out.exact)) {
        println!("COUNT {line}");
        correct = false;
    }
    if run.traced {
        let dir = files.out_dir.as_deref().unwrap_or("arcbench/out");
        std::fs::create_dir_all(dir).map_err(|e| format!("create {dir}: {e}"))?;
        let path = format!("{dir}/trace-{}.json", run.workload);
        std::fs::write(&path, trace::to_json(tr.spans()))
            .map_err(|e| format!("write {path}: {e}"))?;
    }

    let metrics = Json::Obj(
        reported
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.clone(),
                    Json::obj(vec![
                        ("value", Json::Num(*value)),
                        ("unit", Json::Str(unit.to_string())),
                    ]),
                )
            })
            .collect(),
    );
    let result = vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(out.attempted as f64)),
        ("failed", Json::Num(out.failed as f64)),
        ("metrics", metrics),
    ];
    if let Some(path) = &files.append {
        let mut record = vec![
            ("workload", Json::Str(run.workload.clone())),
            ("seed", Json::Str(run.seed.to_string())),
            ("trace", Json::Bool(run.traced)),
            ("smoke", Json::Bool(run.scale.smoke)),
            (
                "cores",
                Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
            ),
        ];
        record.extend(result.clone());
        record.push(("exact", Json::Obj(out.exact.clone())));
        record.push(("cells", Json::Arr(out.cells.clone())));
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("open {path}: {e}"))?;
        writeln!(file, "{}", Json::obj(record).render())
            .map_err(|e| format!("write {path}: {e}"))?;
    }
    println!("{}", Json::obj(result).render());
    Ok(correct)
}

/// The exact counts of the run recorded in `path` that matches this one:
/// same workload, seed, trace mode and scale.
fn recorded_counts(path: &str, run: &Run) -> Result<Vec<(String, Json)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let record = Json::parse(line).map_err(|e| format!("{path}: {e}"))?;
        let same_run = record.get("workload").and_then(Json::as_str) == Some(&run.workload)
            && record.get("seed").and_then(Json::as_str) == Some(&run.seed.to_string())
            && record.get("trace").and_then(Json::as_bool) == Some(run.traced)
            && record.get("smoke").and_then(Json::as_bool) == Some(run.scale.smoke);
        if same_run {
            return Ok(record.get("exact").map(Json::entries).unwrap_or_default().to_vec());
        }
    }
    Err(format!(
        "{path} records no {} run at seed {} with trace {}",
        run.workload, run.seed, run.traced as u8
    ))
}

/// One line per exact count that differs between a recorded run and this one.
fn count_diffs(recorded: &[(String, Json)], exact: &[(String, Json)]) -> Vec<String> {
    let mut diffs = Vec::new();
    for (name, value) in exact {
        match recorded.iter().find(|(n, _)| n == name) {
            Some((_, was)) if was == value => {}
            Some((_, was)) => {
                diffs.push(format!("{name}: recorded {}, now {}", was.render(), value.render()))
            }
            None => diffs.push(format!("{name}: not recorded, now {}", value.render())),
        }
    }
    for (name, was) in recorded {
        if !exact.iter().any(|(n, _)| n == name) {
            diffs.push(format!("{name}: recorded {}, now missing", was.render()));
        }
    }
    diffs
}
