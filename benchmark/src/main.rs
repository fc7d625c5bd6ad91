//! The repo benchmark. `benchmark/run.sh` builds this package and runs
//! it; see `benchmark/README.md` for the workloads and metrics.
//!
//! One invocation is an orchestrator that starts child processes of
//! this same executable — set-up, the workload, and for a traced run
//! the layer probes — so that each measures only itself:
//!
//! ```text
//! rsj-benchmark --root DIR [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--quick]
//! rsj-benchmark compare A.json... -- B.json...
//! ```
//!
//! With `--workload` it runs that one workload and ends with the
//! one-line JSON result the acceptance driver reads. Without, it runs
//! all four, prints every metric by name and unit, and writes
//! `out/results-<commit>-<seed>.json`.

mod access;
mod check;
mod compare;
mod json;
mod layers;
mod setup;
mod spec;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use json::Json;
use spec::{Workload, END_TO_END, PER_LAYER, WORKLOADS};

/// Seconds a single-workload run measures for when none is given — the
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 25.0;
const QUICK_SECONDS: f64 = 1.0;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => compare::run(&args[1..]),
        Some("setup") => child_setup(&args[1..]),
        Some("workload") => child_workload(&args[1..]),
        Some("layers") => child_layers(&args[1..]),
        _ => orchestrate(&args),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("rsj-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

// ------------------------------------------------------------- arguments

/// `--key value` pairs and bare `--flag`s, in order.
struct Flags(Vec<(String, Option<String>)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut out = Vec::new();
        let mut it = args.iter().peekable();
        while let Some(arg) = it.next() {
            let Some(key) = arg.strip_prefix("--") else {
                return Err(format!("unexpected argument {arg}"));
            };
            let value = it.next_if(|v| !v.starts_with("--")).cloned();
            out.push((key.to_string(), value));
        }
        Ok(Flags(out))
    }

    fn has(&self, key: &str) -> bool {
        self.0.iter().any(|(k, _)| k == key)
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_deref())
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.get(key)
            .map(|v| v.parse().map_err(|_| format!("--{key}: cannot read {v}")))
            .transpose()
    }

    fn required<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        self.parsed(key)?
            .ok_or_else(|| format!("--{key} is required"))
    }
}

// ------------------------------------------------------- child processes

fn print_report(report: Json) -> ExitCode {
    println!("{}", report.compact());
    ExitCode::SUCCESS
}

fn child_setup(args: &[String]) -> Result<ExitCode, String> {
    let f = Flags::parse(args)?;
    let dir: PathBuf = f.required("dir")?;
    setup::run(&dir, f.required("n")?, f.required("seed")?).map(print_report)
}

fn child_workload(args: &[String]) -> Result<ExitCode, String> {
    let f = Flags::parse(args)?;
    workloads::run(&workloads::Args {
        name: f.required("name")?,
        dir: f.required("dir")?,
        seconds: f.required("seconds")?,
        min_ops: f.required("min-ops")?,
        trace: f.required::<u8>("trace")? != 0,
        out_dir: f.required("out")?,
    })
    .map(print_report)
}

fn child_layers(args: &[String]) -> Result<ExitCode, String> {
    let f = Flags::parse(args)?;
    let dir: PathBuf = f.required("dir")?;
    layers::run(&dir, f.required("reps")?).map(print_report)
}

/// Runs this executable as `mode` and reads the JSON report on the last
/// line of its output. The child's stderr passes through.
fn spawn_child(mode: &str, args: &[String], env: &[(&str, String)]) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg(mode).args(args);
    for (k, v) in env {
        cmd.env(k, v);
    }
    let output = cmd
        .output()
        .map_err(|e| format!("start {mode} child: {e}"))?;
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    if !output.status.success() {
        return Err(format!("the {mode} child failed ({})", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("the {mode} child printed nothing"))?;
    Json::parse(last)
}

// ----------------------------------------------------------- orchestrator

struct Settings {
    root: PathBuf,
    seed: u64,
    seconds: f64,
    quick: bool,
}

impl Settings {
    fn out_dir(&self) -> PathBuf {
        self.root.join("benchmark").join("out")
    }

    fn n(&self, w: &Workload) -> usize {
        let n = if w.small_data {
            spec::SMALL_N
        } else {
            spec::LARGE_N
        };
        if self.quick {
            n / spec::QUICK_DIVISOR
        } else {
            n
        }
    }

    fn min_ops(&self, w: &Workload) -> usize {
        if self.quick {
            (w.min_ops / spec::QUICK_DIVISOR).max(2)
        } else {
            w.min_ops
        }
    }

    fn ladder_reps(&self) -> usize {
        if self.quick {
            2
        } else {
            spec::LADDER_REPS
        }
    }
}

/// One run of one workload, traced or not.
struct RunResult {
    attempted: u64,
    failed: u64,
    /// name → `{value, unit, n}`, in table order.
    metrics: Vec<(String, Json)>,
    /// Wall time of the whole run and of its measured phase.
    total_s: f64,
    measured_s: f64,
    setup: Json,
}

fn metric_value(report: &Json, name: &str) -> Option<(f64, u64)> {
    let m = report.get("metrics")?.get(name)?;
    Some((m.get("value")?.as_f64()?, m.get("n")?.as_u64()?))
}

fn run_one(st: &Settings, w: &Workload, trace: bool) -> Result<RunResult, String> {
    let t0 = Instant::now();
    let n = st.n(w);
    let dir = st
        .out_dir()
        .join(format!("data-{}", st.seed))
        .join(format!("n{n}"));
    let dir_arg = dir.to_string_lossy().into_owned();
    let setup = spawn_child(
        "setup",
        &[
            "--dir".into(),
            dir_arg.clone(),
            "--n".into(),
            n.to_string(),
            "--seed".into(),
            st.seed.to_string(),
        ],
        &[],
    )?;

    // The modelled device: only this workload's process sees it.
    let env: Vec<(&str, String)> = if w.name == "join_cold" {
        vec![(
            rsj_storage::READ_LATENCY_ENV,
            spec::COLD_READ_LATENCY_US.to_string(),
        )]
    } else {
        Vec::new()
    };
    let report = spawn_child(
        "workload",
        &[
            "--name".into(),
            w.name.into(),
            "--dir".into(),
            dir_arg.clone(),
            "--seconds".into(),
            st.seconds.to_string(),
            "--min-ops".into(),
            st.min_ops(w).to_string(),
            "--trace".into(),
            u8::from(trace).to_string(),
            "--out".into(),
            st.out_dir().to_string_lossy().into_owned(),
        ],
        &env,
    )?;
    let probes = if trace {
        Some(spawn_child(
            "layers",
            &[
                "--dir".into(),
                dir_arg,
                "--reps".into(),
                st.ladder_reps().to_string(),
            ],
            &[],
        )?)
    } else {
        None
    };

    // The page files are the bulk of a data directory; what a run leaves
    // behind is `expected.json`.
    for entry in std::fs::read_dir(&dir)
        .map_err(|e| e.to_string())?
        .flatten()
    {
        if entry.path().extension().is_some_and(|x| x == "rsj") {
            let _ = std::fs::remove_file(entry.path());
        }
    }

    let from_setup = |key: &str| setup.get(key).and_then(Json::as_f64);
    let rounds = spec::SETUP_ROUNDS as u64;
    let mut metrics = Vec::new();
    let mut missing = Vec::new();
    let mut put = |name: &str, unit: &str, found: Option<(f64, u64)>| match found {
        Some((value, n)) => metrics.push((
            name.to_string(),
            Json::obj([
                ("value", Json::Num(value)),
                ("unit", Json::str(unit)),
                ("n", Json::from(n)),
            ]),
        )),
        None => missing.push(name.to_string()),
    };
    if trace {
        for m in &PER_LAYER {
            // The workload's own traffic first, then the probes, then
            // what set-up measured.
            let found = metric_value(&report, m.name)
                .or_else(|| metric_value(probes.as_ref()?, m.name))
                .or_else(|| {
                    let key = match m.name {
                        "datagen.gen_s" => "gen_s",
                        "rtree.bulk_rects_per_s" => "bulk_rects_per_s",
                        "rtree.height" => "height",
                        "rtree.pages" => "pages",
                        _ => return None,
                    };
                    Some((from_setup(key)?, rounds))
                });
            put(m.name, m.unit, found);
        }
    } else {
        for m in &END_TO_END {
            let found = if m.name == "setup_s" {
                from_setup("setup_s").map(|v| (v, rounds))
            } else {
                metric_value(&report, m.name)
            };
            put(m.name, m.unit, found);
        }
    }
    if !missing.is_empty() {
        return Err(format!("{}: no value for {}", w.name, missing.join(", ")));
    }

    let count = |key: &str| {
        report
            .get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("{}: the workload report lacks {key}", w.name))
    };
    Ok(RunResult {
        attempted: count("attempted")?,
        failed: count("failed")?,
        metrics,
        total_s: t0.elapsed().as_secs_f64(),
        measured_s: report.get("wall_s").and_then(Json::as_f64).unwrap_or(0.0),
        setup,
    })
}

impl RunResult {
    fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The driver's result line: `value` and `unit` per metric.
    fn driver_line(&self) -> Json {
        let metrics = self.metrics.iter().map(|(name, m)| {
            let keep = |k: &'static str| (k, m.get(k).cloned().unwrap_or(Json::Null));
            (name.clone(), Json::obj([keep("value"), keep("unit")]))
        });
        Json::obj([
            ("correct", Json::from(self.correct())),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("metrics", Json::Obj(metrics.collect())),
        ])
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            (
                "failed_frac",
                Json::Num(self.failed as f64 / self.attempted.max(1) as f64),
            ),
            ("measured_s", Json::Num(self.measured_s)),
            ("total_s", Json::Num(self.total_s)),
            ("setup", self.setup.clone()),
            ("metrics", Json::Obj(self.metrics.clone())),
        ])
    }

    fn print_table(&self, title: &str) {
        println!(
            "\n== {title}: {} attempted, {} failed, measured {:.1} s of {:.1} s",
            self.attempted, self.failed, self.measured_s, self.total_s
        );
        for (name, m) in &self.metrics {
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
            let n = m.get("n").and_then(Json::as_u64).unwrap_or(0);
            println!("{name:<42} {value:>16.4} {unit:<6} (n={n})");
        }
    }
}

fn capture(program: &str, args: &[&str], cwd: &Path) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(cwd)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn load_average() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(f64::NAN)
}

/// Checks `BENCHMARK.json` against the tables in [`spec`]: same
/// workloads, same metrics, same units, directions and bounds.
pub fn validate_against_benchmark_json(doc: &Json) -> Result<(), String> {
    let list = |key: &str| {
        doc.get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("BENCHMARK.json: no {key} list"))
    };
    let text = |item: &Json, key: &str| item.get(key).and_then(Json::as_str).map(str::to_owned);
    let same = |what: &str, stated: Vec<String>, ours: Vec<String>| {
        if stated == ours {
            Ok(())
        } else {
            Err(format!(
                "BENCHMARK.json {what} differ from the program's:\n  stated: {stated:?}\n  ours:   {ours:?}"
            ))
        }
    };
    same(
        "workloads",
        list("workloads")?
            .iter()
            .map(|w| format!("{:?} {:?}", text(w, "name"), text(w, "why")))
            .collect(),
        WORKLOADS
            .iter()
            .map(|w| format!("{:?} {:?}", Some(w.name), Some(w.why)))
            .collect(),
    )?;
    same(
        "end_to_end metrics",
        list("end_to_end")?
            .iter()
            .map(|m| {
                format!(
                    "{:?} {:?} {:?} {:?}",
                    text(m, "name"),
                    text(m, "unit"),
                    text(m, "better"),
                    m.get("bound").and_then(Json::as_f64)
                )
            })
            .collect(),
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "{:?} {:?} {:?} {:?}",
                    Some(m.name),
                    Some(m.unit),
                    Some(m.better.as_str()),
                    Some(m.bound)
                )
            })
            .collect(),
    )?;
    same(
        "per_layer metrics",
        list("per_layer")?
            .iter()
            .map(|m| {
                format!(
                    "{:?} {:?} {:?}",
                    text(m, "name"),
                    text(m, "unit"),
                    text(m, "better")
                )
            })
            .collect(),
        PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "{:?} {:?} {:?}",
                    Some(m.name),
                    Some(m.unit),
                    Some(m.better.as_str())
                )
            })
            .collect(),
    )?;
    let stated = doc.get("run_seconds").and_then(Json::as_f64);
    if stated != Some(DEFAULT_SECONDS) {
        return Err(format!(
            "BENCHMARK.json run_seconds is {stated:?}, the program's default {DEFAULT_SECONDS}"
        ));
    }
    Ok(())
}

fn orchestrate(args: &[String]) -> Result<ExitCode, String> {
    let f = Flags::parse(args)?;
    let quick = f.has("quick");
    let st = Settings {
        root: f.required("root")?,
        seed: f.parsed("seed")?.unwrap_or(1),
        seconds: f.parsed("seconds")?.unwrap_or(if quick {
            QUICK_SECONDS
        } else {
            DEFAULT_SECONDS
        }),
        quick,
    };
    // `--trace 1`, `--trace 0`, or a bare `--trace`.
    let trace = f.has("trace") && f.get("trace") != Some("0");

    let manifest = std::fs::read_to_string(st.root.join("BENCHMARK.json"))
        .map_err(|e| format!("BENCHMARK.json: {e}"))
        .and_then(|text| Json::parse(&text))?;
    validate_against_benchmark_json(&manifest)?;

    if let Some(name) = f.get("workload") {
        let w = spec::workload(name).ok_or_else(|| format!("unknown workload {name}"))?;
        let result = run_one(&st, w, trace)?;
        result.print_table(&format!(
            "{name} seed {} ({})",
            st.seed,
            if trace { "traced" } else { "end to end" }
        ));
        println!("{}", result.driver_line().compact());
        return Ok(if result.correct() {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        });
    }

    let t0 = Instant::now();
    let load_start = load_average();
    let mut end_to_end = Vec::new();
    let mut layers = Vec::new();
    let mut all_correct = true;
    for w in &WORKLOADS {
        let result = run_one(&st, w, false)?;
        result.print_table(&format!("{} seed {} (end to end)", w.name, st.seed));
        all_correct &= result.correct();
        end_to_end.push((w.name.to_string(), result.to_json()));
    }
    if trace {
        for w in &WORKLOADS {
            let result = run_one(&st, w, true)?;
            result.print_table(&format!("{} seed {} (traced)", w.name, st.seed));
            all_correct &= result.correct();
            layers.push((w.name.to_string(), result.to_json()));
        }
    }

    let commit = capture("git", &["rev-parse", "--short", "HEAD"], &st.root)
        .unwrap_or_else(|| "nogit".into());
    let sizes = WORKLOADS.iter().map(|w| {
        (
            w.name,
            Json::obj([
                ("n_per_side", Json::from(st.n(w))),
                ("min_ops", Json::from(st.min_ops(w))),
            ]),
        )
    });
    let results = Json::obj([
        (
            "provenance",
            Json::obj([
                ("commit", Json::str(commit.clone())),
                ("seed", Json::from(st.seed)),
                ("quick", Json::from(st.quick)),
                ("seconds_per_workload", Json::Num(st.seconds)),
                (
                    "nproc",
                    Json::from(std::thread::available_parallelism().map_or(0, usize::from)),
                ),
                (
                    "rustc",
                    Json::str(capture("rustc", &["-V"], &st.root).unwrap_or_default()),
                ),
                ("sizes", Json::obj(sizes)),
                ("load_average_start", Json::Num(load_start)),
                ("load_average_end", Json::Num(load_average())),
                ("wall_s", Json::Num(t0.elapsed().as_secs_f64())),
            ]),
        ),
        ("workloads", Json::Obj(end_to_end)),
        ("layers", Json::Obj(layers)),
    ]);
    let path = st
        .out_dir()
        .join(format!("results-{commit}-{}.json", st.seed));
    std::fs::write(&path, results.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "\nwrote {} ({:.1} s)",
        path.display(),
        t0.elapsed().as_secs_f64()
    );
    if !all_correct {
        eprintln!("rsj-benchmark: failed_frac > 0 on at least one workload");
        return Ok(ExitCode::from(1));
    }
    Ok(ExitCode::SUCCESS)
}
