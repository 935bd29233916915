//! `rgae-bench`: the repository's benchmark.
//!
//! ```text
//! rgae-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it repeats the workload, each repeat in a fresh process
//! that reports to no trace, until `--seconds` seconds have passed (at least
//! two repeats) and prints the end-to-end metrics as medians over the
//! repeats.
//! With `--trace 1` it runs one untraced repeat and one traced run and
//! prints the per-layer metrics. Either way the last line of standard output
//! is one JSON object with the keys `correct`, `attempted`, `failed` and
//! `metrics`; the line before it carries the machine fingerprint and every
//! metric's median, quartiles and sample count. See `README.md`.

mod alloc;
mod layers;
mod machine;
mod stats;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use rgae_obs::Json;

use crate::stats::Summary;
use crate::workload::{Op, SetupTimes, Workload};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// End-to-end metrics and their units, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("pretrain_s", "s"),
    ("clustering_s", "s"),
    ("epochs_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics and their units, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("datasets.build_s", "s"),
    ("models.train_data_s", "s"),
    ("models.train_step_ms.p50", "ms"),
    ("models.train_step_ms.p90", "ms"),
    ("models.recon_grad_ms.p50", "ms"),
    ("models.step_allocs", "count"),
    ("models.step_alloc_bytes", "B"),
    ("linalg.decoder_s.pretrain", "s"),
    ("linalg.decoder_s.clustering", "s"),
    ("linalg.decoder_calls", "count"),
    ("linalg.decoder_gflop", "GFLOP"),
    ("linalg.decoder_gflops", "GFLOP/s"),
    ("linalg.decoder_legacy_ratio", "x"),
    ("linalg.dense_s", "s"),
    ("linalg.spmm_s", "s"),
    ("par.threads", "count"),
    ("par.kernel_s", "s"),
    ("par.outside_kernel_s", "s"),
    ("par.decoder_speedup", "x"),
    ("par.step_speedup", "x"),
    ("cluster.eval_ms.p50", "ms"),
    ("cluster.kmeans_s", "s"),
    ("cluster.gmm_s", "s"),
    ("core.xi_ms.p50", "ms"),
    ("core.upsilon_ms.p50", "ms"),
    ("core.xi_upsilon_s", "s"),
    ("core.r_overhead.dgae", "x"),
    ("core.r_overhead.gmm_vgae", "x"),
    ("core.step_ms.p50", "ms"),
    ("core.step_ms.p90", "ms"),
    ("core.eval_s", "s"),
    ("core.diagnostics_s", "s"),
    ("core.epochs", "count"),
    ("core.converged_at", "epoch"),
    ("ckpt.saves", "count"),
    ("ckpt.bytes", "B"),
    ("ckpt.save_ms.p50", "ms"),
    ("guard.trips", "count"),
    ("obs.tracing_overhead_s", "s"),
    ("obs.events", "count"),
    ("final_acc", "ratio"),
    ("final_nmi", "ratio"),
];

/// The seed when `--seed` is not given. Seed 7 is kept back for checking
/// claims on inputs a change was not tuned on.
const DEFAULT_SEED: u64 = 42;
/// Set-ups per repeat process; `setup_s` is the median over all of them.
const SETUP_REPS: usize = 5;
/// Fewest untraced repeats per `--trace 0` run, however long they take.
const MIN_REPEATS: usize = 2;
/// Untraced repeats a `--trace 1` run measures tracing overhead against:
/// one, so the largest workload's traced run stays well inside three minutes.
const TRACE_BASELINE_REPEATS: usize = 1;

const USAGE: &str =
    "usage: rgae-bench --workload <fig9-n1200|table5-n420|diag-n420> [--seed <n>] --seconds <s> --trace <0|1>";

/// What this process does.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Role {
    /// Run repeats in child processes and print the result.
    Orchestrate,
    /// One untraced repeat (child).
    Repeat,
    /// One traced run plus the per-layer measurements (child).
    Traced,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    role: Role,
    tmp: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut role = Role::Orchestrate;
    let mut tmp = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("`{flag}` needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(v).ok_or_else(|| format!("unknown workload `{v}`"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                })
            }
            "--child" => {
                role = match value()?.as_str() {
                    "repeat" => Role::Repeat,
                    "traced" => Role::Traced,
                    v => return Err(format!("unknown --child role `{v}`")),
                }
            }
            "--tmp" => tmp = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.unwrap_or(DEFAULT_SEED);
    if role != Role::Orchestrate {
        if tmp.is_none() {
            return Err("--child needs --tmp".into());
        }
        return Ok(Args {
            workload,
            seed,
            seconds: 0,
            trace: role == Role::Traced,
            role,
            tmp,
        });
    }
    Ok(Args {
        workload,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        role,
        tmp,
    })
}

/// Pin the thread count to the cores available and the decoder tile to the
/// program's default at that count, instead of leaving them to be read from
/// the environment. Child processes run with every `RGAE_*` variable
/// removed, so `decoder_tile()` returns the program's own default there.
fn pin() -> (usize, usize) {
    rgae_par::set_threads(Some(machine::available_parallelism()));
    rgae_linalg::set_decoder_tile(Some(rgae_linalg::decoder_tile()));
    (rgae_par::threads(), rgae_linalg::decoder_tile())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rgae-bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if std::env::var_os("RGAE_FAULT").is_some() {
        eprintln!(
            "rgae-bench: RGAE_FAULT is set; injected faults change the workload, refusing to run"
        );
        return ExitCode::from(2);
    }
    match args.role {
        Role::Orchestrate => orchestrate(&args),
        Role::Repeat | Role::Traced => {
            let pinned = pin();
            let tmp = args.tmp.clone().expect("checked by parse_args");
            let out = child(&args, &tmp, pinned);
            let _ = std::fs::remove_dir_all(&tmp);
            println!("{}", out.encode());
            ExitCode::SUCCESS
        }
    }
}

// ---------------------------------------------------------------------------
// Child processes
// ---------------------------------------------------------------------------

fn num(x: f64) -> Json {
    Json::Num(x)
}

fn op_json(op: &Op) -> Json {
    Json::Obj(vec![
        ("name".into(), Json::Str(op.name.clone())),
        (
            "error".into(),
            op.error.clone().map_or(Json::Null, Json::Str),
        ),
        ("failed".into(), Json::Bool(op.failed())),
        (
            "loss_bits".into(),
            Json::Str(format!("{:016x}", op.loss_bits)),
        ),
        (
            "epochs".into(),
            Json::Int((op.pretrain_epochs + op.clustering_epochs) as i64),
        ),
        ("acc".into(), num(op.acc)),
        ("nmi".into(), num(op.nmi)),
        ("pretrain_s".into(), num(op.pretrain_s)),
        ("clustering_s".into(), num(op.clustering_s)),
    ])
}

fn setup_json(times: &[SetupTimes]) -> Json {
    Json::Arr(times.iter().map(|t| num(t.total())).collect())
}

/// One repeat (or the traced run) of the workload, as a JSON object.
/// `(threads, tile)` are the values [`pin`] set.
fn child(args: &Args, tmp: &Path, (threads, tile): (usize, usize)) -> Json {
    let w = args.workload;
    std::fs::create_dir_all(tmp).expect("create the repeat's temporary directory");
    let setups: Vec<SetupTimes> = (0..SETUP_REPS)
        .map(|_| workload::prepare(w, args.seed).1)
        .collect();
    let (ops, wall_s, cpu_s, extra) = if args.trace {
        let t = layers::traced_run(w, args.seed, tmp, &setups);
        let layers = Json::Obj(
            t.layers
                .iter()
                .map(|&(k, v)| (k.to_owned(), num(v)))
                .collect(),
        );
        let wrong = Json::Arr(t.wrong.into_iter().map(Json::Str).collect());
        (
            t.ops,
            t.wall_s,
            f64::NAN,
            vec![("layers".into(), layers), ("wrong".into(), wrong)],
        )
    } else {
        let (prepared, _) = workload::prepare(w, args.seed);
        let watch = workload::Watch::default();
        let run = workload::train(w, prepared, args.seed, tmp, &watch, false);
        (run.ops, run.wall_s, run.cpu_s, Vec::new())
    };
    let mut fields = vec![
        ("par_threads".into(), Json::Int(threads as i64)),
        ("decoder_tile".into(), Json::Int(tile as i64)),
        ("setup_s".into(), setup_json(&setups)),
        ("wall_s".into(), num(wall_s)),
        ("cpu_s".into(), num(cpu_s)),
        ("peak_rss_mb".into(), num(machine::peak_rss_mb())),
        ("ops".into(), Json::Arr(ops.iter().map(op_json).collect())),
    ];
    fields.extend(extra);
    Json::Obj(fields)
}

// ---------------------------------------------------------------------------
// Orchestrator
// ---------------------------------------------------------------------------

/// What the orchestrator keeps of one child's report.
struct Report {
    json: Json,
    seconds: f64,
}

/// Run one child to completion and parse the JSON on its last line.
fn spawn(args: &Args, role: &str, tmp: &Path) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--child",
        role,
        "--workload",
        args.workload.name(),
        "--seed",
        &args.seed.to_string(),
        "--tmp",
    ])
    .arg(tmp);
    for (k, _) in machine::inherited_env() {
        cmd.env_remove(k);
    }
    let t = Instant::now();
    let out = cmd.output().map_err(|e| format!("spawn {role}: {e}"))?;
    let seconds = t.elapsed().as_secs_f64();
    let stderr = String::from_utf8_lossy(&out.stderr);
    if !out.status.success() {
        return Err(format!(
            "{role} child failed ({}): {}",
            out.status,
            stderr.trim()
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    let json = Json::parse(line).map_err(|e| format!("{role} child printed no result: {e}"))?;
    Ok(Report { json, seconds })
}

fn field(j: &Json, key: &str) -> f64 {
    j.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN)
}

fn ops(j: &Json) -> &[Json] {
    j.get("ops").and_then(Json::as_arr).unwrap_or_default()
}

/// Operation accounting over every child of one invocation.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    /// Reference `(name, loss bits, epochs)` per operation: the first seen.
    reference: Vec<(String, String, i64)>,
    wrong: Vec<String>,
}

impl Tally {
    fn add(&mut self, w: Workload, report: &Result<Report, String>) {
        let report = match report {
            Ok(r) => r,
            Err(e) => {
                self.attempted += w.ops_per_run() as u64;
                self.failed += w.ops_per_run() as u64;
                self.wrong.push(e.clone());
                return;
            }
        };
        for op in ops(&report.json) {
            let name = op
                .get("name")
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_owned();
            let bits = op
                .get("loss_bits")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_owned();
            let epochs = op.get("epochs").and_then(Json::as_i64).unwrap_or(-1);
            let (acc, nmi) = (field(op, "acc"), field(op, "nmi"));
            let mut failed = op.get("failed").and_then(Json::as_bool) != Some(false);
            if let Some(e) = op.get("error").and_then(Json::as_str) {
                self.wrong.push(format!("{name}: {e}"));
            }
            if !(0.0..=1.0).contains(&acc) || !(0.0..=1.0).contains(&nmi) {
                self.wrong.push(format!(
                    "{name}: metrics out of range (acc {acc}, nmi {nmi})"
                ));
                failed = true;
            }
            match self.reference.iter().find(|(n, _, _)| *n == name) {
                None => self.reference.push((name, bits, epochs)),
                Some((_, b, e)) if *b != bits || *e != epochs => {
                    self.wrong.push(format!("{name}: final loss bits {bits} or {epochs} epochs differ from an earlier repeat ({b}, {e})"));
                    failed = true;
                }
                Some(_) => {}
            }
            self.attempted += 1;
            self.failed += u64::from(failed);
        }
        if let Some(list) = report.json.get("wrong").and_then(Json::as_arr) {
            self.wrong
                .extend(list.iter().filter_map(Json::as_str).map(str::to_owned));
        }
    }
}

/// Per-repeat end-to-end values.
fn e2e_samples(reports: &[&Report]) -> Vec<(&'static str, Vec<f64>)> {
    let per =
        |f: &dyn Fn(&Json) -> f64| -> Vec<f64> { reports.iter().map(|r| f(&r.json)).collect() };
    let sum_ops = |j: &Json, key: &str| ops(j).iter().map(|o| field(o, key)).sum::<f64>();
    let mean_ops = |j: &Json, key: &str| sum_ops(j, key) / ops(j).len().max(1) as f64;
    let setup: Vec<f64> = reports
        .iter()
        .flat_map(|r| {
            r.json
                .get("setup_s")
                .and_then(Json::as_arr)
                .unwrap_or_default()
        })
        .filter_map(Json::as_f64)
        .collect();
    vec![
        ("setup_s", setup),
        ("wall_s", per(&|j| field(j, "wall_s"))),
        ("cpu_s", per(&|j| field(j, "cpu_s"))),
        ("pretrain_s", per(&|j| sum_ops(j, "pretrain_s"))),
        ("clustering_s", per(&|j| sum_ops(j, "clustering_s"))),
        (
            "epochs_per_s",
            per(&|j| {
                sum_ops(j, "epochs") / (sum_ops(j, "pretrain_s") + sum_ops(j, "clustering_s"))
            }),
        ),
        ("peak_rss_mb", per(&|j| field(j, "peak_rss_mb"))),
        ("final_acc", per(&|j| mean_ops(j, "acc"))),
        ("final_nmi", per(&|j| mean_ops(j, "nmi"))),
    ]
}

fn summary_json(s: &Summary) -> Json {
    let mut fields = vec![
        ("median".into(), num(s.median)),
        ("q1".into(), num(s.q1)),
        ("q3".into(), num(s.q3)),
        ("n".into(), Json::Int(s.n as i64)),
    ];
    if let Some((p, v)) = s.tail {
        fields.push((format!("p{p}"), num(v)));
    }
    Json::Obj(fields)
}

fn orchestrate(args: &Args) -> ExitCode {
    let w = args.workload;
    let root = std::env::current_dir()
        .expect("current directory")
        .join(".bench_tmp")
        .join(std::process::id().to_string());
    let mut tally = Tally::default();
    let mut untraced: Vec<Report> = Vec::new();
    let mut traced: Option<Report> = None;
    let run_child = |role: &str, i: usize, tally: &mut Tally| -> Option<Report> {
        let r = spawn(args, role, &root.join(format!("{role}-{i}")));
        tally.add(w, &r);
        if let Err(e) = &r {
            eprintln!("rgae-bench: {e}");
        }
        r.ok()
    };
    let start = Instant::now();
    if args.trace {
        for i in 0..TRACE_BASELINE_REPEATS {
            untraced.extend(run_child("repeat", i, &mut tally));
        }
        traced = run_child("traced", 0, &mut tally);
    } else {
        let budget = args.seconds as f64;
        for i in 0.. {
            untraced.extend(run_child("repeat", i, &mut tally));
            if i + 1 >= MIN_REPEATS && start.elapsed().as_secs_f64() >= budget {
                break;
            }
        }
    }
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir(root.parent().expect("tmp root has a parent"));

    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    let mut summary: Vec<(String, Json)> = Vec::new();
    let mut medians: Vec<(String, f64)> = Vec::new();
    let untraced_refs: Vec<&Report> = untraced.iter().collect();
    if !untraced_refs.is_empty() {
        for (name, values) in e2e_samples(&untraced_refs) {
            let s = Summary::of(&values);
            medians.push((name.to_owned(), s.median));
            summary.push((name.to_owned(), summary_json(&s)));
        }
    }
    if !args.trace {
        for (name, unit) in END_TO_END {
            if let Some((_, v)) = medians.iter().find(|(n, _)| n == name) {
                metrics.push((name.to_owned(), *v, unit));
            }
        }
    }
    if let (Some(t), false) = (&traced, untraced.is_empty()) {
        let base = stats::median(
            &untraced
                .iter()
                .map(|r| field(&r.json, "wall_s"))
                .collect::<Vec<_>>(),
        );
        let traced_wall = field(&t.json, "wall_s");
        let mut layers: Vec<(String, f64)> = match t.json.get("layers") {
            Some(Json::Obj(fields)) => fields
                .iter()
                .map(|(k, v)| (k.clone(), v.as_f64().unwrap_or(f64::NAN)))
                .collect(),
            _ => Vec::new(),
        };
        layers.extend(medians.into_iter().filter(|(n, _)| n.starts_with("final_")));
        layers.push(("obs.tracing_overhead_s".into(), traced_wall - base));
        for (name, unit) in PER_LAYER {
            let value = layers
                .iter()
                .find(|(n, _)| n == name)
                .map_or(f64::NAN, |(_, v)| *v);
            if !value.is_finite() {
                tally
                    .wrong
                    .push(format!("per-layer metric {name} was not measured"));
            }
            metrics.push((name.to_owned(), value, unit));
        }
    }
    let correct = tally.failed == 0 && tally.wrong.is_empty() && !metrics.is_empty();
    for e in &tally.wrong {
        eprintln!("rgae-bench: wrong: {e}");
    }
    eprintln!(
        "rgae-bench: {} seed {} trace {}: {} children in {:.1} s, {} ops attempted, {} failed",
        w.name(),
        args.seed,
        u8::from(args.trace),
        untraced.len() + usize::from(traced.is_some()),
        start.elapsed().as_secs_f64(),
        tally.attempted,
        tally.failed,
    );
    for (name, s) in &summary {
        eprintln!("  {name:<14} {}", s.encode());
    }
    // What the first child pinned; every child runs in the same environment.
    let pinned = |key: &str| {
        untraced
            .iter()
            .chain(&traced)
            .find_map(|r| r.json.get(key).cloned())
            .unwrap_or(Json::Null)
    };
    let children: Vec<Json> = untraced
        .iter()
        .chain(&traced)
        .map(|r| num(r.seconds))
        .collect();
    let info = Json::Obj(vec![
        ("workload".into(), Json::Str(w.name().into())),
        ("seed".into(), Json::Int(args.seed as i64)),
        ("trace".into(), Json::Bool(args.trace)),
        (
            "fingerprint".into(),
            machine::fingerprint(pinned("par_threads"), pinned("decoder_tile")),
        ),
        ("child_seconds".into(), Json::Arr(children)),
        ("summary".into(), Json::Obj(summary)),
        (
            "wrong".into(),
            Json::Arr(tally.wrong.iter().cloned().map(Json::Str).collect()),
        ),
    ]);
    println!("{}", info.encode());
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Int(tally.attempted.max(1) as i64)),
        ("failed".into(), Json::Int(tally.failed as i64)),
        (
            "metrics".into(),
            Json::Obj(
                metrics
                    .into_iter()
                    .map(|(name, value, unit)| {
                        (
                            name,
                            Json::Obj(vec![
                                ("value".into(), num(value)),
                                ("unit".into(), Json::Str(unit.into())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", result.encode());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> Json {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn entries<'a>(j: &'a Json, key: &str) -> &'a [Json] {
        j.get(key)
            .and_then(Json::as_arr)
            .expect("array in BENCHMARK.json")
    }

    fn is_name(s: &str) -> bool {
        !s.is_empty()
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    #[test]
    fn benchmark_json_names_are_well_formed_and_carry_units() {
        let j = benchmark_json();
        for key in ["workloads", "end_to_end", "per_layer"] {
            for e in entries(&j, key) {
                let name = e.get("name").and_then(Json::as_str).expect("name");
                assert!(is_name(name), "{key}: bad name `{name}`");
                if key != "workloads" {
                    let unit = e.get("unit").and_then(Json::as_str).unwrap_or("");
                    assert!(!unit.is_empty(), "{key}: `{name}` has no unit");
                }
            }
        }
        assert!(!is_name("a b") && !is_name("") && !is_name("x/y"));
    }

    #[test]
    fn benchmark_json_lists_exactly_what_the_benchmark_prints() {
        let j = benchmark_json();
        let listed = |key: &str| -> Vec<(String, String)> {
            entries(&j, key)
                .iter()
                .map(|e| {
                    let s = |k: &str| e.get(k).and_then(Json::as_str).unwrap_or("").to_owned();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|&(n, u)| (n.to_owned(), u.to_owned()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = listed("workloads").into_iter().map(|(n, _)| n).collect();
        let own_workloads: Vec<String> =
            Workload::ALL.iter().map(|w| w.name().to_owned()).collect();
        assert_eq!(workloads, own_workloads);
    }

    #[test]
    fn arguments_are_validated() {
        let args = |s: &str| -> Vec<String> { s.split_whitespace().map(str::to_owned).collect() };
        let ok = parse_args(&args("--workload diag-n420 --seed 3 --seconds 5 --trace 1")).unwrap();
        assert!(ok.trace && ok.seed == 3 && ok.seconds == 5 && ok.workload == Workload::Diag);
        let default = parse_args(&args("--workload fig9-n1200 --seconds 5 --trace 0")).unwrap();
        assert_eq!(default.seed, DEFAULT_SEED);
        for bad in [
            "--workload nope --seed 1 --seconds 5 --trace 0",
            "--workload diag-n420 --seed x --seconds 5 --trace 0",
            "--workload diag-n420 --seed 1 --seconds 0 --trace 0",
            "--workload diag-n420 --seed 1 --seconds 5 --trace 2",
            "--workload diag-n420 --seed 1 --seconds 5",
            "--workload diag-n420 --seed 1 --seconds 5 --trace 0 --bogus",
            "--workload diag-n420 --seed",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "accepted `{bad}`");
        }
    }
}
