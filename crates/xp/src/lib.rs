//! Shared harness utilities for the experiment binaries (`src/bin/*`):
//! CLI options, the model/dataset registries, per-model hyper-parameters
//! (Appendix C), trial runners, and table formatting.

use std::path::PathBuf;
use std::rc::Rc;

use rgae_core::{
    train_plain_ckpt, CheckpointOpts, GuardConfig, Metrics, PlainReport, RConfig, RReport,
    RTrainer, XiConfig,
};
use rgae_graph::AttributedGraph;
use rgae_linalg::Rng64;
use rgae_models::{Argae, Arvgae, Dgae, Gae, GaeModel, GmmVgae, TrainData, Vgae};
use rgae_obs::{timestamp_ms, Event, JsonlSink, NoopRecorder, Recorder, RunManifest};

/// Usage text printed by [`HarnessOpts::from_args`] on a parse error.
const USAGE: &str = "[--quick] [--full] [--scale S] [--seed N] [--trials N] [--out DIR] \
[--dataset NAME] [--trace-out PATH] [--checkpoint-dir DIR] [--checkpoint-every N] [--resume] \
[--guard] [--max-retries N]";

/// Options shared by every experiment binary.
#[derive(Clone, Debug)]
pub struct HarnessOpts {
    /// Shrink datasets and epoch counts for a fast smoke run.
    pub quick: bool,
    /// Node-count scale applied to every dataset preset.
    pub scale: f64,
    /// Base seed; trial `t` uses `seed + t`.
    pub seed: u64,
    /// Number of trials for mean/std tables.
    pub trials: usize,
    /// Output directory for CSV artefacts.
    pub out_dir: PathBuf,
    /// Restrict multi-dataset binaries to one dataset (preset name).
    pub only_dataset: Option<String>,
    /// JSONL run-log path (`--trace-out`); `None` disables tracing.
    pub trace_out: Option<PathBuf>,
    /// Root directory for crash-safe checkpoints (`--checkpoint-dir`); each
    /// run gets its own sub-directory. `None` disables checkpointing.
    pub checkpoint_dir: Option<PathBuf>,
    /// Checkpoint save period in epochs (`--checkpoint-every`).
    pub checkpoint_every: usize,
    /// Resume runs from their newest readable checkpoint (`--resume`).
    pub resume: bool,
    /// Enable the numerical-health guard layer (`--guard`). Also switched
    /// on automatically when `RGAE_FAULT` schedules fault injections.
    pub guard: bool,
    /// Guard recovery budget: rollback+retry attempts per training phase
    /// (`--max-retries N`).
    pub max_retries: usize,
}

impl Default for HarnessOpts {
    fn default() -> Self {
        HarnessOpts {
            quick: false,
            scale: 0.35,
            seed: 42,
            trials: 3,
            out_dir: PathBuf::from("results"),
            only_dataset: None,
            trace_out: None,
            checkpoint_dir: None,
            checkpoint_every: 25,
            resume: false,
            guard: false,
            max_retries: 2,
        }
    }
}

impl HarnessOpts {
    /// Options from the process arguments (see [`HarnessOpts::parse`]). A
    /// non-empty `RGAE_FAULT` environment variable implies `--guard`
    /// (injected faults need the recovery layer). On a parse error this
    /// prints the error and the usage and exits with status 2, before the
    /// binary opens any output file.
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut opts = HarnessOpts::parse(&args).unwrap_or_else(|e| {
            let bin = bin_name();
            eprintln!("{bin}: {e}\nusage: {bin} {USAGE}");
            std::process::exit(2);
        });
        if std::env::var("RGAE_FAULT").is_ok_and(|v| !v.trim().is_empty()) {
            opts.guard = true;
        }
        opts
    }

    /// Parse `--quick`, `--full`, `--scale S`, `--seed N`, `--trials N`,
    /// `--out DIR`, `--dataset NAME`, `--trace-out PATH`, `--checkpoint-dir
    /// DIR`, `--checkpoint-every N`, `--resume`, `--guard`, `--max-retries
    /// N`. Rejects unknown flags, missing or unparsable values, a `--scale`
    /// that is not a finite number above 0, and a `--dataset` that names no
    /// [`DatasetKind`].
    pub fn parse(args: &[String]) -> Result<Self, String> {
        fn number<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
            v.parse()
                .map_err(|_| format!("`{flag}` takes a number, got `{v}`"))
        }
        let mut opts = HarnessOpts::default();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let flag = flag.as_str();
            let mut value = || {
                it.next()
                    .map(String::as_str)
                    .ok_or_else(|| format!("`{flag}` requires a value"))
            };
            match flag {
                "--quick" => opts.quick = true,
                "--full" => opts.scale = 1.0,
                "--scale" => opts.scale = number(flag, value()?)?,
                "--seed" => opts.seed = number(flag, value()?)?,
                "--trials" => opts.trials = number(flag, value()?)?,
                "--out" => opts.out_dir = PathBuf::from(value()?),
                "--dataset" => opts.only_dataset = Some(value()?.to_owned()),
                "--trace-out" => opts.trace_out = Some(PathBuf::from(value()?)),
                "--checkpoint-dir" => opts.checkpoint_dir = Some(PathBuf::from(value()?)),
                "--checkpoint-every" => opts.checkpoint_every = number(flag, value()?)?,
                "--resume" => opts.resume = true,
                "--guard" => opts.guard = true,
                "--max-retries" => opts.max_retries = number(flag, value()?)?,
                other => return Err(format!("unknown option `{other}`")),
            }
        }
        if !(opts.scale.is_finite() && opts.scale > 0.0) {
            return Err(format!(
                "`--scale` must be a finite number above 0, got {}",
                opts.scale
            ));
        }
        if let Some(name) = &opts.only_dataset {
            let known: Vec<&str> = DatasetKind::citation()
                .into_iter()
                .chain(DatasetKind::air())
                .map(|k| k.name())
                .collect();
            if !known.contains(&name.as_str()) {
                let known = known.join(", ");
                return Err(format!("unknown dataset `{name}` (known: {known})"));
            }
        }
        if opts.quick {
            opts.scale = opts.scale.min(0.2);
            opts.trials = opts.trials.min(2);
        }
        Ok(opts)
    }

    /// The guard configuration selected by `--guard` / `--max-retries`,
    /// with the `RGAE_FAULT` injection schedule folded in. `None` when the
    /// guard layer is off.
    pub fn guard_config(&self) -> Option<GuardConfig> {
        if !self.guard {
            return None;
        }
        let mut g = GuardConfig::from_env();
        g.max_retries = self.max_retries;
        Some(g)
    }

    /// Effective dataset scale.
    pub fn dataset_scale(&self) -> f64 {
        self.scale
    }

    /// Whether this dataset should run under the `--dataset` filter.
    pub fn wants(&self, dataset: DatasetKind) -> bool {
        self.only_dataset
            .as_deref()
            .is_none_or(|d| d == dataset.name())
    }

    /// Checkpoint options for one run, when `--checkpoint-dir` was given:
    /// its own sub-directory keyed by the run identity, with the harness's
    /// save period and resume flag applied.
    pub fn ckpt_for(
        &self,
        binary: &str,
        dataset: &str,
        model: &str,
        variant: &str,
        seed: u64,
    ) -> Option<CheckpointOpts> {
        let root = self.checkpoint_dir.as_ref()?;
        let dir = root.join(format!("{binary}-{dataset}-{model}-{variant}-{seed}"));
        Some(
            CheckpointOpts::new(dir)
                .every(self.checkpoint_every)
                .resume(self.resume),
        )
    }

    /// The run-log recorder selected by `--trace-out`: a [`JsonlSink`] when
    /// a path was given, the no-op recorder otherwise. Call once per binary
    /// and pass `&*recorder` down to the runs.
    pub fn recorder(&self) -> Box<dyn Recorder> {
        match &self.trace_out {
            Some(path) => Box::new(
                JsonlSink::create(path)
                    .unwrap_or_else(|e| panic!("cannot create trace log {path:?}: {e}")),
            ),
            None => Box::new(NoopRecorder),
        }
    }
}

/// The executable's name (for run manifests), from `argv[0]`.
pub fn bin_name() -> String {
    std::env::args()
        .next()
        .as_deref()
        .and_then(|p| {
            std::path::Path::new(p)
                .file_stem()
                .and_then(|s| s.to_str())
                .map(str::to_owned)
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Emit the [`RunManifest`] that opens one training run in the run log.
/// No-op when tracing is off; the closing summary comes from the trainer.
#[allow(clippy::too_many_arguments)]
pub fn emit_run_start(
    rec: &dyn Recorder,
    binary: &str,
    model: &str,
    dataset: &str,
    variant: &str,
    seed: u64,
    cfg: &RConfig,
) {
    if !rec.enabled() {
        return;
    }
    rec.record(&Event::RunStart(RunManifest {
        run_id: format!(
            "{binary}-{dataset}-{model}-{variant}-{seed}-{}",
            timestamp_ms()
        ),
        binary: binary.to_owned(),
        dataset: dataset.to_owned(),
        model: model.to_owned(),
        variant: variant.to_owned(),
        seed,
        workspace_version: env!("CARGO_PKG_VERSION").to_owned(),
        config: cfg.to_json(),
    }));
}

/// The six models of the protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ModelKind {
    /// Graph auto-encoder (first group).
    Gae,
    /// Variational GAE (first group).
    Vgae,
    /// Adversarially regularised GAE (first group).
    Argae,
    /// Adversarially regularised VGAE (first group).
    Arvgae,
    /// Discriminative GAE (second group, Appendix B).
    Dgae,
    /// GMM-VGAE (second group).
    GmmVgae,
}

impl ModelKind {
    /// All six models, first group first (Table 1 ordering).
    pub fn all() -> [ModelKind; 6] {
        [
            ModelKind::Gae,
            ModelKind::Vgae,
            ModelKind::Argae,
            ModelKind::Arvgae,
            ModelKind::Dgae,
            ModelKind::GmmVgae,
        ]
    }

    /// The joint-clustering (second-group) models.
    pub fn second_group() -> [ModelKind; 2] {
        [ModelKind::GmmVgae, ModelKind::Dgae]
    }

    /// Paper name.
    pub fn name(&self) -> &'static str {
        match self {
            ModelKind::Gae => "GAE",
            ModelKind::Vgae => "VGAE",
            ModelKind::Argae => "ARGAE",
            ModelKind::Arvgae => "ARVGAE",
            ModelKind::Dgae => "DGAE",
            ModelKind::GmmVgae => "GMM-VGAE",
        }
    }

    /// Whether this model performs joint clustering.
    pub fn is_second_group(&self) -> bool {
        matches!(self, ModelKind::Dgae | ModelKind::GmmVgae)
    }

    /// Instantiate the model for a dataset.
    pub fn build(&self, num_features: usize, k: usize, rng: &mut Rng64) -> Box<dyn GaeModel> {
        match self {
            ModelKind::Gae => Box::new(Gae::new(num_features, rng)),
            ModelKind::Vgae => Box::new(Vgae::new(num_features, rng)),
            ModelKind::Argae => Box::new(Argae::new(num_features, rng)),
            ModelKind::Arvgae => Box::new(Arvgae::new(num_features, rng)),
            ModelKind::Dgae => Box::new(Dgae::new(num_features, k, rng)),
            ModelKind::GmmVgae => Box::new(GmmVgae::new(num_features, k, rng)),
        }
    }

    /// Instantiate plus an already-cloned twin for shared-pretraining pairs.
    pub fn build_pair(
        &self,
        num_features: usize,
        k: usize,
        rng: &mut Rng64,
    ) -> (Box<dyn GaeModel>, Box<dyn GaeModel>) {
        // Cloning a trait object needs concrete types, so build per kind.
        match self {
            ModelKind::Gae => {
                let m = Gae::new(num_features, rng);
                (Box::new(m.clone()), Box::new(m))
            }
            ModelKind::Vgae => {
                let m = Vgae::new(num_features, rng);
                (Box::new(m.clone()), Box::new(m))
            }
            ModelKind::Argae => {
                let m = Argae::new(num_features, rng);
                (Box::new(m.clone()), Box::new(m))
            }
            ModelKind::Arvgae => {
                let m = Arvgae::new(num_features, rng);
                (Box::new(m.clone()), Box::new(m))
            }
            ModelKind::Dgae => {
                let m = Dgae::new(num_features, k, rng);
                (Box::new(m.clone()), Box::new(m))
            }
            ModelKind::GmmVgae => {
                let m = GmmVgae::new(num_features, k, rng);
                (Box::new(m.clone()), Box::new(m))
            }
        }
    }
}

/// The six benchmark presets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DatasetKind {
    /// Cora-like citation network.
    CoraLike,
    /// Citeseer-like citation network.
    CiteseerLike,
    /// Pubmed-like citation network.
    PubmedLike,
    /// USA air-traffic-like network.
    UsaAir,
    /// Europe air-traffic-like network.
    EuropeAir,
    /// Brazil air-traffic-like network.
    BrazilAir,
}

impl DatasetKind {
    /// The three citation-like datasets (Tables 1–2).
    pub fn citation() -> [DatasetKind; 3] {
        [
            DatasetKind::CoraLike,
            DatasetKind::CiteseerLike,
            DatasetKind::PubmedLike,
        ]
    }

    /// The three air-traffic-like datasets (Tables 3–4).
    pub fn air() -> [DatasetKind; 3] {
        [
            DatasetKind::UsaAir,
            DatasetKind::EuropeAir,
            DatasetKind::BrazilAir,
        ]
    }

    /// Preset name (matches `RConfig::for_dataset`).
    pub fn name(&self) -> &'static str {
        match self {
            DatasetKind::CoraLike => "cora-like",
            DatasetKind::CiteseerLike => "citeseer-like",
            DatasetKind::PubmedLike => "pubmed-like",
            DatasetKind::UsaAir => "usa-air-like",
            DatasetKind::EuropeAir => "europe-air-like",
            DatasetKind::BrazilAir => "brazil-air-like",
        }
    }

    /// Generate the dataset at a scale and seed.
    pub fn build(&self, scale: f64, seed: u64) -> AttributedGraph {
        use rgae_datasets::presets::*;
        let built = match self {
            DatasetKind::CoraLike => cora_like(scale, seed),
            DatasetKind::CiteseerLike => citeseer_like(scale, seed),
            DatasetKind::PubmedLike => pubmed_like(scale, seed),
            DatasetKind::UsaAir => usa_air_like(scale, seed),
            DatasetKind::EuropeAir => europe_air_like(scale, seed),
            DatasetKind::BrazilAir => brazil_air_like(scale, seed),
        };
        built.expect("preset parameters are valid by construction")
    }
}

/// Appendix-C hyper-parameters: per-(model, dataset) Ξ/Υ schedule overrides
/// on top of `RConfig::for_dataset`, plus each model's γ.
pub fn rconfig_for(model: ModelKind, dataset: DatasetKind, quick: bool) -> RConfig {
    let mut cfg = RConfig::for_dataset(dataset.name());
    // Per-model Appendix-C overrides that differ from the dataset default.
    match (model, dataset) {
        (ModelKind::Argae | ModelKind::Arvgae, DatasetKind::CoraLike) => {
            cfg.m1 = 50;
            cfg.m2 = 1;
        }
        (ModelKind::Argae | ModelKind::Arvgae, DatasetKind::CiteseerLike) => {
            cfg.xi = XiConfig::new(0.1);
        }
        (ModelKind::Dgae, DatasetKind::CoraLike) => {
            cfg.m1 = 20;
            cfg.m2 = 15;
        }
        (ModelKind::Dgae, DatasetKind::PubmedLike) => {
            cfg.xi = XiConfig::new(0.3);
        }
        (ModelKind::Dgae, DatasetKind::EuropeAir) => {
            cfg.xi = XiConfig::new(0.08);
            cfg.m1 = 20;
            cfg.m2 = 15;
        }
        (ModelKind::Dgae, DatasetKind::UsaAir) => {
            cfg.xi = XiConfig::new(0.1);
        }
        _ => {}
    }
    // γ: reconstruction weight relative to the clustering loss.
    cfg.gamma = match model {
        ModelKind::Dgae => 0.001,
        _ => 1.0,
    };
    if quick {
        cfg = cfg.quick();
    } else {
        cfg.pretrain_epochs = 150;
        cfg.max_epochs = 150;
    }
    cfg.eval_every = 5;
    cfg
}

/// [`rconfig_for`] plus the harness-level overrides carried by
/// [`HarnessOpts`] — currently the numerical-health guard layer.
pub fn rconfig_for_opts(model: ModelKind, dataset: DatasetKind, opts: &HarnessOpts) -> RConfig {
    let mut cfg = rconfig_for(model, dataset, opts.quick);
    cfg.guard = opts.guard_config();
    cfg
}

/// One trial of the Tables 1–4 protocol: pretrain once, then run the plain
/// clustering phase and the R clustering phase from the *same* pretrained
/// weights.
pub struct PairOutcome {
    /// Plain 𝒟 result.
    pub plain: PlainReport,
    /// R-𝒟 result.
    pub r: RReport,
}

/// Run the 𝒟 / R-𝒟 pair for one model on one graph. Each half of the pair
/// is logged as its own run (variants `plain` and `r`) through `rec`, and
/// checkpoints into its own sub-directory when the harness has
/// `--checkpoint-dir` set.
pub fn run_pair(
    model: ModelKind,
    dataset: DatasetKind,
    graph: &AttributedGraph,
    cfg: &RConfig,
    seed: u64,
    rec: &dyn Recorder,
    opts: &HarnessOpts,
) -> PairOutcome {
    let binary = bin_name();
    let data = TrainData::from_graph(graph);
    let mut rng = Rng64::seed_from_u64(seed);
    let (mut plain_model, mut r_model) =
        model.build_pair(data.num_features(), graph.num_classes(), &mut rng);
    let mut trainer = RTrainer::with_recorder(cfg.clone(), rec);
    if let Some(ckpt) = opts.ckpt_for(&binary, dataset.name(), model.name(), "r", seed) {
        trainer = trainer.with_checkpoints(ckpt);
    }
    // Shared pretraining on the R twin's weights == plain twin's weights
    // (identical init); pretrain each with the same RNG stream for identical
    // trajectories where sampling is involved.
    let mut rng_a = Rng64::seed_from_u64(seed ^ 0x5151);
    let mut rng_b = Rng64::seed_from_u64(seed ^ 0x5151);
    emit_run_start(
        rec,
        &binary,
        model.name(),
        dataset.name(),
        "plain",
        seed,
        cfg,
    );
    let plain_ckpt = opts.ckpt_for(&binary, dataset.name(), model.name(), "plain", seed);
    let plain = train_plain_ckpt(
        plain_model.as_mut(),
        graph,
        cfg,
        &mut rng_a,
        rec,
        plain_ckpt.as_ref(),
    )
    .unwrap();
    emit_run_start(rec, &binary, model.name(), dataset.name(), "r", seed, cfg);
    trainer
        .pretrain(r_model.as_mut(), &data, &mut rng_b)
        .unwrap();
    let r = trainer
        .train_clustering_phase(r_model.as_mut(), graph, &data, &mut rng_b)
        .unwrap();
    PairOutcome { plain, r }
}

/// Mean and (population) standard deviation.
#[derive(Clone, Copy, Debug, Default)]
pub struct Stats {
    /// Sample mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std: f64,
}

/// Compute [`Stats`] of a slice.
pub fn stats(xs: &[f64]) -> Stats {
    if xs.is_empty() {
        return Stats::default();
    }
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|&x| (x - mean) * (x - mean)).sum::<f64>() / n;
    Stats {
        mean,
        std: var.sqrt(),
    }
}

/// Aggregate per-trial metrics.
pub fn metric_stats(ms: &[Metrics]) -> (Stats, Stats, Stats) {
    let acc: Vec<f64> = ms.iter().map(|m| m.acc).collect();
    let nmi: Vec<f64> = ms.iter().map(|m| m.nmi).collect();
    let ari: Vec<f64> = ms.iter().map(|m| m.ari).collect();
    (stats(&acc), stats(&nmi), stats(&ari))
}

/// Best trial (by ACC).
pub fn best_metrics(ms: &[Metrics]) -> Metrics {
    ms.iter()
        .copied()
        .max_by(|a, b| a.acc.partial_cmp(&b.acc).expect("finite"))
        .unwrap_or_default()
}

/// Print an aligned text table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: Vec<String>| {
        let mut s = String::from("| ");
        for (w, c) in widths.iter().zip(cells) {
            s.push_str(&format!("{c:<w$} | ", w = w));
        }
        s
    };
    println!("{}", line(headers.iter().map(|h| h.to_string()).collect()));
    println!(
        "|{}|",
        widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("|")
    );
    for row in rows {
        println!("{}", line(row.clone()));
    }
}

/// Format a percentage with one decimal (the paper's table style).
pub fn pct(x: f64) -> String {
    format!("{:.1}", x * 100.0)
}

/// Format `mean ± std` in percent.
pub fn pct_pm(s: Stats) -> String {
    format!("{:.1} ± {:.1}", s.mean * 100.0, s.std * 100.0)
}

/// Convenience: a second-group training loop without Ξ/Υ has the same code
/// path as [`train_plain`]; re-export a thin alias so the binaries read
/// naturally.
pub fn default_data(graph: &AttributedGraph) -> (TrainData, Rc<rgae_linalg::Csr>) {
    let data = TrainData::from_graph(graph);
    let a = Rc::clone(&data.adjacency);
    (data, a)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_basic() {
        let s = stats(&[1.0, 2.0, 3.0]);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert!((s.std - (2.0f64 / 3.0).sqrt()).abs() < 1e-12);
        let empty = stats(&[]);
        assert_eq!(empty.mean, 0.0);
    }

    #[test]
    fn registries_cover_everything() {
        assert_eq!(ModelKind::all().len(), 6);
        assert_eq!(DatasetKind::citation().len(), 3);
        assert_eq!(DatasetKind::air().len(), 3);
        for m in ModelKind::all() {
            assert!(!m.name().is_empty());
        }
    }

    #[test]
    fn build_pair_produces_identical_twins() {
        let mut rng = Rng64::seed_from_u64(1);
        let g = DatasetKind::BrazilAir.build(0.5, 3);
        let data = TrainData::from_graph(&g);
        let (a, b) = ModelKind::Dgae.build_pair(data.num_features(), g.num_classes(), &mut rng);
        let za = a.embed(&data);
        let zb = b.embed(&data);
        assert!(za.max_abs_diff(&zb) < 1e-12);
    }

    #[test]
    fn rconfig_overrides_apply() {
        let cfg = rconfig_for(ModelKind::Dgae, DatasetKind::CoraLike, false);
        assert_eq!(cfg.m2, 15);
        assert!((cfg.gamma - 0.001).abs() < 1e-12);
        let cfg = rconfig_for(ModelKind::Gae, DatasetKind::CoraLike, false);
        assert!((cfg.gamma - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ckpt_for_builds_per_run_dirs() {
        let mut opts = HarnessOpts::default();
        assert!(opts.ckpt_for("b", "d", "m", "r", 1).is_none());
        opts.checkpoint_dir = Some(PathBuf::from("ckpts"));
        opts.checkpoint_every = 10;
        opts.resume = true;
        let c = opts
            .ckpt_for("table1_2", "cora-like", "DGAE", "r", 7)
            .unwrap();
        assert!(c.dir.ends_with("table1_2-cora-like-DGAE-r-7"));
        assert_eq!(c.every, 10);
        assert!(c.resume);
    }

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parse_reads_every_flag() {
        let o = HarnessOpts::parse(&args(
            "--scale 0.5 --seed 9 --trials 4 --out o --dataset brazil-air-like --trace-out t.jsonl \
             --checkpoint-dir c --checkpoint-every 5 --resume --guard --max-retries 1",
        ))
        .unwrap();
        assert_eq!((o.scale, o.seed, o.trials), (0.5, 9, 4));
        assert_eq!(o.out_dir, PathBuf::from("o"));
        assert_eq!(o.only_dataset.as_deref(), Some("brazil-air-like"));
        assert_eq!(o.trace_out, Some(PathBuf::from("t.jsonl")));
        assert_eq!(o.checkpoint_dir, Some(PathBuf::from("c")));
        assert_eq!((o.checkpoint_every, o.max_retries), (5, 1));
        assert!(o.resume && o.guard && !o.quick);

        let d = HarnessOpts::parse(&[]).unwrap();
        assert_eq!((d.scale, d.seed, d.trials), (0.35, 42, 3));
        assert_eq!(HarnessOpts::parse(&args("--full")).unwrap().scale, 1.0);
        let q = HarnessOpts::parse(&args("--quick --full --trials 9")).unwrap();
        assert_eq!((q.scale, q.trials), (0.2, 2));
        for kind in DatasetKind::citation()
            .into_iter()
            .chain(DatasetKind::air())
        {
            assert!(HarnessOpts::parse(&args(&format!("--dataset {}", kind.name()))).is_ok());
        }
    }

    #[test]
    fn parse_rejects_bad_input() {
        for (line, want) in [
            ("--bogus", "unknown option `--bogus`"),
            ("--quick extra", "unknown option `extra`"),
            ("--seed abc", "`--seed` takes a number, got `abc`"),
            ("--seed -1", "`--seed` takes a number"),
            ("--trials 1.5", "`--trials` takes a number"),
            (
                "--checkpoint-every x",
                "`--checkpoint-every` takes a number",
            ),
            ("--max-retries -2", "`--max-retries` takes a number"),
            ("--scale x", "`--scale` takes a number"),
            ("--scale nan", "`--scale` must be a finite number above 0"),
            ("--scale inf", "`--scale` must be a finite number above 0"),
            ("--scale 0", "`--scale` must be a finite number above 0"),
            ("--scale -1", "`--scale` must be a finite number above 0"),
            ("--dataset bogus", "unknown dataset `bogus`"),
            ("--dataset Cora-Like", "unknown dataset `Cora-Like`"),
            ("--seed", "`--seed` requires a value"),
            ("--guard --out", "`--out` requires a value"),
            ("--dataset", "`--dataset` requires a value"),
        ] {
            let err = HarnessOpts::parse(&args(line)).unwrap_err();
            assert!(err.contains(want), "`{line}`: got `{err}`");
        }
    }

    #[test]
    fn pct_formatting() {
        assert_eq!(pct(0.767), "76.7");
        let s = Stats {
            mean: 0.55,
            std: 0.049,
        };
        assert_eq!(pct_pm(s), "55.0 ± 4.9");
    }
}
