//! The R-trainer: integrates Ξ and Υ into any [`GaeModel`] (the paper's
//! "R-𝒟" recipe), plus the plain trainer used for the un-modified baselines.
//!
//! Training schedule (Section 5.1), shared by both trainers:
//!
//! 1. pretrain with vanilla reconstruction;
//! 2. initialise the clustering head (k-means / GMM on the embeddings);
//! 3. run clustering epochs. R-𝒟 adds only this: every `M₁` epochs it
//!    recomputes Ω = Ξ(P′), and every `M₂` epochs it rebuilds the
//!    self-supervision graph `A^self_clus = Υ(A, P, Ω)`. It optimises
//!    `L_clus(P(Ξ(Z)))` + γ·BCE(Â, A^self_clus) until the convergence
//!    criterion `|Ω| ≥ 0.9·|𝒱|`; plain 𝒟 keeps `Ω = 𝒱` and `A`.
//!
//! Both phases run through one `PhaseLoop` (`phase.rs`) — its module
//! docs give the per-epoch order — with a pretraining body shared by both
//! variants and one clustering body whose Ξ/Υ work is switched on for R-𝒟.
//! 𝒟 and R-𝒟 thus share pretrained weights bit for bit (the Tables 1–2
//! protocol).
//!
//! The [`RConfig`] switches expose every protocol variation the paper
//! evaluates: Ξ delays (Table 6), single-step protection against FD
//! (Table 7), the α ablations (Table 8), and the add/drop ablations
//! (Table 9). [`RConfig::validate`] rejects a bad configuration at every
//! trainer entry, before any epoch runs or any checkpoint is written.
//!
//! Both trainers report into a [`Recorder`] (default: the no-op recorder):
//! phase spans (`pretrain`, `init_head`, `clustering` with nested
//! `xi`/`upsilon`/`step`/`record` scopes), one [`rgae_obs::Event::Epoch`]
//! per clustering epoch, the `omega_size` gauge, `edges_added`/
//! `edges_dropped`/`label_clamp` counters, a convergence event, and a
//! closing run summary. Wall-clock `train_seconds` comes from the
//! `clustering` span, which measures even when tracing is off.

use std::rc::Rc;

use rgae_cluster::accuracy;
use rgae_graph::{AttributedGraph, GraphStats};
use rgae_guard::GuardConfig;
use rgae_linalg::{Csr, Mat, Rng64};
use rgae_models::{ClusterStep, GaeModel, StepSpec, TrainData};
use rgae_obs::{span, EpochEvent, Event, Recorder, RunSummary, NOOP};

use crate::checkpoint::{CheckpointOpts, Phase, Saver, TrainerState, VARIANT_PLAIN, VARIANT_R};
use crate::diagnostics::{lambda_fd, lambda_fr, one_hot_targets_counted, q_prime};
use crate::eval::{
    evaluate_traced, soft_assignments_or_kmeans_traced, xi_assignments_or_kmeans_traced, Metrics,
};
use crate::phase::{restore, Ctx, GuardDriver, PhaseBody, PhaseLoop};
use crate::upsilon::{upsilon, UpsilonConfig};
use crate::xi::{xi, Omega, XiConfig};
use crate::{Error, Result};

/// How Υ counters Feature Drift.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FdMode {
    /// The paper's proposal: gradually rewrite `A` every `M₂` epochs using
    /// the current Ω (a *correction* mechanism).
    GradualCorrection,
    /// Table 7's alternative: transform `A` once, with `Ω = 𝒱`, before the
    /// clustering phase (a *protection* mechanism).
    SingleStepProtection,
}

/// Full configuration of an R-𝒟 run.
#[derive(Clone, Debug)]
pub struct RConfig {
    /// Ξ configuration (α₁, α₂ and their ablation switches).
    pub xi: XiConfig,
    /// Υ configuration (add/drop ablation switches).
    pub upsilon: UpsilonConfig,
    /// Ω refresh period M₁ (epochs).
    pub m1: usize,
    /// A^self_clus refresh period M₂ (epochs).
    pub m2: usize,
    /// Reconstruction weight γ.
    pub gamma: f64,
    /// Pretraining epochs (vanilla reconstruction).
    pub pretrain_epochs: usize,
    /// Maximum clustering-phase epochs.
    pub max_epochs: usize,
    /// Minimum clustering-phase epochs before the convergence check.
    pub min_epochs: usize,
    /// Convergence threshold on |Ω| / N (paper: 0.9).
    pub convergence: f64,
    /// Delay (epochs) before Ξ activates; 0 is the paper's protection
    /// strategy, larger values reproduce Table 6's correction variants.
    pub delay_xi: usize,
    /// Disable Ξ entirely (Table 8 "ablation of both": Ω = 𝒱 always).
    pub use_xi: bool,
    /// Disable Υ entirely (Table 9 "ablation of both": A^self = A always).
    pub use_upsilon: bool,
    /// FD strategy (Table 7).
    pub fd_mode: FdMode,
    /// Record the Λ_FR / Λ_FD diagnostics each epoch (extra backward
    /// passes; needed for Figs. 5–6).
    pub track_diagnostics: bool,
    /// Evaluate clustering metrics every this many epochs (1 = every epoch).
    pub eval_every: usize,
    /// Clustering-phase epochs at which to snapshot the embeddings and the
    /// current self-supervision graph (Figs. 4 and 10).
    pub snapshot_epochs: Vec<usize>,
    /// Worker threads for the `rgae-par` kernels. `None` keeps the process
    /// default (the `RGAE_THREADS` env var, else available parallelism);
    /// `Some(1)` forces the exact serial path. Results are bit-identical at
    /// any setting — this knob trades wall time only.
    pub threads: Option<usize>,
    /// Row-tile height for the fused gram+BCE decoder kernel. `None` keeps
    /// the process default (the `RGAE_DECODER_TILE` env var, else
    /// [`rgae_linalg::DEFAULT_DECODER_TILE`]). Results are bit-identical at
    /// any setting — the tile bounds peak decoder memory (O(B·N)) only.
    pub decoder_tile: Option<usize>,
    /// Numerical-health monitoring + checkpoint-rollback recovery. `None`
    /// (the default) disables the guard layer entirely; with it enabled a
    /// fault-free run is still bit-identical to a guards-off run — the
    /// checks never consume the RNG stream or reorder any computation.
    pub guard: Option<GuardConfig>,
}

impl Default for RConfig {
    fn default() -> Self {
        RConfig {
            xi: XiConfig::new(0.3),
            upsilon: UpsilonConfig::default(),
            m1: 20,
            m2: 10,
            gamma: 0.001,
            pretrain_epochs: 200,
            max_epochs: 200,
            min_epochs: 30,
            convergence: 0.9,
            delay_xi: 0,
            use_xi: true,
            use_upsilon: true,
            fd_mode: FdMode::GradualCorrection,
            track_diagnostics: false,
            eval_every: 1,
            snapshot_epochs: Vec::new(),
            threads: None,
            decoder_tile: None,
            guard: None,
        }
    }
}

impl RConfig {
    /// Appendix-C hyper-parameters (the R-GMM-VGAE rows; per-model
    /// overrides are applied by the experiment harness where they differ).
    pub fn for_dataset(name: &str) -> Self {
        let mut cfg = RConfig::default();
        match name {
            "cora-like" => {
                cfg.xi = XiConfig::new(0.3);
                cfg.m1 = 20;
                cfg.m2 = 10;
            }
            "citeseer-like" => {
                cfg.xi = XiConfig::new(0.2);
                cfg.m1 = 50;
                cfg.m2 = 1;
            }
            "pubmed-like" => {
                cfg.xi = XiConfig::new(0.4);
                cfg.m1 = 50;
                cfg.m2 = 5;
            }
            "usa-air-like" => {
                cfg.xi = XiConfig::new(0.3);
                cfg.m1 = 50;
                cfg.m2 = 1;
            }
            "europe-air-like" => {
                cfg.xi = XiConfig::new(0.05);
                cfg.m1 = 50;
                cfg.m2 = 1;
            }
            "brazil-air-like" => {
                cfg.xi = XiConfig::new(0.25);
                cfg.m1 = 50;
                cfg.m2 = 1;
            }
            _ => {}
        }
        cfg
    }

    /// The full configuration as JSON, for the run manifest. Every switch
    /// the trainer consults appears here so a run log alone is enough to
    /// reproduce the protocol variant.
    pub fn to_json(&self) -> rgae_obs::Json {
        use rgae_obs::Json;
        let obj = |fields: Vec<(&str, Json)>| {
            Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
        };
        obj(vec![
            (
                "xi",
                obj(vec![
                    ("alpha1", Json::Num(self.xi.alpha1)),
                    ("alpha2", Json::Num(self.xi.alpha2)),
                    ("use_alpha1", Json::Bool(self.xi.use_alpha1)),
                    ("use_alpha2", Json::Bool(self.xi.use_alpha2)),
                ]),
            ),
            (
                "upsilon",
                obj(vec![
                    ("add_edges", Json::Bool(self.upsilon.add_edges)),
                    ("drop_edges", Json::Bool(self.upsilon.drop_edges)),
                ]),
            ),
            ("m1", Json::Int(self.m1 as i64)),
            ("m2", Json::Int(self.m2 as i64)),
            ("gamma", Json::Num(self.gamma)),
            ("pretrain_epochs", Json::Int(self.pretrain_epochs as i64)),
            ("max_epochs", Json::Int(self.max_epochs as i64)),
            ("min_epochs", Json::Int(self.min_epochs as i64)),
            ("convergence", Json::Num(self.convergence)),
            ("delay_xi", Json::Int(self.delay_xi as i64)),
            ("use_xi", Json::Bool(self.use_xi)),
            ("use_upsilon", Json::Bool(self.use_upsilon)),
            (
                "fd_mode",
                Json::Str(
                    match self.fd_mode {
                        FdMode::GradualCorrection => "gradual_correction",
                        FdMode::SingleStepProtection => "single_step_protection",
                    }
                    .to_owned(),
                ),
            ),
            ("track_diagnostics", Json::Bool(self.track_diagnostics)),
            ("eval_every", Json::Int(self.eval_every as i64)),
            (
                "snapshot_epochs",
                Json::Arr(
                    self.snapshot_epochs
                        .iter()
                        .map(|&e| Json::Int(e as i64))
                        .collect(),
                ),
            ),
            (
                "threads",
                self.threads.map_or(Json::Null, |t| Json::Int(t as i64)),
            ),
            (
                "decoder_tile",
                self.decoder_tile
                    .map_or(Json::Null, |t| Json::Int(t as i64)),
            ),
            (
                "guard",
                self.guard.as_ref().map_or(Json::Null, |g| {
                    obj(vec![
                        ("spike_factor", Json::Num(g.spike_factor)),
                        ("spike_window", Json::Int(g.spike_window as i64)),
                        ("spike_min_history", Json::Int(g.spike_min_history as i64)),
                        ("collapse_floor", Json::Num(g.collapse_floor)),
                        ("omega_floor", Json::Num(g.omega_floor)),
                        ("check_params", Json::Bool(g.check_params)),
                        ("snapshot_every", Json::Int(g.snapshot_every as i64)),
                        ("max_retries", Json::Int(g.max_retries as i64)),
                        ("lr_backoff", Json::Num(g.lr_backoff)),
                        (
                            "faults",
                            Json::Arr(g.faults.iter().map(|f| Json::Str(f.to_string())).collect()),
                        ),
                    ])
                }),
            ),
        ])
    }

    /// Check the configuration: the refresh and evaluation periods and any
    /// thread or tile override must be positive, γ finite and
    /// non-negative, the convergence threshold a number, and Ξ's
    /// thresholds in [0, 1]. Every trainer entry calls this before any
    /// epoch runs or any checkpoint is written.
    pub fn validate(&self) -> Result<()> {
        self.xi.validate()?;
        let checks = [
            (self.m1 == 0, "m1 must be at least 1"),
            (self.m2 == 0, "m2 must be at least 1"),
            (self.eval_every == 0, "eval_every must be at least 1"),
            (
                self.threads == Some(0),
                "threads must be at least 1 when set",
            ),
            (
                self.decoder_tile == Some(0),
                "decoder_tile must be at least 1 when set",
            ),
            (
                !(self.gamma.is_finite() && self.gamma >= 0.0),
                "gamma must be finite and non-negative",
            ),
            (self.convergence.is_nan(), "convergence must not be NaN"),
        ];
        match checks.into_iter().find(|&(bad, _)| bad) {
            Some((_, msg)) => Err(Error::Config(msg)),
            None => Ok(()),
        }
    }

    /// Shrink epoch counts for smoke tests and `--quick` harness runs.
    pub fn quick(mut self) -> Self {
        self.pretrain_epochs = self.pretrain_epochs.min(60);
        self.max_epochs = self.max_epochs.min(60);
        self.min_epochs = self.min_epochs.min(10);
        self.m1 = self.m1.min(10);
        self.m2 = self.m2.min(5);
        self
    }
}

/// Per-epoch trace of an R run (drives Figs. 4–6 and 9).
#[derive(Clone, Debug)]
pub struct EpochRecord {
    /// Clustering-phase epoch index.
    pub epoch: usize,
    /// Training loss at this step.
    pub loss: f64,
    /// Clustering metrics over all nodes (only filled on eval epochs).
    pub metrics: Option<Metrics>,
    /// |Ω|.
    pub omega_size: usize,
    /// Accuracy restricted to Ω.
    pub omega_acc: f64,
    /// Accuracy over 𝒱 − Ω.
    pub rest_acc: f64,
    /// Statistics of the current self-supervision graph. Computed only on
    /// eval epochs (and always on the final one) — the O(|E|) scans are
    /// skipped in between.
    pub graph_stats: Option<GraphStats>,
    /// Links present in `A^self_clus` but not in `A`, split by label
    /// agreement: `(true_links, false_links)`. Eval epochs only.
    pub added_links: Option<(usize, usize)>,
    /// Links of `A` missing from `A^self_clus`, split the same way. Eval
    /// epochs only.
    pub dropped_links: Option<(usize, usize)>,
    /// Λ_FR with the Ξ restriction (the R-model's own value).
    pub lambda_fr_restricted: Option<f64>,
    /// Λ_FR without the restriction (the plain model's value at the same θ).
    pub lambda_fr_full: Option<f64>,
    /// Λ_FD of the current self-supervision graph vs Υ(A, Q′, 𝒱).
    pub lambda_fd_current: Option<f64>,
    /// Λ_FD of the vanilla graph `A` vs Υ(A, Q′, 𝒱).
    pub lambda_fd_vanilla: Option<f64>,
}

impl EpochRecord {
    /// The run-log view of this record.
    pub fn to_event(&self) -> EpochEvent {
        EpochEvent {
            epoch: self.epoch,
            loss: self.loss,
            omega_size: self.omega_size,
            omega_acc: self.omega_acc,
            rest_acc: self.rest_acc,
            added_links: self.added_links,
            dropped_links: self.dropped_links,
            acc: self.metrics.as_ref().map(|m| m.acc),
            nmi: self.metrics.as_ref().map(|m| m.nmi),
            ari: self.metrics.as_ref().map(|m| m.ari),
            lambda_fr_restricted: self.lambda_fr_restricted,
            lambda_fr_full: self.lambda_fr_full,
            lambda_fd_current: self.lambda_fd_current,
            lambda_fd_vanilla: self.lambda_fd_vanilla,
        }
    }
}

/// Outcome of an R run.
#[derive(Clone, Debug)]
pub struct RReport {
    /// Metrics after pretraining + head initialisation (the shared starting
    /// point of 𝒟 and R-𝒟).
    pub pretrain_metrics: Metrics,
    /// Final metrics.
    pub final_metrics: Metrics,
    /// Clustering-phase epoch at which |Ω| ≥ 0.9N was reached.
    pub converged_at: Option<usize>,
    /// Per-epoch trace.
    pub epochs: Vec<EpochRecord>,
    /// Wall-clock seconds for the clustering phase (excludes pretraining).
    pub train_seconds: f64,
    /// Final self-supervision graph (for Fig. 4 snapshots).
    pub final_graph: Rc<Csr>,
    /// `(epoch, Z, A^self_clus)` snapshots taken at `snapshot_epochs`.
    pub snapshots: Vec<(usize, Mat, Rc<Csr>)>,
    /// The guard layer exhausted its retries and the run finished on the
    /// last-good parameters instead of fully recovering.
    pub degraded: bool,
}

/// Outcome of a plain (un-modified 𝒟) run.
#[derive(Clone, Debug)]
pub struct PlainReport {
    /// Metrics after pretraining + head initialisation.
    pub pretrain_metrics: Metrics,
    /// Final metrics.
    pub final_metrics: Metrics,
    /// Per-epoch trace (Λ diagnostics only when requested).
    pub epochs: Vec<EpochRecord>,
    /// Wall-clock seconds for the clustering phase.
    pub train_seconds: f64,
    /// `(epoch, Z)` snapshots taken at `snapshot_epochs`.
    pub snapshots: Vec<(usize, Mat)>,
    /// The guard layer exhausted its retries and the run finished on the
    /// last-good parameters instead of fully recovering.
    pub degraded: bool,
}

/// Split links into (same-label, cross-label) counts.
fn split_links(links: &[(usize, usize)], labels: &[usize]) -> (usize, usize) {
    let mut t = 0;
    let mut f = 0;
    for &(u, v) in links {
        if labels[u] == labels[v] {
            t += 1;
        } else {
            f += 1;
        }
    }
    (t, f)
}

/// Links in `b` missing from `a` (upper triangle).
fn edge_diff(a: &Csr, b: &Csr) -> Vec<(usize, usize)> {
    b.upper_edges()
        .into_iter()
        .filter(|&(u, v)| !a.contains(u, v))
        .collect()
}

/// The supervised clustering-oriented graph `Υ(A, Q′, 𝒱)` used by Λ_FD.
fn supervised_graph(
    data: &TrainData,
    z: &Mat,
    p: &Mat,
    truth: &[usize],
    rec: &dyn Recorder,
) -> Result<Rc<Csr>> {
    let pred = p.row_argmax();
    let qp = q_prime(&pred, truth);
    let k = data
        .num_classes
        .max(qp.iter().copied().max().unwrap_or(0) + 1);
    let (one_hot, clamped) = one_hot_targets_counted(&qp, k);
    rec.count("label_clamp", clamped as u64);
    let all: Vec<usize> = (0..data.num_nodes).collect();
    let out = upsilon(
        &data.adjacency,
        &one_hot,
        z,
        &all,
        &UpsilonConfig::default(),
    )?;
    Ok(Rc::new(out.graph))
}

/// Log an Ω-degeneracy guard event. Emitted whether or not the guard layer
/// is enabled — these are structural conditions of the Ξ operator, and
/// logging them does not perturb any computation.
fn emit_omega_guard(rec: &dyn Recorder, kind: &str, epoch: usize, detail: &str) {
    if rec.enabled() {
        rec.record(&Event::Guard {
            kind: kind.to_owned(),
            severity: "warn".to_owned(),
            phase: "clustering".to_owned(),
            epoch: Some(epoch),
            value: Some(0.0),
            threshold: None,
            detail: detail.to_owned(),
        });
    }
}

/// Log one clustering epoch: its record and the `omega_size` gauge.
fn emit_epoch(rec: &dyn Recorder, e: &EpochRecord) {
    if rec.enabled() {
        rec.record(&Event::Epoch(e.to_event()));
        rec.gauge("omega_size", Some(e.epoch), e.omega_size as f64);
    }
}

/// The generic R-𝒟 trainer.
pub struct RTrainer<'a> {
    cfg: RConfig,
    rec: &'a dyn Recorder,
    ckpt: Option<CheckpointOpts>,
}

impl RTrainer<'static> {
    /// Build from a configuration, with the no-op recorder.
    pub fn new(cfg: RConfig) -> Self {
        RTrainer {
            cfg,
            rec: &NOOP,
            ckpt: None,
        }
    }
}

impl<'a> RTrainer<'a> {
    /// Build from a configuration and a run-log recorder.
    pub fn with_recorder(cfg: RConfig, rec: &'a dyn Recorder) -> Self {
        RTrainer {
            cfg,
            rec,
            ckpt: None,
        }
    }

    /// Enable crash-safe checkpointing. Saves land in `opts.dir` every
    /// `opts.every` epochs (plus at phase boundaries and at the end); with
    /// `opts.resume` the trainer re-enters mid-phase from the newest
    /// readable checkpoint and finishes bit-identically to an uninterrupted
    /// run.
    pub fn with_checkpoints(mut self, opts: CheckpointOpts) -> Self {
        self.ckpt = Some(opts);
        self
    }

    /// Borrow the configuration.
    pub fn config(&self) -> &RConfig {
        &self.cfg
    }

    /// The recorder this trainer reports into.
    pub fn recorder(&self) -> &'a dyn Recorder {
        self.rec
    }

    /// Validate and apply the configuration, open the checkpoint store and
    /// load the state to resume from.
    fn enter(&self) -> Result<(Ctx<'_>, Option<Saver<'_>>, Option<TrainerState>)> {
        apply_config(&self.cfg)?;
        let saver = Saver::open(self.ckpt.as_ref(), self.rec)?;
        let resumed = saver.as_ref().and_then(|s| s.load_for_resume(VARIANT_R));
        let ctx = Ctx {
            cfg: &self.cfg,
            rec: self.rec,
            variant: VARIANT_R,
        };
        Ok((ctx, saver, resumed))
    }

    /// Pretrain only (vanilla reconstruction + head initialisation). Useful
    /// when several variants must share the same pretrained weights.
    pub fn pretrain(
        &self,
        model: &mut dyn GaeModel,
        data: &TrainData,
        rng: &mut Rng64,
    ) -> Result<()> {
        let (ctx, mut saver, resumed) = self.enter()?;
        pretrain_phase(ctx, model, data, rng, &mut saver, resumed).map(drop)
    }

    /// Full R run: pretraining, then the Ξ/Υ clustering phase.
    pub fn train(
        &self,
        model: &mut dyn GaeModel,
        graph: &AttributedGraph,
        rng: &mut Rng64,
    ) -> Result<RReport> {
        let data = TrainData::from_graph(graph);
        self.pretrain(model, &data, rng)?;
        self.train_clustering_phase(model, graph, &data, rng)
    }

    /// The clustering phase alone (assumes pretraining already ran).
    pub fn train_clustering_phase(
        &self,
        model: &mut dyn GaeModel,
        graph: &AttributedGraph,
        data: &TrainData,
        rng: &mut Rng64,
    ) -> Result<RReport> {
        let (ctx, mut saver, resumed) = self.enter()?;
        if self.rec.enabled() {
            // Scope the kernel timing table to this run.
            let _ = rgae_par::take_kernel_stats();
        }
        let done =
            Clustering::new(ctx, data, graph.labels()).run(model, rng, &mut saver, resumed)?;
        Ok(done.r_report())
    }
}

/// Validate the configuration, then apply its thread override to the
/// `rgae-par` pool and its decoder tile override to the fused gram+BCE
/// kernel (no-ops when the config leaves the process defaults in place).
fn apply_config(cfg: &RConfig) -> Result<()> {
    cfg.validate()?;
    if let Some(t) = cfg.threads {
        rgae_par::set_threads(Some(t));
    }
    if cfg.decoder_tile.is_some() {
        rgae_linalg::set_decoder_tile(cfg.decoder_tile);
    }
    Ok(())
}

/// Drain the `rgae-par` per-kernel timing registry into the recorder:
/// `par_<kernel>_calls` counters and `par_<kernel>_seconds` gauges, plus the
/// effective `par_threads` count. Timings are inclusive — a kernel invoked
/// from inside another timed kernel is charged to both.
fn flush_kernel_stats(rec: &dyn Recorder) {
    for (name, stat) in rgae_par::take_kernel_stats() {
        rec.count(&format!("par_{name}_calls"), stat.calls);
        rec.gauge(&format!("par_{name}_seconds"), None, stat.seconds);
    }
    rec.gauge("par_threads", None, rgae_par::threads() as f64);
    let reuses = rgae_autodiff::take_constant_reuse_count();
    if reuses > 0 {
        rec.count("constant_shared_reuses", reuses);
    }
}

/// Pretraining for either variant (they differ only in the state's variant
/// tag): vanilla reconstruction from `resumed`'s epoch, head
/// initialisation, and the phase-boundary save. A `resumed` state past
/// pretraining (clustering or done) skips the phase and is handed back for
/// the clustering phase to restore; otherwise returns `None`.
fn pretrain_phase(
    ctx: Ctx<'_>,
    model: &mut dyn GaeModel,
    data: &TrainData,
    rng: &mut Rng64,
    saver: &mut Option<Saver<'_>>,
    resumed: Option<TrainerState>,
) -> Result<Option<TrainerState>> {
    if resumed
        .as_ref()
        .is_some_and(|st| !matches!(st.phase, Phase::Pretrain { .. }))
    {
        return Ok(resumed);
    }
    let mut body = Pretrain(Rc::clone(&data.adjacency));
    let (mut at, mut elapsed_base) = (Phase::Pretrain { next_epoch: 0 }, 0.0);
    if let Some(st) = &resumed {
        restore(model, rng, &mut body, st)?;
        (at, elapsed_base) = (st.phase, st.elapsed_seconds);
    }
    let mut phase = PhaseLoop::new(ctx, at, elapsed_base, model);
    {
        let _pretrain = span(ctx.rec, "pretrain");
        // A degraded pretraining is not terminal for the run: the loop left
        // the last-good weights (when any) in place, head init follows, and
        // the clustering phase may still recover.
        phase.run(model, data, rng, saver, &mut body)?;
    }
    {
        let _init = span(ctx.rec, "init_head");
        model.init_clustering(data, rng)?;
    }
    // Phase-boundary save: pretraining + head init are the expensive
    // prefix shared by every resume, so always persist them.
    if let Some(s) = saver.as_mut() {
        let next = Phase::Clustering { next_epoch: 0 };
        let st = TrainerState::new(ctx.variant, next, model.export_params(), rng);
        s.save(&st)?;
    }
    Ok(None)
}

/// The pretraining body: reconstruct `A`, nothing else per epoch.
struct Pretrain(Rc<Csr>);

impl PhaseBody for Pretrain {
    fn spec(&mut self, _model: &dyn GaeModel, _epoch: usize) -> Result<StepSpec> {
        Ok(StepSpec::pretrain(Rc::clone(&self.0)))
    }
}

/// The clustering-phase body of either variant. Plain 𝒟 keeps `Ω = 𝒱` and
/// `A^self_clus = A` throughout and never converges early; R-𝒟 refreshes
/// both (Ξ every M₁, Υ every M₂) and stops once `|Ω| ≥ convergence·N`.
struct Clustering<'a> {
    ctx: Ctx<'a>,
    data: &'a TrainData,
    truth: &'a [usize],
    omega: Omega,
    a_self: Rc<Csr>,
    converged_at: Option<usize>,
    pretrain_metrics: Option<Metrics>,
    epochs: Vec<EpochRecord>,
    /// `(epoch, Z, A^self_clus)`; the graph is `None` in plain runs.
    snapshots: Vec<(usize, Mat, Option<Rc<Csr>>)>,
}

/// A finished clustering phase: the body's final state plus the run
/// summary, the shape both reports are built from.
struct Finished<'a> {
    body: Clustering<'a>,
    pretrain_metrics: Metrics,
    final_metrics: Metrics,
    train_seconds: f64,
    degraded: bool,
}

impl<'a> Clustering<'a> {
    fn new(ctx: Ctx<'a>, data: &'a TrainData, truth: &'a [usize]) -> Self {
        Clustering {
            ctx,
            data,
            truth,
            omega: Omega::full(data.num_nodes),
            a_self: Rc::clone(&data.adjacency),
            converged_at: None,
            pretrain_metrics: None,
            epochs: Vec::new(),
            snapshots: Vec::new(),
        }
    }

    fn is_r(&self) -> bool {
        self.ctx.variant == VARIANT_R
    }

    /// The clustering phase from `resumed` — a mid-clustering state, a
    /// finished run to fast-forward, or (any other state, or `None`) a
    /// fresh start: restore with event replay, the pretrain-metrics
    /// evaluation, the epochs, and the finish.
    fn run(
        mut self,
        model: &mut dyn GaeModel,
        rng: &mut Rng64,
        saver: &mut Option<Saver<'_>>,
        resumed: Option<TrainerState>,
    ) -> Result<Finished<'a>> {
        let Ctx { cfg, rec, variant } = self.ctx;
        let data = self.data;
        // A mid-pretraining state belongs to `pretrain`: reaching here with
        // one means the caller chose not to resume that phase.
        let resumed = resumed.filter(|st| !matches!(st.phase, Phase::Pretrain { .. }));
        let (mut at, mut elapsed_base) = (Phase::Clustering { next_epoch: 0 }, 0.0);
        let mut pretrain_metrics = None;
        if let Some(st) = &resumed {
            // Restore every mutable input of the loop at the saved epoch
            // boundary, then replay the stored epoch events so a resumed
            // log is still complete.
            restore(model, rng, &mut self, st)?;
            self.epochs.iter().for_each(|e| emit_epoch(rec, e));
            (at, elapsed_base) = (st.phase, st.elapsed_seconds);
            pretrain_metrics = st.pretrain_metrics;
        }
        // The phase-boundary checkpoint precedes this evaluation, so a
        // resume from it re-consumes the RNG stream exactly like a fresh
        // run; later checkpoints carry the metrics instead.
        let pretrain_metrics = match pretrain_metrics {
            Some(m) => m,
            None => {
                let _eval = span(rec, "eval");
                evaluate_traced(model, data, self.truth, rng, rec)?
            }
        };
        self.pretrain_metrics = Some(pretrain_metrics);

        // Fast-forward: the stored run already finished (only a `Done`
        // state carries final metrics; decoding checks that).
        if let Some((st, final_metrics)) = resumed.and_then(|st| st.final_metrics.map(|m| (st, m)))
        {
            if let (true, Some(epoch)) = (rec.enabled(), self.converged_at) {
                rec.record(&Event::Convergence { epoch });
            }
            let done = Finished {
                body: self,
                pretrain_metrics,
                final_metrics,
                train_seconds: st.elapsed_seconds,
                degraded: st.degraded,
            };
            done.emit_run_end();
            return Ok(done);
        }

        let clustering = span(rec, "clustering");
        let mut phase = PhaseLoop::new(self.ctx, at, elapsed_base, model);
        // Table 7 protection variant: one-shot Υ(A, P, 𝒱) before training;
        // later re-entries restore the transformed graph instead. It runs
        // before the loop seeds its rollback target: the transform happens
        // once per run, so a rollback must not precede it.
        if self.is_r()
            && at.next_epoch() == Some(0)
            && cfg.use_upsilon
            && cfg.fd_mode == FdMode::SingleStepProtection
        {
            let all: Vec<usize> = (0..data.num_nodes).collect();
            self.a_self = self.upsilon_graph(model, rng, &all)?;
        }
        let degraded = phase.run(model, data, rng, saver, &mut self)?;
        let train_seconds = elapsed_base + clustering.stop();

        // Requested snapshots at or past the end of the run collapse into
        // one final snapshot labelled with the actual epoch count — on early
        // convergence that is the convergence epoch + 1, not `max_epochs`.
        let end_epoch = self.epochs.last().map_or(0, |e| e.epoch + 1);
        if cfg.snapshot_epochs.iter().any(|&e| e >= end_epoch)
            && !self.snapshots.iter().any(|s| s.0 == end_epoch)
        {
            let graph = self.snapshot_graph();
            self.snapshots.push((end_epoch, model.embed(data), graph));
        }
        let final_metrics = {
            let _eval = span(rec, "eval");
            evaluate_traced(model, data, self.truth, rng, rec)?
        };
        let done = Finished {
            body: self,
            pretrain_metrics,
            final_metrics,
            train_seconds,
            degraded,
        };
        done.emit_run_end();
        if rec.enabled() {
            flush_kernel_stats(rec);
        }
        if let Some(s) = saver.as_mut() {
            let mut st = TrainerState::new(variant, Phase::Done, model.export_params(), rng);
            done.body.capture(&mut st);
            st.final_metrics = Some(final_metrics);
            st.elapsed_seconds = train_seconds;
            st.degraded = degraded;
            s.save(&st)?;
        }
        Ok(done)
    }

    /// The graph a snapshot records: A^self_clus for R-𝒟, none for plain.
    fn snapshot_graph(&self) -> Option<Rc<Csr>> {
        self.is_r().then(|| Rc::clone(&self.a_self))
    }

    /// `Υ(A, P, nodes)` on the current assignments, logged under an
    /// `upsilon` span with its edge counts.
    fn upsilon_graph(
        &self,
        model: &dyn GaeModel,
        rng: &mut Rng64,
        nodes: &[usize],
    ) -> Result<Rc<Csr>> {
        let Ctx { cfg, rec, .. } = self.ctx;
        let _upsilon = span(rec, "upsilon");
        let p = soft_assignments_or_kmeans_traced(model, self.data, rng, rec)?;
        let z = model.embed(self.data);
        let out = upsilon(&self.data.adjacency, &p, &z, nodes, &cfg.upsilon)?;
        rec.count("edges_added", out.added.len() as u64);
        rec.count("edges_dropped", out.dropped.len() as u64);
        Ok(Rc::new(out.graph))
    }

    /// The epoch record: metrics, and for R-𝒟 the accuracy on Ω and on
    /// 𝒱 − Ω and the links Υ added and dropped. With diagnostics on, Λ is
    /// taken at R-𝒟's own Ω and A^self_clus; a plain run takes it at the Ω
    /// and the Υ graph the R-model would use at the same θ. Also returns
    /// the soft assignments `P` it computed (the epoch's only RNG consumer
    /// besides plain diagnostics), so the guard layer can run its
    /// cluster-collapse check without consuming the stream again.
    fn record(
        &self,
        model: &dyn GaeModel,
        rng: &mut Rng64,
        epoch: usize,
        loss: f64,
        eval_now: bool,
    ) -> Result<(EpochRecord, Mat)> {
        let Ctx { cfg, rec, .. } = self.ctx;
        let (data, truth, a_self, r) = (self.data, self.truth, &self.a_self, self.is_r());

        let eval_t = span(rec, "eval");
        let p = soft_assignments_or_kmeans_traced(model, data, rng, rec)?;
        let pred = p.row_argmax();
        let metrics = eval_now.then(|| Metrics::from_predictions(&pred, truth));
        // Accuracy on Ω and on 𝒱 − Ω, and the links A^self_clus adds to
        // and drops from A: R-𝒟 only, a plain run records zeros. The graph
        // scans are O(|E|) and purely diagnostic, so they run on eval
        // epochs only (none of this consumes the RNG stream).
        let acc_on = |nodes: &[usize], empty: f64| {
            let pick = |labels: &[usize]| nodes.iter().map(|&i| labels[i]).collect::<Vec<_>>();
            if nodes.is_empty() {
                empty
            } else {
                accuracy(&pick(&pred), &pick(truth))
            }
        };
        let (omega_acc, rest_acc) = if r {
            let rest = self.omega.complement(data.num_nodes);
            (acc_on(&self.omega.indices, 0.0), acc_on(&rest, 1.0))
        } else {
            (0.0, 0.0)
        };
        let links = |a: &Csr, b: &Csr| {
            eval_now.then(|| {
                if r {
                    split_links(&edge_diff(a, b), truth)
                } else {
                    (0, 0)
                }
            })
        };
        let graph_stats = eval_now.then(|| GraphStats::compute(a_self, truth));
        let added_links = links(&data.adjacency, a_self);
        let dropped_links = links(a_self, &data.adjacency);
        eval_t.stop();

        let (mut omega_size, mut fr_r, mut fr_full, mut fd_cur, mut fd_van) =
            (self.omega.len(), None, None, None, None);
        if cfg.track_diagnostics {
            let _diag = span(rec, "diagnostics");
            let plain_omega;
            let omega = if r {
                &self.omega
            } else {
                let p_xi = xi_assignments_or_kmeans_traced(model, data, rng, rec)?;
                plain_omega = xi(&p_xi, &cfg.xi)?;
                omega_size = plain_omega.len();
                &plain_omega
            };
            let z = model.embed(data);
            if let Some(target) = model.cluster_target(data)? {
                if !omega.is_empty() {
                    fr_r = lambda_fr(model, data, &target, Some(&omega.indices), truth, rec)?;
                }
                fr_full = lambda_fr(model, data, &target, None, truth, rec)?;
            }
            let sup = supervised_graph(data, &z, &p, truth, rec)?;
            if r {
                fd_cur = Some(lambda_fd(model, data, a_self, &sup)?);
            } else if !omega.is_empty() {
                let out = upsilon(&data.adjacency, &p, &z, &omega.indices, &cfg.upsilon)?;
                fd_cur = Some(lambda_fd(model, data, &Rc::new(out.graph), &sup)?);
            }
            fd_van = Some(lambda_fd(model, data, &data.adjacency, &sup)?);
        }

        let record = EpochRecord {
            epoch,
            loss,
            metrics,
            omega_size,
            omega_acc,
            rest_acc,
            graph_stats,
            added_links,
            dropped_links,
            lambda_fr_restricted: fr_r,
            lambda_fr_full: fr_full,
            lambda_fd_current: fd_cur,
            lambda_fd_vanilla: fd_van,
        };
        Ok((record, p))
    }
}

impl PhaseBody for Clustering<'_> {
    fn before_step(&mut self, model: &dyn GaeModel, rng: &mut Rng64, epoch: usize) -> Result<()> {
        let Ctx { cfg, rec, .. } = self.ctx;
        if cfg.snapshot_epochs.contains(&epoch) {
            let graph = self.snapshot_graph();
            self.snapshots.push((epoch, model.embed(self.data), graph));
        }
        if !self.is_r() {
            return Ok(());
        }
        // Refresh Ω every M₁ epochs (Ω = 𝒱 while Ξ is inactive).
        if epoch.is_multiple_of(cfg.m1) {
            if cfg.use_xi && epoch >= cfg.delay_xi {
                let _xi = span(rec, "xi");
                let p = xi_assignments_or_kmeans_traced(model, self.data, rng, rec)?;
                let candidate = xi(&p, &cfg.xi)?;
                if candidate.is_empty() {
                    emit_omega_guard(
                        rec,
                        "degenerate_omega",
                        epoch,
                        "Xi returned an empty Omega; keeping the previous one",
                    );
                } else {
                    self.omega = candidate;
                }
            } else {
                self.omega = Omega::full(self.data.num_nodes);
            }
        }
        // Refresh A^self_clus every M₂ epochs (gradual correction).
        if cfg.use_upsilon
            && cfg.fd_mode == FdMode::GradualCorrection
            && epoch.is_multiple_of(cfg.m2)
        {
            self.a_self = self.upsilon_graph(model, rng, &self.omega.indices)?;
        }
        Ok(())
    }

    fn spec(&mut self, model: &dyn GaeModel, epoch: usize) -> Result<StepSpec> {
        let n = self.data.num_nodes;
        let cluster = match model.cluster_target(self.data)? {
            // |Ω| = 0 would make the clustering loss an empty-set
            // reduction; skip the term this epoch instead.
            Some(_) if self.omega.is_empty() => {
                emit_omega_guard(
                    self.ctx.rec,
                    "empty_omega",
                    epoch,
                    "|Omega| = 0: skipping the clustering-loss term this epoch",
                );
                None
            }
            Some(target) => Some(ClusterStep {
                target,
                omega: (self.omega.len() < n).then(|| self.omega.indices.clone()),
            }),
            None => None,
        };
        Ok(StepSpec {
            recon_target: Some(Rc::clone(&self.a_self)),
            gamma: self.ctx.cfg.gamma,
            cluster,
        })
    }

    fn end_epoch(
        &mut self,
        model: &dyn GaeModel,
        rng: &mut Rng64,
        epoch: usize,
        loss: f64,
        guard: Option<&mut GuardDriver<'_>>,
    ) -> Result<bool> {
        let Ctx { cfg, rec, .. } = self.ctx;
        let n = self.data.num_nodes;
        // R-𝒟 ends the run on convergence (|Ω| ≥ 0.9N, checked on the Ω
        // that drove the step). Convergence and the budget's last epoch
        // both force a full evaluation, so the closing record always
        // carries metrics whatever `eval_every` says.
        let converging = self.is_r()
            && self.converged_at.is_none()
            && epoch >= cfg.min_epochs
            && self.omega.coverage(n) >= cfg.convergence;
        let eval_now =
            converging || epoch + 1 == cfg.max_epochs || epoch.is_multiple_of(cfg.eval_every);
        let (record, p) = {
            let _record = span(rec, "record");
            self.record(model, rng, epoch, loss, eval_now)?
        };
        emit_epoch(rec, &record);
        self.epochs.push(record);
        if let Some(g) = guard {
            g.warn_checks(epoch, &p, self.is_r().then_some((self.omega.len(), n)));
        }
        if converging {
            self.converged_at = Some(epoch);
            if rec.enabled() {
                rec.record(&Event::Convergence { epoch });
            }
        }
        Ok(converging)
    }

    fn capture(&self, st: &mut TrainerState) {
        if self.is_r() {
            st.omega = Some(self.omega.clone());
            st.a_self = Some((*self.a_self).clone());
        }
        st.converged_at = self.converged_at;
        st.pretrain_metrics = self.pretrain_metrics;
        st.epochs = self.epochs.clone();
        st.snapshots = self
            .snapshots
            .iter()
            .map(|(e, z, a)| (*e, z.clone(), a.as_deref().cloned()))
            .collect();
    }

    fn restore(&mut self, st: &TrainerState) {
        self.a_self = st
            .a_self
            .clone()
            .map_or_else(|| Rc::clone(&self.data.adjacency), Rc::new);
        self.omega = st
            .omega
            .clone()
            .unwrap_or_else(|| Omega::full(self.data.num_nodes));
        self.converged_at = st.converged_at;
        self.epochs.clone_from(&st.epochs);
        self.snapshots = st
            .snapshots
            .iter()
            .map(|(e, z, a)| (*e, z.clone(), a.clone().map(Rc::new)))
            .collect();
    }
}

impl Finished<'_> {
    /// Close the run log with the run summary.
    fn emit_run_end(&self) {
        let rec = self.body.ctx.rec;
        if rec.enabled() {
            rec.record(&Event::RunEnd(RunSummary {
                train_seconds: self.train_seconds,
                converged_at: self.body.converged_at,
                epochs_run: self.body.epochs.len(),
                final_acc: self.final_metrics.acc,
                final_nmi: self.final_metrics.nmi,
                final_ari: self.final_metrics.ari,
                degraded: self.degraded,
            }));
        }
    }

    fn r_report(self) -> RReport {
        let Clustering {
            a_self,
            converged_at,
            epochs,
            snapshots,
            ..
        } = self.body;
        let snapshots = snapshots
            .into_iter()
            .map(|(e, z, a)| (e, z, a.unwrap_or_else(|| Rc::clone(&a_self))))
            .collect();
        RReport {
            pretrain_metrics: self.pretrain_metrics,
            final_metrics: self.final_metrics,
            converged_at,
            epochs,
            train_seconds: self.train_seconds,
            final_graph: a_self,
            snapshots,
            degraded: self.degraded,
        }
    }

    fn plain_report(self) -> PlainReport {
        PlainReport {
            pretrain_metrics: self.pretrain_metrics,
            final_metrics: self.final_metrics,
            epochs: self.body.epochs,
            train_seconds: self.train_seconds,
            snapshots: self
                .body
                .snapshots
                .into_iter()
                .map(|(e, z, _)| (e, z))
                .collect(),
            degraded: self.degraded,
        }
    }
}

/// Train the un-modified model 𝒟: pretraining, head initialisation, then
/// `train_epochs` of its own joint loss against the static graph `A` (or
/// pure reconstruction for first-group models). Diagnostics are recorded
/// when `track_diagnostics` is set (using `xi_cfg` only to compute the
/// hypothetical Ω for the Λ comparisons).
pub fn train_plain(
    model: &mut dyn GaeModel,
    graph: &AttributedGraph,
    cfg: &RConfig,
    rng: &mut Rng64,
) -> Result<PlainReport> {
    train_plain_traced(model, graph, cfg, rng, &NOOP)
}

/// [`train_plain`] with a run-log recorder (spans, epoch events, and the
/// closing run summary, mirroring the R trainer's trace).
pub fn train_plain_traced(
    model: &mut dyn GaeModel,
    graph: &AttributedGraph,
    cfg: &RConfig,
    rng: &mut Rng64,
    rec: &dyn Recorder,
) -> Result<PlainReport> {
    train_plain_ckpt(model, graph, cfg, rng, rec, None)
}

/// [`train_plain_traced`] with crash-safe checkpointing: periodic saves in
/// both phases plus phase-boundary and end-of-run saves, and (with
/// `opts.resume`) bit-identical mid-phase re-entry — the plain counterpart
/// of [`RTrainer::with_checkpoints`].
pub fn train_plain_ckpt(
    model: &mut dyn GaeModel,
    graph: &AttributedGraph,
    cfg: &RConfig,
    rng: &mut Rng64,
    rec: &dyn Recorder,
    ckpt: Option<&CheckpointOpts>,
) -> Result<PlainReport> {
    apply_config(cfg)?;
    if rec.enabled() {
        // Scope the kernel timing table to this run.
        let _ = rgae_par::take_kernel_stats();
    }
    let data = TrainData::from_graph(graph);
    let ctx = Ctx {
        cfg,
        rec,
        variant: VARIANT_PLAIN,
    };
    // One store serves both phases, so `halt_after_saves` counts across
    // them.
    let mut saver = Saver::open(ckpt, rec)?;
    let resumed = saver
        .as_ref()
        .and_then(|s| s.load_for_resume(VARIANT_PLAIN));
    let resumed = pretrain_phase(ctx, model, &data, rng, &mut saver, resumed)?;
    let done = Clustering::new(ctx, &data, graph.labels()).run(model, rng, &mut saver, resumed)?;
    Ok(done.plain_report())
}
