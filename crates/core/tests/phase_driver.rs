//! The phase driver's contract at the trainer surface: a guard trip during
//! pretraining rolls back and retries there exactly as it does in the
//! clustering phase, and a bad [`RConfig`] is rejected before any epoch
//! runs or any checkpoint is written — for the R and the plain trainer.

use std::cell::Cell;
use std::path::PathBuf;
use std::rc::Rc;

use rgae_core::{
    train_plain_ckpt, CheckpointOpts, Error, GuardConfig, RConfig, RTrainer, XiConfig,
};
use rgae_datasets::{citation_like, CitationSpec};
use rgae_graph::AttributedGraph;
use rgae_linalg::{Csr, Mat, Rng64};
use rgae_models::{Dgae, GaeModel, ModelState, Result, StepSpec, TrainData};
use rgae_obs::{Event, MemorySink, NOOP};

fn test_graph() -> AttributedGraph {
    citation_like(
        &CitationSpec {
            name: "cora-like".into(),
            num_nodes: 120,
            num_classes: 3,
            num_features: 60,
            avg_degree: 5.0,
            homophily: 0.82,
            degree_power: 2.6,
            words_per_node: 12,
            topic_purity: 0.8,
            class_proportions: vec![],
        },
        23,
    )
    .unwrap()
}

fn base_cfg() -> RConfig {
    let mut cfg = RConfig::for_dataset("cora-like").quick();
    cfg.pretrain_epochs = 12;
    cfg.max_epochs = 10;
    cfg.min_epochs = 10;
    cfg.eval_every = 5;
    cfg.threads = Some(1);
    cfg
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rgae-phase-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A [`Dgae`] whose `nan_at`-th optimisation step (counting from 0 over the
/// model's life) reports a NaN loss, once. The step itself runs normally, so
/// only the guard's loss check can notice.
#[derive(Clone)]
struct NanOnce {
    inner: Dgae,
    steps: Rc<Cell<usize>>,
    nan_at: usize,
}

impl GaeModel for NanOnce {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn clone_box(&self) -> Box<dyn GaeModel> {
        Box::new(self.clone())
    }
    fn embed(&self, data: &TrainData) -> Mat {
        self.inner.embed(data)
    }
    fn soft_assignments(&self, data: &TrainData) -> Result<Option<Mat>> {
        self.inner.soft_assignments(data)
    }
    fn xi_assignments(&self, data: &TrainData) -> Result<Option<Mat>> {
        self.inner.xi_assignments(data)
    }
    fn init_clustering(&mut self, data: &TrainData, rng: &mut Rng64) -> Result<()> {
        self.inner.init_clustering(data, rng)
    }
    fn cluster_target(&self, data: &TrainData) -> Result<Option<Mat>> {
        self.inner.cluster_target(data)
    }
    fn train_step(&mut self, data: &TrainData, spec: &StepSpec, rng: &mut Rng64) -> Result<f64> {
        let loss = self.inner.train_step(data, spec, rng)?;
        let step = self.steps.get();
        self.steps.set(step + 1);
        Ok(if step == self.nan_at { f64::NAN } else { loss })
    }
    fn clustering_grad(
        &self,
        data: &TrainData,
        target: &Mat,
        omega: Option<&[usize]>,
    ) -> Result<Option<Vec<f64>>> {
        self.inner.clustering_grad(data, target, omega)
    }
    fn recon_grad(&self, data: &TrainData, target: &Rc<Csr>) -> Result<Vec<f64>> {
        self.inner.recon_grad(data, target)
    }
    fn export_params(&self) -> ModelState {
        self.inner.export_params()
    }
    fn import_params(&mut self, state: &ModelState) -> Result<()> {
        self.inner.import_params(state)
    }
    fn scale_lr(&mut self, factor: f64) {
        self.inner.scale_lr(factor);
    }
    fn nonfinite_grad_steps(&self) -> u64 {
        self.inner.nonfinite_grad_steps()
    }
}

fn nan_model(data: &TrainData, graph: &AttributedGraph, rng: &mut Rng64, nan_at: usize) -> NanOnce {
    NanOnce {
        inner: Dgae::new(data.num_features(), graph.num_classes(), rng),
        steps: Rc::new(Cell::new(0)),
        nan_at,
    }
}

/// `(action, phase, detail)` of every recovery event.
fn recoveries(sink: &MemorySink) -> Vec<(String, String, String)> {
    sink.of_kind("recovery")
        .into_iter()
        .filter_map(|e| match e {
            Event::Recovery {
                action,
                phase,
                detail,
                ..
            } => Some((action, phase, detail)),
            _ => None,
        })
        .collect()
}

fn assert_pretrain_rollback(sink: &MemorySink, source: &str) {
    let rec = recoveries(sink);
    let got: Vec<(&str, &str)> = rec
        .iter()
        .map(|(a, p, _)| (a.as_str(), p.as_str()))
        .collect();
    assert_eq!(
        got,
        vec![("rollback", "pretrain"), ("retry", "pretrain")],
        "log: {rec:?}"
    );
    assert!(
        rec[0].2.contains(&format!("{source} state at pretrain")),
        "rollback source: {}",
        rec[0].2
    );
    let trips = sink.of_kind("guard").into_iter().any(|e| {
        matches!(e, Event::Guard { kind, phase, .. } if kind == "nonfinite_loss" && phase == "pretrain")
    });
    assert!(trips, "the NaN loss must trip the pretrain guard");
}

/// A NaN loss at pretrain epoch 7 trips the guard, which rolls back — to
/// the epoch-6 checkpoint, or to the in-memory phase-entry seed without a
/// store — and retries; the run then finishes healthy, covering the whole
/// clustering schedule.
#[test]
fn pretrain_nan_loss_rolls_back_and_retries_r() {
    let graph = test_graph();
    let data = TrainData::from_graph(&graph);
    let mut cfg = base_cfg();
    cfg.guard = Some(GuardConfig::default());
    for ckpt in [true, false] {
        let dir = temp_dir(&format!("r-{ckpt}"));
        let mut rng = Rng64::seed_from_u64(5);
        let mut model = nan_model(&data, &graph, &mut rng, 7);
        let sink = MemorySink::new();
        let mut trainer = RTrainer::with_recorder(cfg.clone(), &sink);
        if ckpt {
            trainer = trainer.with_checkpoints(CheckpointOpts::new(&dir).every(3));
        }
        let report = trainer.train(&mut model, &graph, &mut rng).unwrap();
        assert!(!report.degraded, "one trip within budget must not degrade");
        assert_eq!(report.epochs.last().unwrap().epoch, 9);
        assert!(report.final_metrics.acc.is_finite());
        assert_pretrain_rollback(&sink, if ckpt { "checkpoint" } else { "memory" });
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn pretrain_nan_loss_rolls_back_and_retries_plain() {
    let graph = test_graph();
    let data = TrainData::from_graph(&graph);
    let mut cfg = base_cfg();
    cfg.guard = Some(GuardConfig::default());
    for ckpt in [true, false] {
        let dir = temp_dir(&format!("plain-{ckpt}"));
        let opts = CheckpointOpts::new(&dir).every(3);
        let mut rng = Rng64::seed_from_u64(5);
        let mut model = nan_model(&data, &graph, &mut rng, 7);
        let sink = MemorySink::new();
        let report = train_plain_ckpt(
            &mut model,
            &graph,
            &cfg,
            &mut rng,
            &sink,
            ckpt.then_some(&opts),
        )
        .unwrap();
        assert!(!report.degraded, "one trip within budget must not degrade");
        assert_eq!(report.epochs.last().unwrap().epoch, 9);
        assert!(report.final_metrics.acc.is_finite());
        assert_pretrain_rollback(&sink, if ckpt { "checkpoint" } else { "memory" });
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Every invalid setting [`RConfig::validate`] rejects, by name.
fn invalid_configs() -> Vec<(&'static str, RConfig)> {
    let with = |f: fn(&mut RConfig)| {
        let mut cfg = base_cfg();
        f(&mut cfg);
        cfg
    };
    vec![
        ("m1 = 0", with(|c| c.m1 = 0)),
        ("m2 = 0", with(|c| c.m2 = 0)),
        ("threads = 0", with(|c| c.threads = Some(0))),
        ("decoder_tile = 0", with(|c| c.decoder_tile = Some(0))),
        ("eval_every = 0", with(|c| c.eval_every = 0)),
        ("gamma = NaN", with(|c| c.gamma = f64::NAN)),
        ("gamma = -1", with(|c| c.gamma = -1.0)),
        ("convergence = NaN", with(|c| c.convergence = f64::NAN)),
        ("alpha1 = 1.5", with(|c| c.xi = XiConfig::new(1.5))),
        ("alpha2 = NaN", with(|c| c.xi.alpha2 = f64::NAN)),
    ]
}

/// The checkpoint directory holds nothing (it may not even exist).
fn assert_untouched(dir: &PathBuf, what: &str) {
    let entries = std::fs::read_dir(dir).map_or(0, |d| d.count());
    assert_eq!(entries, 0, "{what}: nothing may be written");
}

#[test]
fn invalid_config_fails_before_training_r() {
    let graph = test_graph();
    let data = TrainData::from_graph(&graph);
    for (what, cfg) in invalid_configs() {
        let dir = temp_dir("invalid-r");
        let mut rng = Rng64::seed_from_u64(1);
        let mut model = Dgae::new(data.num_features(), graph.num_classes(), &mut rng);
        let trainer = RTrainer::new(cfg).with_checkpoints(CheckpointOpts::new(&dir).every(1));
        let full = trainer.train(&mut model, &graph, &mut rng);
        assert!(matches!(full, Err(Error::Config(_))), "{what}: {full:?}");
        let clustering = trainer.train_clustering_phase(&mut model, &graph, &data, &mut rng);
        assert!(
            matches!(clustering, Err(Error::Config(_))),
            "{what}: {clustering:?}"
        );
        assert_untouched(&dir, what);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn invalid_config_fails_before_training_plain() {
    let graph = test_graph();
    for (what, cfg) in invalid_configs() {
        let dir = temp_dir("invalid-plain");
        let mut rng = Rng64::seed_from_u64(1);
        let data = TrainData::from_graph(&graph);
        let mut model = Dgae::new(data.num_features(), graph.num_classes(), &mut rng);
        let opts = CheckpointOpts::new(&dir).every(1);
        let out = train_plain_ckpt(&mut model, &graph, &cfg, &mut rng, &NOOP, Some(&opts));
        assert!(matches!(out, Err(Error::Config(_))), "{what}: {out:?}");
        assert_untouched(&dir, what);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Settings existing callers rely on stay valid: no pretraining (the
/// shared-pretraining harnesses), `min_epochs ≥ max_epochs` (full traces)
/// and the γ sweep of Fig. 13.
#[test]
fn edge_settings_in_use_stay_valid() {
    let mut cfg = base_cfg();
    cfg.pretrain_epochs = 0;
    cfg.min_epochs = cfg.max_epochs + 5;
    for gamma in [1e-4, 1e-2, 1.0] {
        cfg.gamma = gamma;
        assert!(cfg.validate().is_ok(), "gamma = {gamma}");
    }
    assert!(RConfig::default().validate().is_ok());
}
