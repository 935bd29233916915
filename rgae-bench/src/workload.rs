//! The three workloads, their set-up, and one training run of each through
//! the crates' public entry points.

use std::cell::{Cell, RefCell};
use std::panic::{self, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

use rgae_core::{PlainReport, RConfig, RReport, RTrainer};
use rgae_graph::AttributedGraph;
use rgae_linalg::Rng64;
use rgae_models::{GaeModel, TrainData};
use rgae_obs::{Event, Recorder};
use rgae_xp::{emit_run_start, rconfig_for_opts, DatasetKind, HarnessOpts, ModelKind, PairOutcome};

use crate::machine;

/// Name under which runs are logged and checkpointed.
pub const BINARY: &str = "rgae-bench";

/// A fixed workload. The seed only selects the generated graph and the
/// model initialisation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// R-GMM-VGAE on cora-like(1.0), N = 1200, with Figure 9's settings:
    /// decoder-bound, so linalg, par and decoder changes show here.
    Fig9,
    /// Table 5's plain-vs-R pair for GMM-VGAE and DGAE on cora-like(0.35),
    /// N = 420, under `run_all.sh`'s guard and 25-epoch checkpoints: per-
    /// epoch fixed costs show here, and the plain halves bypass Ξ/Υ.
    Table5,
    /// The R half of Figures 5–6: R-GMM-VGAE on cora-like(0.35) tracking the
    /// Λ diagnostics, which take gradients without updating parameters.
    Diag,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Fig9, Workload::Table5, Workload::Diag];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig9 => "fig9-n1200",
            Workload::Table5 => "table5-n420",
            Workload::Diag => "diag-n420",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn scale(self) -> f64 {
        match self {
            Workload::Fig9 => 1.0,
            Workload::Table5 | Workload::Diag => 0.35,
        }
    }

    /// The models trained, in order.
    pub fn models(self) -> &'static [ModelKind] {
        match self {
            Workload::Table5 => &[ModelKind::GmmVgae, ModelKind::Dgae],
            Workload::Fig9 | Workload::Diag => &[ModelKind::GmmVgae],
        }
    }

    /// Training runs (operations) in one run of the workload.
    pub fn ops_per_run(self) -> usize {
        match self {
            Workload::Table5 => 2 * self.models().len(),
            Workload::Fig9 | Workload::Diag => 1,
        }
    }

    /// Harness options: `run_all.sh`'s production wrapper (guard on,
    /// checkpoints every 25 epochs under `ckpt_root`) for Table 5, the
    /// harness defaults otherwise.
    pub fn harness(self, ckpt_root: &Path) -> HarnessOpts {
        let mut opts = HarnessOpts::default();
        if self == Workload::Table5 {
            opts.guard = true;
            opts.checkpoint_dir = Some(ckpt_root.to_path_buf());
            opts.checkpoint_every = 25;
        }
        opts
    }

    /// The training configuration of `model` in this workload.
    pub fn config(self, model: ModelKind, opts: &HarnessOpts) -> RConfig {
        let mut cfg = rconfig_for_opts(model, DatasetKind::CoraLike, opts);
        match self {
            Workload::Fig9 => {
                cfg.eval_every = 1;
                cfg.min_epochs = cfg.max_epochs;
            }
            Workload::Diag => {
                cfg.track_diagnostics = true;
                cfg.eval_every = 1;
                cfg.max_epochs = 140;
                cfg.min_epochs = 140;
            }
            Workload::Table5 => {}
        }
        cfg
    }
}

/// One model of the workload with its RNG stream.
pub struct Member {
    /// Which model.
    pub kind: ModelKind,
    /// The model the R trainer drives (for Table 5, the R twin of the pair;
    /// `run_pair` builds its own pair, so this one only feeds the per-layer
    /// measurements).
    pub model: Box<dyn GaeModel>,
    /// The stream the model was initialised from, positioned after it.
    pub rng: Rng64,
}

/// A workload's inputs, built from the seed.
pub struct Prepared {
    /// The generated graph.
    pub graph: AttributedGraph,
    /// Its training context.
    pub data: TrainData,
    /// The models to train.
    pub members: Vec<Member>,
}

/// Seconds spent in each set-up step.
#[derive(Clone, Copy, Debug)]
pub struct SetupTimes {
    /// Generating the dataset.
    pub build_s: f64,
    /// `TrainData::from_graph`.
    pub train_data_s: f64,
    /// Constructing the models.
    pub models_s: f64,
}

impl SetupTimes {
    /// The whole set-up.
    pub fn total(&self) -> f64 {
        self.build_s + self.train_data_s + self.models_s
    }
}

/// Build the workload's inputs from `seed`, the way the experiment binaries
/// do: the dataset from the seed, each model (for Table 5, each plain/R
/// pair) from `Rng64(seed)`.
pub fn prepare(w: Workload, seed: u64) -> (Prepared, SetupTimes) {
    let t0 = Instant::now();
    let graph = DatasetKind::CoraLike.build(w.scale(), seed);
    let t1 = Instant::now();
    let data = TrainData::from_graph(&graph);
    let t2 = Instant::now();
    let members = w
        .models()
        .iter()
        .map(|&kind| {
            let mut rng = Rng64::seed_from_u64(seed);
            let (f, k) = (data.num_features(), graph.num_classes());
            let model = if w == Workload::Table5 {
                kind.build_pair(f, k, &mut rng).1
            } else {
                kind.build(f, k, &mut rng)
            };
            Member { kind, model, rng }
        })
        .collect();
    let t3 = Instant::now();
    let times = SetupTimes {
        build_s: (t1 - t0).as_secs_f64(),
        train_data_s: (t2 - t1).as_secs_f64(),
        models_s: (t3 - t2).as_secs_f64(),
    };
    (
        Prepared {
            graph,
            data,
            members,
        },
        times,
    )
}

/// One training run as the recorder saw it, from its `RunStart` event on.
#[derive(Clone, Debug)]
pub struct Half {
    /// The manifest's variant: `plain` or `r`.
    pub variant: String,
    /// When the `RunStart` event arrived.
    pub start: Instant,
    /// Guards tripped before the run started.
    pub trips_before: u64,
    /// Seconds of the run's `pretrain` and `init_head` spans.
    pub pretrain_s: f64,
}

/// Spans that make up `RTrainer::pretrain` (and a plain run's pretraining).
pub const PRETRAIN_SPANS: [&str; 2] = ["pretrain", "init_head"];

/// The recorder of the untraced repeats. It keeps no events: it counts
/// tripped guards, which the trainer reports only to an enabled recorder,
/// and notes when each run starts and how long its pretraining spans took.
#[derive(Default)]
pub struct Watch {
    trips: Cell<u64>,
    halves: RefCell<Vec<Half>>,
}

impl Watch {
    /// Guard findings of severity `trip` seen so far.
    pub fn trips(&self) -> u64 {
        self.trips.get()
    }

    /// Runs started so far, in order.
    pub fn halves(&self) -> Vec<Half> {
        self.halves.borrow().clone()
    }
}

impl Recorder for Watch {
    fn record(&self, event: &Event) {
        match event {
            Event::Guard { severity, .. } if severity == "trip" => {
                self.trips.set(self.trips.get() + 1);
            }
            Event::RunStart(m) => self.halves.borrow_mut().push(Half {
                variant: m.variant.clone(),
                start: Instant::now(),
                trips_before: self.trips.get(),
                pretrain_s: 0.0,
            }),
            _ => {}
        }
    }

    fn span_enter(&self, _name: &'static str) {}

    fn span_exit(&self, name: &'static str, seconds: f64) {
        if PRETRAIN_SPANS.contains(&name) {
            if let Some(h) = self.halves.borrow_mut().last_mut() {
                h.pretrain_s += seconds;
            }
        }
    }
}

/// A recorder that carries a [`Watch`].
pub trait Probe: Recorder {
    /// The run starts and guard trips seen so far.
    fn watch(&self) -> &Watch;
}

impl Probe for Watch {
    fn watch(&self) -> &Watch {
        self
    }
}

/// The outcome of one training run (one operation).
#[derive(Clone, Debug)]
pub struct Op {
    /// `<model>/<variant>`.
    pub name: String,
    /// The error the run returned, if any.
    pub error: Option<String>,
    /// The guard finished the run on last-good parameters.
    pub degraded: bool,
    /// Guards tripped during the run.
    pub trips: u64,
    /// Every epoch loss and the final metrics are finite.
    pub finite: bool,
    /// Bits of the last clustering-epoch loss.
    pub loss_bits: u64,
    /// Clustering-phase epochs run.
    pub clustering_epochs: usize,
    /// Pretraining epochs run.
    pub pretrain_epochs: usize,
    /// Final clustering accuracy.
    pub acc: f64,
    /// Final NMI.
    pub nmi: f64,
    /// Seconds inside pretraining (see [`train`]).
    pub pretrain_s: f64,
    /// The report's `train_seconds`: the clustering phase.
    pub clustering_s: f64,
    /// The R run's convergence epoch.
    pub converged_at: Option<usize>,
}

impl Op {
    /// Whether the run failed by any of the benchmark's rules except the
    /// cross-repeat bit comparison, which needs the other repeats.
    pub fn failed(&self) -> bool {
        self.error.is_some() || self.degraded || self.trips > 0 || !self.finite
    }

    fn failure(name: String, error: String) -> Op {
        Op {
            name,
            error: Some(error),
            degraded: false,
            trips: 0,
            finite: false,
            loss_bits: f64::NAN.to_bits(),
            clustering_epochs: 0,
            pretrain_epochs: 0,
            acc: f64::NAN,
            nmi: f64::NAN,
            pretrain_s: 0.0,
            clustering_s: 0.0,
            converged_at: None,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn finished(
        name: String,
        losses: &[f64],
        acc: f64,
        nmi: f64,
        degraded: bool,
        trips: u64,
        pretrain_epochs: usize,
        pretrain_s: f64,
        clustering_s: f64,
        converged_at: Option<usize>,
    ) -> Op {
        Op {
            name,
            error: None,
            degraded,
            trips,
            finite: losses.iter().all(|l| l.is_finite()) && acc.is_finite() && nmi.is_finite(),
            loss_bits: losses.last().copied().unwrap_or(f64::NAN).to_bits(),
            clustering_epochs: losses.len(),
            pretrain_epochs,
            acc,
            nmi,
            pretrain_s,
            clustering_s,
            converged_at,
        }
    }

    fn r_name(kind: ModelKind) -> String {
        format!("{}/r", kind.name())
    }

    fn plain_name(kind: ModelKind) -> String {
        format!("{}/plain", kind.name())
    }

    fn from_r(
        kind: ModelKind,
        report: rgae_core::Result<RReport>,
        pretrain: (usize, f64),
        trips: u64,
    ) -> Op {
        match report {
            Ok(r) => {
                let losses: Vec<f64> = r.epochs.iter().map(|e| e.loss).collect();
                Op::finished(
                    Op::r_name(kind),
                    &losses,
                    r.final_metrics.acc,
                    r.final_metrics.nmi,
                    r.degraded,
                    trips,
                    pretrain.0,
                    pretrain.1,
                    r.train_seconds,
                    r.converged_at,
                )
            }
            Err(e) => Op::failure(Op::r_name(kind), e.to_string()),
        }
    }

    /// A plain run that took `total_s` seconds in all.
    fn from_plain(
        kind: ModelKind,
        p: PlainReport,
        pretrain_epochs: usize,
        total_s: f64,
        trips: u64,
    ) -> Op {
        let losses: Vec<f64> = p.epochs.iter().map(|e| e.loss).collect();
        Op::finished(
            Op::plain_name(kind),
            &losses,
            p.final_metrics.acc,
            p.final_metrics.nmi,
            p.degraded,
            trips,
            pretrain_epochs,
            total_s - p.train_seconds,
            p.train_seconds,
            None,
        )
    }
}

/// One run of a workload.
pub struct Run {
    /// One entry per training run, in execution order.
    pub ops: Vec<Op>,
    /// Wall seconds from the first training call to the end of the last.
    pub wall_s: f64,
    /// Process CPU seconds over the same interval.
    pub cpu_s: f64,
    /// A pretrained (head-initialised) GMM-VGAE R model, when requested.
    pub pretrained: Option<Box<dyn GaeModel>>,
}

/// Train the workload.
///
/// Fig. 9 and the diagnostics workload call `RTrainer::pretrain` then
/// `RTrainer::train_clustering_phase`; an R run's pretraining time is the
/// time inside `pretrain`. Table 5 calls `rgae_xp::run_pair` once per model.
/// Its halves are told apart by the `RunStart` event each emits: the plain
/// half runs from its own `RunStart` to the R half's, and its pretraining
/// time is that minus its `train_seconds`; the R half's pretraining time is
/// its `pretrain` and `init_head` spans, and its guard trips are those after
/// its `RunStart`.
///
/// With `keep_pretrained`, a GMM-VGAE model pretrained on the workload's
/// data is returned for the per-layer measurements. For Table 5 it is
/// pretrained after the timed region, untraced and without checkpoints.
pub fn train(
    w: Workload,
    prepared: Prepared,
    seed: u64,
    ckpt_root: &Path,
    probe: &dyn Probe,
    keep_pretrained: bool,
) -> Run {
    let Prepared {
        graph,
        data,
        mut members,
    } = prepared;
    let opts = w.harness(ckpt_root);
    let dataset = DatasetKind::CoraLike.name();
    let mut pretrained = None;
    let cpu0 = machine::cpu_seconds();
    let t0 = Instant::now();
    let ops: Vec<Op> = if w == Workload::Table5 {
        w.models()
            .iter()
            .flat_map(|&kind| {
                let cfg = w.config(kind, &opts);
                let seen = probe.watch().halves().len();
                let out = panic::catch_unwind(AssertUnwindSafe(|| {
                    rgae_xp::run_pair(
                        kind,
                        DatasetKind::CoraLike,
                        &graph,
                        &cfg,
                        seed,
                        probe,
                        &opts,
                    )
                }));
                let halves = probe.watch().halves().split_off(seen);
                pair_ops(kind, &cfg, out, &halves, probe.watch().trips())
            })
            .collect()
    } else {
        members
            .drain(..)
            .map(
                |Member {
                     kind,
                     mut model,
                     rng,
                 }| {
                    let cfg = w.config(kind, &opts);
                    let trainer = RTrainer::with_recorder(cfg.clone(), probe);
                    // Stream positions as in the experiment binaries: Fig. 9
                    // trains on the initialisation stream, Figs. 5–6 re-seed the
                    // clustering phase.
                    let mut rng_pre = rng;
                    let mut rng_clu = match w {
                        Workload::Diag => Some(Rng64::seed_from_u64(seed ^ 0xA)),
                        Workload::Fig9 | Workload::Table5 => None,
                    };
                    emit_run_start(probe, BINARY, kind.name(), dataset, "r", seed, &cfg);
                    let trips = probe.watch().trips();
                    let t = Instant::now();
                    let pre = trainer.pretrain(model.as_mut(), &data, &mut rng_pre);
                    let pretrain_s = t.elapsed().as_secs_f64();
                    if keep_pretrained && kind == ModelKind::GmmVgae {
                        pretrained = Some(model.clone_box());
                    }
                    let rng_clu = rng_clu.get_or_insert(rng_pre);
                    let report = pre.and_then(|()| {
                        trainer.train_clustering_phase(model.as_mut(), &graph, &data, rng_clu)
                    });
                    Op::from_r(
                        kind,
                        report,
                        (cfg.pretrain_epochs, pretrain_s),
                        probe.watch().trips() - trips,
                    )
                },
            )
            .collect()
    };
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = machine::cpu_seconds() - cpu0;
    if keep_pretrained && pretrained.is_none() {
        // Table 5: `run_pair` keeps its models, so pretrain the prepared one.
        pretrained = members
            .into_iter()
            .find(|m| m.kind == ModelKind::GmmVgae)
            .map(|mut m| {
                let cfg = w.config(m.kind, &HarnessOpts::default());
                RTrainer::new(cfg)
                    .pretrain(m.model.as_mut(), &data, &mut m.rng)
                    .expect("pretrain the per-layer model");
                m.model
            });
    }
    Run {
        ops,
        wall_s,
        cpu_s,
        pretrained,
    }
}

/// The two operations of one `run_pair` call, from its outcome and the
/// halves the recorder saw during it.
fn pair_ops(
    kind: ModelKind,
    cfg: &RConfig,
    out: std::thread::Result<PairOutcome>,
    halves: &[Half],
    trips_after: u64,
) -> [Op; 2] {
    let fail = |why: String| {
        [
            Op::failure(Op::plain_name(kind), why.clone()),
            Op::failure(Op::r_name(kind), why),
        ]
    };
    let out = match out {
        Ok(out) => out,
        Err(panic) => {
            let why = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_owned()))
                .unwrap_or_else(|| "run_pair panicked".to_owned());
            return fail(format!("run_pair failed: {why}"));
        }
    };
    let (plain, r) = match halves {
        [p, r] if p.variant == "plain" && r.variant == "r" => (p, r),
        _ => {
            let seen: Vec<&str> = halves.iter().map(|h| h.variant.as_str()).collect();
            return fail(format!(
                "run_pair started runs {seen:?}, expected [\"plain\", \"r\"]"
            ));
        }
    };
    [
        Op::from_plain(
            kind,
            out.plain,
            cfg.pretrain_epochs,
            (r.start - plain.start).as_secs_f64(),
            r.trips_before - plain.trips_before,
        ),
        Op::from_r(
            kind,
            Ok(out.r),
            (cfg.pretrain_epochs, r.pretrain_s),
            trips_after - r.trips_before,
        ),
    ]
}
