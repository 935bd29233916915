//! The recorders a run reports into, and the per-layer measurements of the
//! traced run. Everything here times or counts calls into the crates'
//! public functions from outside; nothing is added inside the program.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::Instant;

use rgae_autodiff::Graph;
use rgae_ckpt::ByteWriter;
use rgae_cluster::{kmeans, GaussianMixture};
use rgae_core::{evaluate, lambda_fd, lambda_fr, upsilon, xi};
use rgae_linalg::{Mat, Rng64};
use rgae_models::{ClusterStep, StepSpec, TrainData};
use rgae_obs::{Event, MemorySink, Recorder, NOOP};
use rgae_par::KernelStat;
use rgae_xp::ModelKind;

use crate::alloc;
use crate::stats::{median, nearest_rank};
use crate::workload::{self, Op, Probe, Watch, Workload, PRETRAIN_SPANS};

/// The recorder of the traced run: a [`MemorySink`] and a [`Watch`] that
/// also moves the kernel timings of each `pretrain` and `init_head` span out
/// of the process-wide registry when the span closes. (The trainer clears
/// the registry when a clustering phase starts and reports it as gauges when
/// one ends.)
#[derive(Default)]
struct Traced {
    sink: MemorySink,
    watch: Watch,
    pretrain_kernels: RefCell<Vec<(&'static str, KernelStat)>>,
    /// `(path, bytes)` of every checkpoint save, sized right after it.
    saves: RefCell<Vec<(PathBuf, u64)>>,
}

impl Recorder for Traced {
    fn record(&self, event: &Event) {
        self.watch.record(event);
        if let Event::Checkpoint { action, path, .. } = event {
            if action == "saved" {
                let bytes = std::fs::metadata(path).map_or(0, |m| m.len());
                self.saves.borrow_mut().push((PathBuf::from(path), bytes));
            }
        }
        self.sink.record(event);
    }

    fn span_enter(&self, name: &'static str) {
        self.sink.span_enter(name);
    }

    fn span_exit(&self, name: &'static str, seconds: f64) {
        self.watch.span_exit(name, seconds);
        self.sink.span_exit(name, seconds);
        if PRETRAIN_SPANS.contains(&name) {
            self.pretrain_kernels
                .borrow_mut()
                .extend(rgae_par::take_kernel_stats());
        }
    }
}

impl Probe for Traced {
    fn watch(&self) -> &Watch {
        &self.watch
    }
}

impl Traced {
    /// Durations of every span whose path ends with `suffix`.
    fn spans(&self, suffix: &str) -> Vec<f64> {
        self.sink
            .events()
            .iter()
            .filter_map(|e| match e {
                Event::SpanEnd { path, seconds }
                    if path == suffix || path.ends_with(&format!("/{suffix}")) =>
                {
                    Some(*seconds)
                }
                _ => None,
            })
            .collect()
    }

    /// `(calls, seconds)` per kernel: the pretraining share and the
    /// clustering-phase share the trainer flushed.
    fn kernels(&self) -> (KernelTable, KernelTable) {
        let mut pretrain = KernelTable::new();
        for (k, s) in self.pretrain_kernels.borrow().iter() {
            let e = pretrain.entry(k.to_string()).or_default();
            e.0 += s.calls as f64;
            e.1 += s.seconds;
        }
        let mut clustering = KernelTable::new();
        for e in self.sink.events().iter() {
            let kernel = |name: &str, suffix: &str| {
                name.strip_prefix("par_")
                    .and_then(|n| n.strip_suffix(suffix))
                    .map(str::to_owned)
            };
            match e {
                Event::Counter { name, delta } => {
                    if let Some(k) = kernel(name, "_calls") {
                        clustering.entry(k).or_default().0 += *delta as f64;
                    }
                }
                Event::Gauge {
                    name,
                    value,
                    epoch: None,
                } => {
                    if let Some(k) = kernel(name, "_seconds") {
                        clustering.entry(k).or_default().1 += value;
                    }
                }
                _ => {}
            }
        }
        (pretrain, clustering)
    }
}

/// Kernel name to `(calls, seconds)`.
type KernelTable = BTreeMap<String, (f64, f64)>;

/// Summed `(calls, seconds)` of the kernels `pick` selects.
fn kernel_sum<'a>(
    tables: impl IntoIterator<Item = &'a KernelTable>,
    pick: impl Fn(&str) -> bool,
) -> (f64, f64) {
    tables
        .into_iter()
        .flatten()
        .filter(|(k, _)| pick(k))
        .fold((0.0, 0.0), |(c, s), (_, (calls, secs))| {
            (c + calls, s + secs)
        })
}

const DECODER: &str = "fused_gram_bce_fwd_bwd";
/// Timed `train_step` calls: enough for a p90 with ten samples beyond it.
const STEPS: usize = 100;

/// Samples of `f`'s wall time in milliseconds, after `warmup` untimed calls.
fn time_ms(warmup: usize, samples: usize, mut f: impl FnMut()) -> Vec<f64> {
    for _ in 0..warmup {
        f();
    }
    let mut out = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t = Instant::now();
        f();
        out.push(t.elapsed().as_secs_f64() * 1e3);
    }
    out
}

/// Fused and legacy decoder rounds (forward + backward) on the same Z.
fn decoder_round(z: &Mat, data: &TrainData, legacy: bool) -> u64 {
    let mut g = Graph::new();
    let zv = g.leaf(z.clone());
    let loss = if legacy {
        let s = g.gram(zv);
        g.bce_logits_sparse(s, &data.adjacency, data.pos_weight, data.norm)
    } else {
        g.gram_bce_logits_sparse(zv, &data.adjacency, data.pos_weight, data.norm)
    }
    .expect("decoder shapes match");
    g.backward(loss).expect("decoder backward");
    std::hint::black_box(g.grad(zv).expect("leaf gradient"));
    g.scalar(loss).to_bits()
}

/// Computed (not counted) floating-point operations of one fused decoder
/// forward + backward at `n` nodes, latent width `d` and `tile` rows per
/// block (`rgae_linalg::decoder_tile()`): the panel dots with each diagonal
/// block's symmetric pairs shared, plus the dense gradient walk
/// `dZ_i = Σ_j (c_ij + c_ji) z_j`.
pub fn decoder_flop(n: usize, d: usize, tile: usize) -> f64 {
    let dots: usize = (0..n)
        .step_by(tile)
        .map(|t0| {
            let tw = tile.min(n - t0);
            tw * (n - tw) + tw * (tw + 1) / 2
        })
        .sum();
    (2 * d * dots + 2 * d * n * n) as f64
}

/// The traced run's outcome.
pub struct TracedRun {
    /// Training runs, as in an untraced repeat.
    pub ops: Vec<Op>,
    /// Wall seconds of the traced training calls.
    pub wall_s: f64,
    /// Per-layer metrics, by name.
    pub layers: Vec<(&'static str, f64)>,
    /// Program outputs found wrong by the traced run's own checks.
    pub wrong: Vec<String>,
}

/// Run the workload once with tracing on, then time the layers' public
/// functions on its pretrained model.
pub fn traced_run(w: Workload, seed: u64, tmp: &Path, setup: &[workload::SetupTimes]) -> TracedRun {
    let _ = rgae_par::take_kernel_stats();
    let (prepared, _) = workload::prepare(w, seed);
    let truth = prepared.graph.labels().to_vec();
    let graph = prepared.graph.clone();
    let data = prepared.data.clone();
    let rec = Traced::default();
    let run = workload::train(w, prepared, seed, &tmp.join("traced"), &rec, true);
    let mut wrong = Vec::new();
    let mut layers: Vec<(&'static str, f64)> = Vec::new();
    let mut put = |name: &'static str, value: f64| layers.push((name, value));

    put(
        "datasets.build_s",
        median(&setup.iter().map(|s| s.build_s).collect::<Vec<_>>()),
    );
    put(
        "models.train_data_s",
        median(&setup.iter().map(|s| s.train_data_s).collect::<Vec<_>>()),
    );

    // Kernel layers (linalg, par).
    let (pre, clu) = rec.kernels();
    let (pre_calls, pre_dec) = kernel_sum([&pre], |k| k == DECODER);
    let (clu_calls, clu_dec) = kernel_sum([&clu], |k| k == DECODER);
    let kernel_s = kernel_sum([&pre, &clu], |_| true).1;
    let threads = rgae_par::threads();
    let n = data.num_nodes;
    let model = run
        .pretrained
        .as_ref()
        .expect("GMM-VGAE pretrained model kept");
    let z = model.embed(&data);
    let gflop =
        (pre_calls + clu_calls) * decoder_flop(n, z.cols(), rgae_linalg::decoder_tile()) / 1e9;
    put("linalg.decoder_s.pretrain", pre_dec);
    put("linalg.decoder_s.clustering", clu_dec);
    put("linalg.decoder_calls", pre_calls + clu_calls);
    put("linalg.decoder_gflop", gflop);
    put("linalg.decoder_gflops", gflop / (pre_dec + clu_dec));
    put(
        "linalg.dense_s",
        kernel_sum([&pre, &clu], |k| k.starts_with("mat_")).1,
    );
    put(
        "linalg.spmm_s",
        kernel_sum([&pre, &clu], |k| k.starts_with("csr_")).1,
    );
    put("par.threads", threads as f64);
    put("par.kernel_s", kernel_s);
    put("par.outside_kernel_s", run.wall_s - kernel_s);

    // Decoder: fused vs the legacy chain, and fused at 1 vs all threads,
    // alternating rounds so drift hits both sides alike.
    let (mut fused, mut legacy, mut serial) = (Vec::new(), Vec::new(), Vec::new());
    for round in 0..12 {
        let timed = |legacy_path: bool| {
            let t = Instant::now();
            let bits = decoder_round(&z, &data, legacy_path);
            (bits, t.elapsed().as_secs_f64())
        };
        let (fb, f) = timed(false);
        let (lb, l) = timed(true);
        let (sb, s) = rgae_par::with_threads(1, || timed(false));
        if fb != lb || fb != sb {
            wrong.push(format!(
                "decoder loss bits differ: fused {fb:x}, legacy {lb:x}, 1-thread {sb:x}"
            ));
        }
        if round >= 2 {
            fused.push(f);
            legacy.push(l);
            serial.push(s);
        }
    }
    put(
        "linalg.decoder_legacy_ratio",
        median(&legacy) / median(&fused),
    );
    put("par.decoder_speedup", median(&serial) / median(&fused));

    // models: steady-state clustering steps on the pretrained model.
    let mut rng = Rng64::seed_from_u64(seed);
    let opts = w.harness(&tmp.join("micro"));
    let cfg = w.config(ModelKind::GmmVgae, &opts);
    let mut stepper = model.clone_box();
    let spec = StepSpec {
        recon_target: Some(Rc::clone(&data.adjacency)),
        gamma: cfg.gamma,
        cluster: stepper
            .cluster_target(&data)
            .expect("cluster target")
            .map(|target| ClusterStep {
                target,
                omega: None,
            }),
    };
    let mut step = || {
        std::hint::black_box(
            stepper
                .train_step(&data, &spec, &mut rng)
                .expect("train step"),
        );
    };
    time_ms(5, 0, &mut step);
    // The sample buffer is allocated before counting starts, so the count
    // holds the steps' own allocations only.
    let mut steps = Vec::with_capacity(STEPS);
    let ((), allocs, bytes) = alloc::count(|| {
        for _ in 0..STEPS {
            let t = Instant::now();
            step();
            steps.push(t.elapsed().as_secs_f64() * 1e3);
        }
    });
    let steps_serial = rgae_par::with_threads(1, || time_ms(2, 30, &mut step));
    put("models.train_step_ms.p50", median(&steps));
    put("models.train_step_ms.p90", nearest_rank(&steps, 90.0));
    put("models.step_allocs", allocs as f64 / STEPS as f64);
    put("models.step_alloc_bytes", bytes as f64 / STEPS as f64);
    put("par.step_speedup", median(&steps_serial) / median(&steps));
    let recon = time_ms(2, 30, || {
        std::hint::black_box(
            model
                .recon_grad(&data, &data.adjacency)
                .expect("recon grad"),
        );
    });
    put("models.recon_grad_ms.p50", median(&recon));

    // cluster.
    let k = graph.num_classes();
    let eval = time_ms(2, 20, || {
        std::hint::black_box(evaluate(model.as_ref(), &data, &truth, &mut rng).expect("evaluate"));
    });
    put("cluster.eval_ms.p50", median(&eval));
    let km = time_ms(1, 5, || {
        std::hint::black_box(kmeans(&z, k, 100, &mut rng).expect("kmeans"));
    });
    put("cluster.kmeans_s", median(&km) / 1e3);
    let gmm = time_ms(1, 3, || {
        std::hint::black_box(GaussianMixture::fit(&z, k, 100, &mut rng).expect("gmm"));
    });
    put("cluster.gmm_s", median(&gmm) / 1e3);

    // core: the operators, the trainer's spans, the diagnostics.
    let p_xi = model
        .xi_assignments(&data)
        .expect("xi assignments")
        .expect("GMM head");
    let p_soft = model
        .soft_assignments(&data)
        .expect("soft assignments")
        .expect("GMM head");
    let omega = xi(&p_xi, &cfg.xi).expect("xi");
    let xi_ms = time_ms(2, 50, || {
        std::hint::black_box(xi(&p_xi, &cfg.xi).expect("xi"));
    });
    let ups_ms = time_ms(2, 20, || {
        std::hint::black_box(
            upsilon(&data.adjacency, &p_soft, &z, &omega.indices, &cfg.upsilon).expect("upsilon"),
        );
    });
    put("core.xi_ms.p50", median(&xi_ms));
    put("core.upsilon_ms.p50", median(&ups_ms));
    let xi_ups: f64 = rec
        .spans("clustering/xi")
        .iter()
        .chain(&rec.spans("clustering/upsilon"))
        .sum();
    put("core.xi_upsilon_s", xi_ups);
    for (name, model_kind) in [
        ("core.r_overhead.dgae", ModelKind::Dgae),
        ("core.r_overhead.gmm_vgae", ModelKind::GmmVgae),
    ] {
        let per_epoch = |variant: &str| {
            run.ops
                .iter()
                .find(|o| o.name == format!("{}/{variant}", model_kind.name()))
                .map(|o| o.clustering_s / o.clustering_epochs.max(1) as f64)
        };
        put(
            name,
            match (per_epoch("r"), per_epoch("plain")) {
                (Some(r), Some(p)) => r / p,
                _ => 0.0,
            },
        );
    }
    let step_spans: Vec<f64> = rec
        .spans("clustering/step")
        .iter()
        .map(|s| s * 1e3)
        .collect();
    put("core.step_ms.p50", median(&step_spans));
    put("core.step_ms.p90", nearest_rank(&step_spans, 90.0));
    put("core.eval_s", rec.spans("eval").iter().sum());
    let target = model
        .cluster_target(&data)
        .expect("cluster target")
        .expect("GMM head");
    let diag = time_ms(1, 5, || {
        for restrict in [Some(omega.indices.as_slice()), None] {
            std::hint::black_box(
                lambda_fr(model.as_ref(), &data, &target, restrict, &truth, &NOOP)
                    .expect("lambda_fr"),
            );
        }
        for _ in 0..2 {
            std::hint::black_box(
                lambda_fd(model.as_ref(), &data, &data.adjacency, &data.adjacency)
                    .expect("lambda_fd"),
            );
        }
    });
    put("core.diagnostics_s", median(&diag) / 1e3);
    put(
        "core.epochs",
        run.ops.iter().map(|o| o.clustering_epochs).sum::<usize>() as f64,
    );
    put(
        "core.converged_at",
        run.ops
            .iter()
            .find(|o| o.name.ends_with("/r"))
            .and_then(|o| o.converged_at)
            .map_or(0.0, |e| (e + 1) as f64),
    );

    // ckpt: re-save the last checkpoint the run wrote, or (workloads that
    // do not checkpoint) the pretrained model's state, atomically.
    let saves = rec.saves.borrow().clone();
    put("ckpt.saves", saves.len() as f64);
    put(
        "ckpt.bytes",
        saves.iter().map(|(_, b)| b).sum::<u64>() as f64,
    );
    let payload = match saves.last() {
        Some((path, _)) => rgae_ckpt::read_checkpoint(path).expect("re-read a saved checkpoint"),
        None => {
            let mut bytes = ByteWriter::new();
            model.export_params().encode(&mut bytes);
            bytes.into_bytes()
        }
    };
    let resave = tmp.join("resave.rgck");
    let save_ms = time_ms(1, 20, || {
        rgae_ckpt::write_checkpoint_atomic(&resave, &payload).expect("atomic checkpoint write");
    });
    put("ckpt.save_ms.p50", median(&save_ms));

    put("guard.trips", rec.watch.trips() as f64);
    put("obs.events", rec.sink.events().len() as f64);

    TracedRun {
        ops: run.ops,
        wall_s: run.wall_s,
        layers,
        wrong,
    }
}
