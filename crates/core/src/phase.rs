//! The phase driver both trainers run their epochs through.
//!
//! A [`PhaseLoop`] owns everything a training phase does around its own
//! epoch work: the epoch range and the re-entry after a guard rollback,
//! fault injection around the optimisation step, the guard checks and
//! their recovery (rollback with LR backoff, or a degraded finish), the
//! phase-entry rollback seed, and the capture → save → mark-healthy →
//! note-healthy sequence. A phase supplies only a [`PhaseBody`]: its work
//! before the step, the step's [`StepSpec`], the end-of-epoch record and
//! stop decision, and the capture/restore of its own [`TrainerState`]
//! fields. One [`restore`] serves resume, guard Retry and guard Degrade.
//!
//! Per-epoch order, the same for pretraining and the clustering phase:
//!
//! 1. [`PhaseBody::before_step`] (clustering: the requested snapshot, Ω
//!    every M₁, A^self_clus every M₂);
//! 2. the faults scheduled for this epoch fire (clustering only);
//! 3. one optimisation step on [`PhaseBody::spec`] — inside a `step` span
//!    in the clustering phase — with gradient poisoning armed when due;
//! 4. loss and checkpoint faults apply;
//! 5. guard checks: the loss, the skipped-gradient count and, on snapshot
//!    or save epochs, a parameter scan. A trip restores the rollback state
//!    and re-enters at its epoch, or ends the phase degraded;
//! 6. [`PhaseBody::end_epoch`]: the record, its run-log events, the
//!    advisory checks and the stop decision;
//! 7. on snapshot or save epochs: capture the state, save it, tag it
//!    healthy on disk and keep it as the in-memory rollback target.
//!
//! Nothing here consumes the RNG stream or reorders the trainer's
//! computation, so a fault-free guarded run is bit-identical to an
//! unguarded one.

use std::time::Instant;

use rgae_autodiff::{arm_grad_poison, disarm_grad_poison};
use rgae_guard::{
    emit_finding, FaultKind, FaultPlan, Finding, GuardConfig, HealthMonitor, RecoveryPolicy,
    RetryPlan, Severity,
};
use rgae_linalg::{Mat, Rng64};
use rgae_models::{GaeModel, ModelState, StepSpec, TrainData};
use rgae_obs::{span, Event, Recorder};

use crate::checkpoint::{Phase, Saver, TrainerState};
use crate::trainer::RConfig;
use crate::Result;

/// The fixed context of one trainer entry: its configuration, its run log
/// and the checkpoint variant tag of its states.
#[derive(Clone, Copy)]
pub(crate) struct Ctx<'a> {
    pub cfg: &'a RConfig,
    pub rec: &'a dyn Recorder,
    pub variant: u8,
}

/// A phase's own per-epoch work; the [`PhaseLoop`] does the rest.
pub(crate) trait PhaseBody {
    /// Work before the optimisation step.
    fn before_step(
        &mut self,
        _model: &dyn GaeModel,
        _rng: &mut Rng64,
        _epoch: usize,
    ) -> Result<()> {
        Ok(())
    }

    /// The optimisation step's objective for `epoch`.
    fn spec(&mut self, model: &dyn GaeModel, epoch: usize) -> Result<StepSpec>;

    /// Bookkeeping after a healthy step; `true` ends the phase here.
    fn end_epoch(
        &mut self,
        _model: &dyn GaeModel,
        _rng: &mut Rng64,
        _epoch: usize,
        _loss: f64,
        _guard: Option<&mut GuardDriver<'_>>,
    ) -> Result<bool> {
        Ok(false)
    }

    /// Copy the body's fields into a state being saved.
    fn capture(&self, _st: &mut TrainerState) {}

    /// Reset the body's fields from a saved state.
    fn restore(&mut self, _st: &TrainerState) {}
}

/// Restore `st` into the model, the RNG stream and the phase body — the one
/// restore behind resume, guard Retry and guard Degrade.
pub(crate) fn restore(
    model: &mut dyn GaeModel,
    rng: &mut Rng64,
    body: &mut dyn PhaseBody,
    st: &TrainerState,
) -> Result<()> {
    model.import_params(&st.model)?;
    *rng = st.rng();
    body.restore(st);
    Ok(())
}

/// One phase's epochs, from its entry epoch to its end or a stop.
pub(crate) struct PhaseLoop<'r> {
    variant: u8,
    clustering: bool,
    start: usize,
    end: usize,
    elapsed_base: f64,
    started: Instant,
    rec: &'r dyn Recorder,
    guard: Option<GuardDriver<'r>>,
}

impl<'r> PhaseLoop<'r> {
    /// A loop entering at `at` (a pretrain or clustering epoch) with
    /// `elapsed_base` seconds already spent in the phase. Build it after any
    /// resume restore: the guard takes its skipped-gradient baseline from
    /// the model as it stands.
    pub fn new(ctx: Ctx<'r>, at: Phase, elapsed_base: f64, model: &dyn GaeModel) -> Self {
        let clustering = matches!(at, Phase::Clustering { .. });
        PhaseLoop {
            variant: ctx.variant,
            clustering,
            start: at.next_epoch().unwrap_or(0),
            end: if clustering {
                ctx.cfg.max_epochs
            } else {
                ctx.cfg.pretrain_epochs
            },
            elapsed_base,
            started: Instant::now(),
            rec: ctx.rec,
            guard: ctx
                .cfg
                .guard
                .as_ref()
                .map(|cfg| GuardDriver::new(cfg, ctx.rec, model, clustering)),
        }
    }

    /// Run the epochs. Returns whether the guard ran out of retries and
    /// ended the phase on the last-good state (restored into the model,
    /// the RNG and the body).
    pub fn run(
        &mut self,
        model: &mut dyn GaeModel,
        data: &TrainData,
        rng: &mut Rng64,
        saver: &mut Option<Saver<'_>>,
        body: &mut dyn PhaseBody,
    ) -> Result<bool> {
        // Phase-entry seed: a trip before the first snapshot-cadence epoch
        // rolls back to the entry state instead of degrading.
        if self.guard.is_some() {
            let st = self.capture(self.start, model.export_params(), rng, body);
            self.commit(st, false, saver)?;
        }
        let mut epoch = self.start;
        while epoch < self.end {
            body.before_step(model, rng, epoch)?;
            let faults = self
                .guard
                .as_mut()
                .map_or_else(Vec::new, |g| g.faults_due(epoch));
            let step_span = self.clustering.then(|| span(self.rec, "step"));
            let spec = body.spec(model, epoch)?;
            let poison = faults.contains(&FaultKind::NanGrad);
            if poison {
                arm_grad_poison();
            }
            let step = model.train_step(data, &spec, rng);
            if poison {
                disarm_grad_poison();
            }
            let mut loss = step?;
            drop(step_span);
            for kind in &faults {
                match kind {
                    FaultKind::InfLoss => loss = f64::INFINITY,
                    FaultKind::NanLoss => loss = f64::NAN,
                    FaultKind::CorruptCkpt => {
                        if let Some(s) = saver.as_ref() {
                            s.corrupt_latest(epoch as u64)?;
                        }
                    }
                    FaultKind::NanGrad => {}
                }
            }

            // Trip checks run before any bookkeeping: a tripped epoch
            // contributes no record, no stop decision and no save.
            let next = epoch + 1;
            let save_due = next < self.end && saver.as_ref().is_some_and(|s| s.due(next));
            let mut exported = None;
            let mut snap = false;
            if let Some(g) = self.guard.as_mut() {
                snap = g.snapshot_due(epoch, save_due);
                let (state, tripped) = g.check_core(epoch, loss, model, snap);
                exported = state;
                if tripped {
                    match g.recover(saver.as_ref(), self.variant, epoch) {
                        Recovery::Retry(st, plan) => {
                            restore(model, rng, body, &st)?;
                            model.scale_lr(plan.lr_scale);
                            rng.reseed_with(plan.reseed_salt);
                            epoch = st.phase.next_epoch().unwrap_or(0);
                            continue;
                        }
                        Recovery::Degrade(st) => {
                            if let Some(st) = st {
                                restore(model, rng, body, &st)?;
                            }
                            return Ok(true);
                        }
                    }
                }
            }

            let stop = body.end_epoch(model, rng, epoch, loss, self.guard.as_mut())?;
            let save = save_due && !stop;
            if snap || save {
                let model_state = exported.unwrap_or_else(|| model.export_params());
                let st = self.capture(next, model_state, rng, body);
                self.commit(st, save, saver)?;
            }
            if stop {
                break;
            }
            epoch = next;
        }
        Ok(false)
    }

    /// The state at the boundary before `next_epoch`.
    fn capture(
        &self,
        next_epoch: usize,
        model: ModelState,
        rng: &Rng64,
        body: &dyn PhaseBody,
    ) -> TrainerState {
        let phase = if self.clustering {
            Phase::Clustering { next_epoch }
        } else {
            Phase::Pretrain { next_epoch }
        };
        let mut st = TrainerState::new(self.variant, phase, model, rng);
        body.capture(&mut st);
        st.elapsed_seconds = self.elapsed_base + self.started.elapsed().as_secs_f64();
        st
    }

    /// Save `st` when `save` (tagged healthy on disk under the guard: it
    /// passed the checks first), then keep it as the in-memory rollback
    /// target.
    fn commit(
        &mut self,
        st: TrainerState,
        save: bool,
        saver: &mut Option<Saver<'_>>,
    ) -> Result<()> {
        if let Some(s) = saver.as_mut().filter(|_| save) {
            s.save(&st)?;
            if self.guard.is_some() {
                s.mark_healthy(&st)?;
            }
        }
        if let Some(g) = self.guard.as_mut() {
            g.note_healthy(st);
        }
        Ok(())
    }
}

/// Outcome of a guard recovery decision.
enum Recovery {
    /// Roll back to this state, apply the retry plan, and re-enter the loop.
    Retry(Box<TrainerState>, RetryPlan),
    /// Retries exhausted (or nothing to restore): finish degraded, on the
    /// carried state's parameters when one is available.
    Degrade(Option<Box<TrainerState>>),
}

/// Per-phase driver for the guard layer: owns the health monitor, the
/// retry/backoff policy, the fault-injection schedule, and an in-memory
/// last-good snapshot (the rollback source when no checkpoint directory is
/// configured). Constructed only when [`RConfig::guard`] is set; no method
/// ever touches the RNG stream or reorders trainer computation, which is
/// what keeps a fault-free guarded run bit-identical to an unguarded one.
pub(crate) struct GuardDriver<'r> {
    cfg: GuardConfig,
    monitor: HealthMonitor,
    policy: RecoveryPolicy,
    faults: FaultPlan,
    rec: &'r dyn Recorder,
    clustering: bool,
    /// `nonfinite_grad_steps` baseline; the per-epoch delta is what trips.
    grad_base: u64,
    last_good: Option<TrainerState>,
}

impl<'r> GuardDriver<'r> {
    /// Fault injection is only armed for the clustering phase (`RGAE_FAULT`
    /// epochs are clustering epochs); pretraining still runs the checks.
    fn new(
        cfg: &GuardConfig,
        rec: &'r dyn Recorder,
        model: &dyn GaeModel,
        clustering: bool,
    ) -> Self {
        GuardDriver {
            monitor: HealthMonitor::new(cfg.clone()),
            policy: RecoveryPolicy::new(cfg.max_retries, cfg.lr_backoff),
            faults: FaultPlan::new(cfg.faults.iter().filter(|_| clustering).cloned().collect()),
            rec,
            clustering,
            grad_base: model.nonfinite_grad_steps(),
            last_good: None,
            cfg: cfg.clone(),
        }
    }

    /// The phase name on guard and recovery events.
    fn phase(&self) -> &'static str {
        if self.clustering {
            "clustering"
        } else {
            "pretrain"
        }
    }

    fn emit(&self, epoch: usize, f: &Finding) {
        emit_finding(self.rec, self.phase(), Some(epoch), f);
    }

    /// Fire the fault injections scheduled for `epoch`, logging one event
    /// per fault. Each spec fires at most once — the fired flags live in
    /// this driver, outside the epoch loop, so a rollback past the fault
    /// epoch does not re-inject it.
    fn faults_due(&mut self, epoch: usize) -> Vec<FaultKind> {
        let due = self.faults.take_due(epoch);
        for kind in &due {
            self.emit(
                epoch,
                &Finding {
                    kind: "fault_injected",
                    severity: Severity::Info,
                    value: None,
                    threshold: None,
                    detail: format!("injecting {} at epoch {epoch}", kind.as_str()),
                },
            );
        }
        due
    }

    /// The per-epoch trip checks: loss health and the skipped-gradient
    /// delta (both O(1)), plus — on snapshot epochs (`scan`) — the O(model)
    /// parameter scan. Returns the exported parameter state when the scan
    /// ran (the caller reuses it for checkpointing) and whether any check
    /// tripped. Every state that later becomes a rollback target passes
    /// through the scan first, so a healthy snapshot is never poisoned.
    fn check_core(
        &mut self,
        epoch: usize,
        loss: f64,
        model: &dyn GaeModel,
        scan: bool,
    ) -> (Option<ModelState>, bool) {
        let (rec, phase) = (self.rec, self.phase());
        let mut tripped = false;
        let mut note = |f: Option<Finding>| {
            if let Some(f) = f {
                tripped |= f.is_trip();
                emit_finding(rec, phase, Some(epoch), &f);
            }
        };
        note(self.monitor.observe_loss(loss));
        let now = model.nonfinite_grad_steps();
        let delta = now.saturating_sub(self.grad_base);
        self.grad_base = now;
        note(self.monitor.observe_grad_skips(delta));
        if !scan {
            return (None, tripped);
        }
        let exported = model.export_params();
        let all_finite = !self.cfg.check_params || exported.all_finite();
        note(self.monitor.observe_param_scan(all_finite));
        (Some(exported), tripped)
    }

    /// Whether this epoch does the O(model) guard work — the parameter scan
    /// and the rollback-snapshot refresh: the configured cadence, or a
    /// pending checkpoint save.
    fn snapshot_due(&self, epoch: usize, due_save: bool) -> bool {
        due_save || (epoch + 1).is_multiple_of(self.cfg.snapshot_every.max(1))
    }

    /// The advisory (warn-level) checks: soft-assignment cluster collapse
    /// and a degenerate |Ω| (`(|Ω|, N)`, R-𝒟 only). Never trip — they only
    /// annotate the run log.
    pub fn warn_checks(&mut self, epoch: usize, p: &Mat, omega: Option<(usize, usize)>) {
        if let Some(f) = self.monitor.observe_assignments(p) {
            self.emit(epoch, &f);
        }
        if let Some((len, n)) = omega {
            if let Some(f) = self.monitor.observe_omega(len, n) {
                self.emit(epoch, &f);
            }
        }
    }

    /// Remember a healthy epoch's state as the in-memory rollback fallback
    /// (used when no checkpoint store is configured, or when every on-disk
    /// generation turns out unreadable).
    fn note_healthy(&mut self, st: TrainerState) {
        self.last_good = Some(st);
    }

    fn emit_recovery(&self, action: &str, epoch: usize, attempt: usize, detail: String) {
        if self.rec.enabled() {
            self.rec.record(&Event::Recovery {
                action: action.into(),
                phase: self.phase().into(),
                epoch: Some(epoch),
                attempt,
                lr_scale: self.policy.lr_scale(),
                detail,
            });
        }
    }

    /// Decide what to do about a tripped epoch: pick a rollback source (the
    /// newest readable on-disk generation of this phase, else the in-memory
    /// last-good), consume a retry from the policy, and log the decision.
    /// The caller restores the returned state and re-enters its loop
    /// (`Retry`) or finishes on the last-good parameters (`Degrade`).
    fn recover(&mut self, saver: Option<&Saver<'_>>, variant: u8, epoch: usize) -> Recovery {
        let from_disk = saver
            .and_then(|s| s.load_for_rollback(variant))
            .filter(|st| st.phase.name() == self.phase());
        let source = if from_disk.is_some() {
            "checkpoint"
        } else {
            "memory"
        };
        let Some(state) = from_disk.or_else(|| self.last_good.clone()) else {
            self.emit_recovery(
                "degraded",
                epoch,
                self.policy.attempts(),
                "no healthy state to roll back to; finishing on current parameters".to_owned(),
            );
            return Recovery::Degrade(None);
        };
        match self.policy.next_retry() {
            Some(plan) => {
                let resume_at = state.phase.next_epoch().unwrap_or(0);
                self.emit_recovery(
                    "rollback",
                    epoch,
                    plan.attempt,
                    format!(
                        "rolled back to {source} state at {} epoch {resume_at}",
                        state.phase.name()
                    ),
                );
                self.emit_recovery(
                    "retry",
                    epoch,
                    plan.attempt,
                    format!(
                        "retrying from epoch {resume_at}: lr scaled to {:.3e} of base, RNG reseeded",
                        self.policy.lr_scale()
                    ),
                );
                self.monitor.reset();
                Recovery::Retry(Box::new(state), plan)
            }
            None => {
                self.emit_recovery(
                    "degraded",
                    epoch,
                    self.policy.attempts(),
                    format!("retries exhausted; finishing on last-good {source} state"),
                );
                Recovery::Degrade(Some(Box::new(state)))
            }
        }
    }
}
