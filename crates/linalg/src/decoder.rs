//! Tiled, fused Gram + BCE decoder kernels.
//!
//! Every GAE variant in this workspace reconstructs the adjacency through
//! `σ(Z·Zᵀ)`, and the legacy pipeline materialises the full N×N logits
//! three times per step: once for the Gram forward, once for the BCE
//! forward scan, and once more for the backward coefficient matrix (plus a
//! transpose, an add, and an N×N·d matmul for the Gram backward). The
//! kernels here stream the same computation through row *tiles* of at most
//! B rows — one B×N panel is the only N-proportional scratch — so peak
//! decoder memory drops from O(N²) to O(B·N) while the arithmetic stays
//! bit-for-bit identical to the legacy chain.
//!
//! # Determinism contract
//!
//! The loss reduction reuses the [`rgae_par::REDUCE_CHUNK`]-row partial
//! structure of `par_sum_by`: each 256-row chunk accumulates serially (per
//! row: every column's softplus in ascending order, then the sparse-target
//! corrections in CSR order — exactly the legacy `bce_sparse_fwd` order)
//! and the partials are folded in chunk order. The tile width is forced to
//! a multiple of `REDUCE_CHUNK`, so the bits are invariant to the tile
//! size *and* the thread count.
//!
//! The gradient rows replicate the legacy `(C + Cᵀ)·Z` element order, in
//! two passes per row `i`. A *coefficient* pass scans the columns
//! ascending (adding each softplus to the loss accumulator as it goes) and
//! writes the symmetric coefficient `c_ij + c_ji` of every column into a
//! per-task N-length buffer: `gs·σ + gs·σ` for non-edges, then the full
//! expression for the edge columns of row `i` and of the transposed target
//! (the same operand order as `Mat::add` in the legacy Gram backward;
//! `c_ji` comes from a `target.transpose()` built once per call, O(nnz)).
//! An *accumulation* pass then forms `dZ_i = Σ_j coef_j z_j` with `j`
//! ascending and exact zeros skipped like `Mat::matmul`'s zero fast path,
//! holding 8 latent columns at a time in registers. Every output element
//! sees the same additions in the same order as the legacy matmul, so dZ
//! is bit-identical to the legacy chain's.
//!
//! # Per-logit transcendentals and the loss bound
//!
//! Each logit costs one `exp`: `e = e^{−|s|}` feeds both `σ` (`1/(1+e)`
//! for `s ≥ 0`, `e/(1+e)` below — the formulas of `crate::sigmoid`, so σ
//! and with it every gradient is unchanged) and `softplus = max(s, 0) +
//! ln(1 + e)`, with `ln(1 + e)` from the crate's inlinable fdlibm kernel
//! (`log1p_unit`, within 1 ulp of `f64::ln_1p`). The legacy chain calls the
//! same `crate::softplus`, so the fused loss still equals it bit for bit;
//! against the direct `s.exp().ln_1p()` each softplus term is within 1 ulp
//! for `s < 0` and 2 ulp for `s ≥ 0` (the tests pin both bounds).
//!
//! # Symmetry sharing
//!
//! `S = Z·Zᵀ` is symmetric, and `s_ij` bit-equals `s_ji` (each product
//! commutes individually and the ascending-`k` accumulation order is the
//! same), so `softplus(s)` and `σ(s)` are also bitwise shared across a
//! symmetric pair. Within each tile's diagonal block the fused kernel
//! therefore runs two phases: a *fill* phase that evaluates every
//! unordered pair once (dot + transcendental pair, cached in a `B×B`
//! side buffer) and a *sweep* phase that reads the panel and the cache
//! immutably while accumulating the loss and gradient in the legacy
//! element order. Reusing a bit-identical value cannot change the sums,
//! so the output is still bit-for-bit the legacy chain's.

use std::sync::atomic::{AtomicUsize, Ordering};

use rgae_par::REDUCE_CHUNK;

use crate::{log1p_unit, sigmoid, softplus, Csr, Error, Mat, Result};

/// Baseline tile rows when neither the programmatic override nor the
/// `RGAE_DECODER_TILE` environment variable is set. The effective default
/// grows with the worker count (see [`decoder_tile`]) so every pool worker
/// owns at least one reduce chunk per tile.
pub const DEFAULT_DECODER_TILE: usize = 1024;

/// Programmatic override for the tile rows; 0 means "unset".
static TILE_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Override the decoder tile rows (`None` restores the environment /
/// default resolution). Values are rounded up to a multiple of
/// [`rgae_par::REDUCE_CHUNK`]; the setting trades memory against
/// parallelism only — results are bit-identical at any tile size.
pub fn set_decoder_tile(rows: Option<usize>) {
    TILE_OVERRIDE.store(rows.unwrap_or(0), Ordering::Relaxed);
}

/// The configured decoder tile rows: the [`set_decoder_tile`] override if
/// set, else `RGAE_DECODER_TILE`, else `max(DEFAULT_DECODER_TILE,
/// REDUCE_CHUNK · threads)` — always rounded up to a `REDUCE_CHUNK`
/// multiple so tile boundaries coincide with reduction-chunk boundaries.
pub fn decoder_tile() -> usize {
    let configured = match TILE_OVERRIDE.load(Ordering::Relaxed) {
        0 => std::env::var("RGAE_DECODER_TILE")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&v| v > 0)
            .unwrap_or_else(|| DEFAULT_DECODER_TILE.max(REDUCE_CHUNK * rgae_par::threads())),
        v => v,
    };
    configured.div_ceil(REDUCE_CHUNK) * REDUCE_CHUNK
}

/// Tile rows actually used for an `n`-row decoder (the configured tile,
/// clamped to the row count rounded up to a chunk boundary).
fn effective_tile(n: usize) -> usize {
    decoder_tile().min(n.div_ceil(REDUCE_CHUNK).max(1) * REDUCE_CHUNK)
}

/// Peak scratch bytes the fused decoder allocates for an `n`-row graph:
/// one `B×N` `f64` panel plus the `2·B²` diagonal-block transcendental
/// cache (`B ≤ N`, so the total stays `O(B·N)`); the gradient pass adds
/// one `N`-length coefficient row per running task on top. The legacy path
/// peaks at several dense `N×N` matrices. Used by the benchmark reports.
pub fn fused_panel_bytes(n: usize) -> usize {
    let b = effective_tile(n);
    (b * n + 2 * b * b) * std::mem::size_of::<f64>()
}

/// Result of [`gram_bce_fused`].
pub struct FusedGramBce {
    /// The scalar loss `norm · Σ/(N²)` — bit-identical to the legacy
    /// `Mat::gram` + `bce_logits_sparse` forward.
    pub loss: f64,
    /// `Σ_j (c_ij + c_ji) z_j` per row, with the coefficient scale folded
    /// in — bit-identical to the legacy backward at unit upstream
    /// gradient. `None` when `grad_scale` was `None`.
    pub dz: Option<Mat>,
}

/// One dot product in the exact element order of `Mat::gram`'s inner loop.
#[inline]
fn dot(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = 0.0;
    for (&x, &y) in a.iter().zip(b.iter()) {
        acc += x * y;
    }
    acc
}

/// Fill columns `j0..j1` of `stripe` (consecutive panel rows for z-rows
/// starting at `row0`) with `z_i · z_j`. Rows are processed in blocks of
/// four with independent accumulators: four parallel dependency chains
/// hide the FP-add latency of the strictly ordered dot, and each `z_j`
/// row load serves four dots. Every individual accumulator still adds in
/// `Mat::gram`'s exact element order, so the produced bits are identical
/// to the one-row [`dot`] loop.
fn fill_panel_cols(z: &Mat, row0: usize, stripe: &mut [f64], j0: usize, j1: usize) {
    if j0 >= j1 {
        return;
    }
    let n = z.rows();
    let nrows = stripe.len() / n;
    let mut r = 0;
    while r + 4 <= nrows {
        let (z0, z1, z2, z3) = (
            z.row(row0 + r),
            z.row(row0 + r + 1),
            z.row(row0 + r + 2),
            z.row(row0 + r + 3),
        );
        let block = &mut stripe[r * n..(r + 4) * n];
        let (s0, block) = block.split_at_mut(n);
        let (s1, block) = block.split_at_mut(n);
        let (s2, s3) = block.split_at_mut(n);
        for j in j0..j1 {
            let zj = z.row(j);
            let (mut a0, mut a1, mut a2, mut a3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
            for (k, &y) in zj.iter().enumerate() {
                a0 += z0[k] * y;
                a1 += z1[k] * y;
                a2 += z2[k] * y;
                a3 += z3[k] * y;
            }
            s0[j] = a0;
            s1[j] = a1;
            s2[j] = a2;
            s3[j] = a3;
        }
        r += 4;
    }
    for r in r..nrows {
        let zi = z.row(row0 + r);
        let row = &mut stripe[r * n..(r + 1) * n];
        for j in j0..j1 {
            row[j] = dot(zi, z.row(j));
        }
    }
}

/// Full-width panel fill (every column), used by the row-streaming helpers.
fn fill_panel(z: &Mat, row0: usize, stripe: &mut [f64]) {
    fill_panel_cols(z, row0, stripe, 0, z.rows());
}

/// Fill the upper part of row `i`'s tile-diagonal block: dots `z_i · z_j`
/// for `j ∈ [i, t1)` into `s_row`, and the matching transcendental pair —
/// `(softplus(s), σ(s))` when `grad`, else `(softplus(s), unused)` — into
/// the row's slice of the diagonal cache (pair slots indexed by `j − t0`).
/// Because `s_ij` bit-equals `s_ji` (each product commutes, the ascending
/// `k` order is shared), these cached values serve *both* rows of every
/// symmetric pair: the lower half is read from the mirrored slot instead
/// of being recomputed, halving the diagonal block's dot + exp work.
///
/// Columns are processed four at a time with independent accumulators
/// (same ILP rationale as [`fill_panel_cols`]); each accumulator keeps the
/// exact `Mat::gram` element order, so the bits are unchanged.
fn fill_diag_row(
    z: &Mat,
    i: usize,
    t0: usize,
    t1: usize,
    s_row: &mut [f64],
    drow: &mut [f64],
    grad: bool,
) {
    let zi = z.row(i);
    let mut store = |j: usize, s: f64| {
        s_row[j] = s;
        let c2 = (j - t0) * 2;
        if grad {
            let (sp, sig) = softplus_sigmoid(s);
            drow[c2] = sp;
            drow[c2 + 1] = sig;
        } else {
            drow[c2] = softplus(s);
        }
    };
    let mut j = i;
    while j + 4 <= t1 {
        let (b0, b1, b2, b3) = (z.row(j), z.row(j + 1), z.row(j + 2), z.row(j + 3));
        let (mut a0, mut a1, mut a2, mut a3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        for (k, &x) in zi.iter().enumerate() {
            a0 += x * b0[k];
            a1 += x * b1[k];
            a2 += x * b2[k];
            a3 += x * b3[k];
        }
        store(j, a0);
        store(j + 1, a1);
        store(j + 2, a2);
        store(j + 3, a3);
        j += 4;
    }
    while j < t1 {
        store(j, dot(zi, z.row(j)));
        j += 1;
    }
}

/// `softplus(x)` and `σ(x)` together from one `e = e^{−|x|}`: the same
/// expressions as [`softplus`] and [`sigmoid`] in `crate::lib` (σ is
/// `1/(1+e)` for `x ≥ 0` and `e/(1+e)` below), so each is bit-identical to
/// calling its reference separately, at the cost of one `exp`.
#[inline]
fn softplus_sigmoid(x: f64) -> (f64, f64) {
    let e = (-x.abs()).exp();
    let sp = if x > 30.0 {
        x
    } else if x < -30.0 {
        e
    } else {
        x.max(0.0) + log1p_unit(e)
    };
    let sig = if x < 0.0 {
        e / (1.0 + e)
    } else {
        1.0 / (1.0 + e)
    };
    (sp, sig)
}

/// Off-block part of the coefficient pass: each logit's softplus goes into
/// the loss accumulator in ascending column order, and its non-edge
/// coefficient `c_ij + c_ji = gs·σ + gs·σ` into `coef` (edge columns are
/// patched afterwards).
#[inline]
fn off_block_coefs(s: &[f64], coef: &mut [f64], gs: f64, acc: &mut f64) {
    for (&v, c) in s.iter().zip(coef.iter_mut()) {
        let (sp, sig) = softplus_sigmoid(v);
        *acc += sp;
        *c = gs * sig + gs * sig;
    }
}

/// Latent columns one register block of [`accumulate_row`] keeps in locals.
const LANES: usize = 8;

/// `dz_row += Σ_j coef_j · z_j` with `j` ascending and exact zeros skipped —
/// the legacy `Mat::matmul` element order. The latent dimension is walked
/// in blocks of [`LANES`] columns held in locals across the whole `j`
/// sweep (plus a narrower tail block), instead of a load-add-store of the
/// row per `j`; every output element still sees the same additions in the
/// same order, so the bits are those of the row-at-a-time walk.
fn accumulate_row(coef: &[f64], z: &Mat, dz_row: &mut [f64]) {
    let d = z.cols();
    let terms = || {
        coef.iter()
            .zip(z.as_slice().chunks_exact(d))
            .filter(|(&c, _)| c != 0.0)
    };
    let mut k0 = 0;
    while k0 + LANES <= d {
        let mut acc: [f64; LANES] = dz_row[k0..k0 + LANES].try_into().expect("LANES wide");
        for (&c, zj) in terms() {
            let zj: &[f64; LANES] = zj[k0..k0 + LANES].try_into().expect("LANES wide");
            for l in 0..LANES {
                acc[l] += c * zj[l];
            }
        }
        dz_row[k0..k0 + LANES].copy_from_slice(&acc);
        k0 += LANES;
    }
    let tail = &mut dz_row[k0..];
    if !tail.is_empty() {
        let w = tail.len();
        let mut acc = [0.0f64; LANES];
        acc[..w].copy_from_slice(tail);
        for (&c, zj) in terms() {
            for (a, &b) in acc.iter_mut().zip(&zj[k0..]) {
                *a += c * b;
            }
        }
        tail.copy_from_slice(&acc[..w]);
    }
}

/// Fused, tiled weighted-BCE-over-Gram forward (+ optional backward):
/// computes `norm · mean[pos_weight · t · softplus(−z_iᵀz_j) + (1 − t) ·
/// softplus(z_iᵀz_j)]` and, when `grad_scale = Some(gs)`, the latent
/// gradient rows `dZ_i = Σ_j (c_ij + c_ji) z_j` with
/// `c_ij = gs · (pos_weight · t_ij · (σ_ij − 1) + (1 − t_ij) · σ_ij)`,
/// without materialising the N×N logits. For the legacy-equivalent
/// gradient pass `gs = norm / N²` (the unit upstream gradient folded in).
///
/// Reported under the `fused_gram_bce_fwd_bwd` kernel stat.
pub fn gram_bce_fused(
    z: &Mat,
    target: &Csr,
    pos_weight: f64,
    norm: f64,
    grad_scale: Option<f64>,
) -> Result<FusedGramBce> {
    let n = z.rows();
    let d = z.cols();
    if target.rows() != n || target.cols() != n {
        return Err(Error::ShapeMismatch {
            op: "gram_bce_fused",
            lhs: (n, n),
            rhs: (target.rows(), target.cols()),
        });
    }
    let denom = (n * n) as f64;
    rgae_par::timed("fused_gram_bce_fwd_bwd", || {
        // Transposed target: row i holds the t_ji needed for c_ji.
        let tt = grad_scale.map(|_| target.transpose());
        let grad = grad_scale.is_some();
        let tile = effective_tile(n);
        let n_chunks = n.div_ceil(REDUCE_CHUNK);
        let mut partials = vec![0.0f64; n_chunks];
        let mut dz = grad_scale.map(|_| Mat::zeros(n, d));
        let mut panel = vec![0.0f64; tile * n];
        // (softplus, σ) pairs for the tile's diagonal block. `s_ij` bit-
        // equals `s_ji`, so each unordered pair {i, j} inside the block is
        // evaluated exactly once (by the row with the smaller index) and
        // both rows read the shared slot — the diagonal block costs half
        // its dots and half its exp calls.
        let mut diag = vec![0.0f64; tile * tile * 2];

        for tile_start in (0..n).step_by(tile) {
            let t0 = tile_start;
            let tw = tile.min(n - t0);
            let t1 = t0 + tw;
            let panel_slice = &mut panel[..tw * n];
            let diag_slice = &mut diag[..tw * tw * 2];

            // Phase 1 — fill. Each chunk owns its panel rows and the
            // matching diagonal-cache rows: off-block columns get plain
            // dots, in-block columns j ≥ i get the dot plus its cached
            // transcendental pair. Nothing is read across chunks.
            rgae_par::par_zip_chunks_mut(
                panel_slice,
                REDUCE_CHUNK * n,
                diag_slice,
                REDUCE_CHUNK * tw * 2,
                |ci, stripe, dstripe| {
                    let row0 = t0 + ci * REDUCE_CHUNK;
                    fill_panel_cols(z, row0, stripe, 0, t0);
                    fill_panel_cols(z, row0, stripe, t1, n);
                    for r in 0..stripe.len() / n {
                        let i = row0 + r;
                        let s_row = &mut stripe[r * n..(r + 1) * n];
                        let drow = &mut dstripe[r * tw * 2..(r + 1) * tw * 2];
                        fill_diag_row(z, i, t0, t1, s_row, drow, grad);
                    }
                },
            );

            // Phase 2 — sweep. The panel and the diagonal cache are now
            // read-only (shared borrows, no unsafe): each row reads its own
            // panel row for off-block logits, the mirrored slot
            // `(min, max)` of the cache for in-block transcendentals, and
            // the mirrored panel entry `panel[j − t0][i]` for in-block
            // logits below the diagonal (its own slots there were never
            // filled). Writes go only to the row's dz slice and the
            // chunk's loss partial.
            let panel_ref: &[f64] = panel_slice;
            let diag_ref: &[f64] = diag_slice;
            let pair = move |r2: usize, c2: usize| {
                let (a, b) = if c2 >= r2 { (r2, c2) } else { (c2, r2) };
                (a * tw + b) * 2
            };
            // `acc` threads through every row of the chunk (not a per-row
            // subtotal): the legacy chunk partial is one running sum, and
            // regrouping it per row would change the addition tree.
            // `grad` carries the row's dz slice and the task's N-length
            // coefficient buffer.
            let sweep_row = |i: usize, grad: Option<(&mut [f64], &mut [f64])>, acc: &mut f64| {
                let r2 = i - t0;
                let s_row = &panel_ref[r2 * n..(r2 + 1) * n];
                let (t_cols, t_vals) = (target.row_indices(i), target.row_values(i));
                if let (Some((dz_row, coef)), Some(gs), Some(tt)) = (grad, grad_scale, tt.as_ref())
                {
                    // Coefficient pass: ascending j, softplus into the loss
                    // accumulator and every column's non-edge coefficient
                    // into `coef` ...
                    off_block_coefs(&s_row[..t0], &mut coef[..t0], gs, acc);
                    for c2 in 0..tw {
                        let p = pair(r2, c2);
                        *acc += diag_ref[p];
                        coef[t0 + c2] = gs * diag_ref[p + 1] + gs * diag_ref[p + 1];
                    }
                    off_block_coefs(&s_row[t1..], &mut coef[t1..], gs, acc);
                    // ... then the edge columns of row i and of the
                    // transposed target (a merged ascending walk) get the
                    // full `c_ij + c_ji`, the operand order of `Mat::add` in
                    // the legacy Gram backward.
                    let (tt_cols, tt_vals) = (tt.row_indices(i), tt.row_values(i));
                    let coeff_at = |t: Option<f64>, sig: f64| match t {
                        Some(t) => gs * (pos_weight * t * (sig - 1.0) + (1.0 - t) * sig),
                        None => gs * sig,
                    };
                    let (mut pa, mut pb) = (0usize, 0usize);
                    while pa < t_cols.len() || pb < tt_cols.len() {
                        let ja = t_cols.get(pa).copied().unwrap_or(usize::MAX);
                        let jb = tt_cols.get(pb).copied().unwrap_or(usize::MAX);
                        let j = ja.min(jb);
                        let t_ij = (ja == j).then(|| {
                            pa += 1;
                            t_vals[pa - 1]
                        });
                        let t_ji = (jb == j).then(|| {
                            pb += 1;
                            tt_vals[pb - 1]
                        });
                        let sig = if j >= t0 && j < t1 {
                            diag_ref[pair(r2, j - t0) + 1]
                        } else {
                            sigmoid(s_row[j])
                        };
                        coef[j] = coeff_at(t_ij, sig) + coeff_at(t_ji, sig);
                    }
                    // Gradient pass: the legacy (C + Cᵀ)·Z row, register
                    // blocked over the latent dimension.
                    accumulate_row(coef, z, dz_row);
                } else {
                    for j in 0..t0 {
                        *acc += softplus(s_row[j]);
                    }
                    for c2 in 0..tw {
                        *acc += diag_ref[pair(r2, c2)];
                    }
                    for j in t1..n {
                        *acc += softplus(s_row[j]);
                    }
                }
                // Positive-entry corrections, in CSR order — the legacy
                // forward's second per-row loop. In-block logits below the
                // diagonal come from the mirrored panel entry.
                for (&j, &t) in t_cols.iter().zip(t_vals) {
                    let v = if j >= t0 && j < i {
                        panel_ref[(j - t0) * n + i]
                    } else {
                        s_row[j]
                    };
                    *acc += pos_weight * t * softplus(-v) - t * softplus(v);
                }
            };

            let chunk_lo = t0 / REDUCE_CHUNK;
            let chunk_hi = chunk_lo + tw.div_ceil(REDUCE_CHUNK);
            let parts_tile = &mut partials[chunk_lo..chunk_hi];
            let dz_tile = dz.as_mut().map(|m| &mut m.as_mut_slice()[t0 * d..t1 * d]);
            match dz_tile {
                // d == 0 leaves nothing to accumulate (and would give the
                // zip a zero-width chunk); fall through to the loss sweep.
                Some(dz_tile) if d > 0 => rgae_par::par_zip_chunks_mut(
                    dz_tile,
                    REDUCE_CHUNK * d,
                    parts_tile,
                    1,
                    |ci, dz_stripe, part| {
                        let row0 = t0 + ci * REDUCE_CHUNK;
                        let mut acc = 0.0;
                        let mut coef = vec![0.0f64; n];
                        for (r, dz_row) in dz_stripe.chunks_exact_mut(d).enumerate() {
                            sweep_row(row0 + r, Some((dz_row, &mut coef)), &mut acc);
                        }
                        part[0] = acc;
                    },
                ),
                _ => rgae_par::par_chunks_mut(parts_tile, 1, |ci, part| {
                    let row0 = t0 + ci * REDUCE_CHUNK;
                    let mut acc = 0.0;
                    for r in 0..REDUCE_CHUNK.min(t1 - row0) {
                        sweep_row(row0 + r, None, &mut acc);
                    }
                    part[0] = acc;
                }),
            }
        }

        // Fold the chunk partials in order — the par_sum_by tail.
        let total: f64 = partials.iter().sum();
        Ok(FusedGramBce {
            loss: norm * total / denom,
            dz,
        })
    })
}

/// Tiled fold over the rows of the virtual Gram matrix `S = Z·Zᵀ`: calls
/// `f(i, s_row)` for every row `i` with the materialised row `s_iⱼ =
/// z_iᵀz_j` and returns the ordered sum of the per-row results (256-row
/// chunk partials folded in chunk order — thread-count invariant). Peak
/// scratch is one B×N panel; no dense N×N allocation.
pub fn gram_row_fold(z: &Mat, f: impl Fn(usize, &[f64]) -> f64 + Sync) -> f64 {
    let n = z.rows();
    if n == 0 {
        return 0.0;
    }
    let tile = effective_tile(n);
    let n_chunks = n.div_ceil(REDUCE_CHUNK);
    let mut partials = vec![0.0f64; n_chunks];
    let mut panel = vec![0.0f64; tile * n];
    for tile_start in (0..n).step_by(tile) {
        let tile_rows = tile.min(n - tile_start);
        let part_view = rgae_par::RawMut::new(&mut partials);
        rgae_par::par_chunks_mut(
            &mut panel[..tile_rows * n],
            REDUCE_CHUNK * n,
            |ci, stripe| {
                let row0 = tile_start + ci * REDUCE_CHUNK;
                fill_panel(z, row0, stripe);
                let mut acc = 0.0;
                for (r, s_row) in stripe.chunks_mut(n).enumerate() {
                    let i = row0 + r;
                    acc += f(i, s_row);
                }
                // SAFETY: one task per reduce chunk.
                unsafe { part_view.write(row0 / REDUCE_CHUNK, acc) };
            },
        );
    }
    partials.iter().sum()
}

/// Tiled map over the rows of the virtual Gram matrix: calls
/// `f(i, s_row, out_row)` for every row with `out_row` the `i`-th row of a
/// fresh `n×out_cols` matrix. Rows are written disjointly, each by exactly
/// one task, so the output bits are thread-count invariant as long as `f`
/// itself is deterministic per row.
pub fn gram_row_map(z: &Mat, out_cols: usize, f: impl Fn(usize, &[f64], &mut [f64]) + Sync) -> Mat {
    let n = z.rows();
    let mut out = Mat::zeros(n, out_cols);
    if n == 0 {
        return out;
    }
    let tile = effective_tile(n);
    let mut panel = vec![0.0f64; tile * n];
    for tile_start in (0..n).step_by(tile) {
        let tile_rows = tile.min(n - tile_start);
        let out_tile = &mut out.as_mut_slice()[tile_start * out_cols..];
        let out_tile = &mut out_tile[..tile_rows * out_cols];
        rgae_par::par_zip_chunks_mut(
            &mut panel[..tile_rows * n],
            REDUCE_CHUNK * n,
            out_tile,
            REDUCE_CHUNK * out_cols.max(1),
            |ci, stripe, out_stripe| {
                let row0 = tile_start + ci * REDUCE_CHUNK;
                fill_panel(z, row0, stripe);
                for (r, s_row) in stripe.chunks_mut(n).enumerate() {
                    let i = row0 + r;
                    let out_row = if out_cols == 0 {
                        &mut [] as &mut [f64]
                    } else {
                        &mut out_stripe[r * out_cols..(r + 1) * out_cols]
                    };
                    f(i, s_row, out_row);
                }
            },
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{sigmoid, standard_normal, Rng64};

    fn instance(seed: u64, n: usize, d: usize) -> (Mat, Csr) {
        let mut rng = Rng64::seed_from_u64(seed);
        let z = standard_normal(n, d, &mut rng);
        let mut triplets = Vec::new();
        for i in 0..n {
            for j in 0..n {
                if rng.bernoulli(0.2) {
                    triplets.push((i, j, 1.0));
                }
            }
        }
        let t = Csr::from_triplets(n, n, &triplets).unwrap();
        (z, t)
    }

    /// Reference: the legacy dense three-pass computation, including the
    /// row-chunked `par_sum_by` reduction structure of `bce_logits_sparse`.
    fn legacy(z: &Mat, t: &Csr, pw: f64, norm: f64) -> (f64, Mat) {
        let n = z.rows();
        let gram = z.gram();
        let total = rgae_par::par_sum_by(n, |range| {
            let mut acc = 0.0;
            for i in range {
                let row = gram.row(i);
                for &v in row {
                    acc += softplus(v);
                }
                for (j, tv) in t.row_iter(i) {
                    let v = row[j];
                    acc += pw * tv * softplus(-v) - tv * softplus(v);
                }
            }
            acc
        });
        let denom = (n * n) as f64;
        let loss = norm * total / denom;
        let gs = 1.0 * norm / denom;
        let mut c = gram.map(|v| gs * sigmoid(v));
        for i in 0..n {
            for (j, tv) in t.row_iter(i) {
                let s = sigmoid(gram[(i, j)]);
                c[(i, j)] = gs * (pw * tv * (s - 1.0) + (1.0 - tv) * s);
            }
        }
        let sym = c.add(&c.transpose()).unwrap();
        let dz = sym.matmul(z).unwrap();
        (loss, dz)
    }

    #[test]
    fn fused_matches_legacy_bitwise() {
        for &(n, d) in &[(1usize, 1usize), (3, 2), (17, 4), (64, 8), (300, 5)] {
            let (z, t) = instance(7 + n as u64, n, d);
            let (pw, norm) = (3.5, 0.62);
            let denom = (n * n) as f64;
            let out = gram_bce_fused(&z, &t, pw, norm, Some(norm / denom)).unwrap();
            let (loss, dz) = legacy(&z, &t, pw, norm);
            assert_eq!(out.loss.to_bits(), loss.to_bits(), "loss bits n={n}");
            let got = out.dz.unwrap();
            let want_bits: Vec<u64> = dz.as_slice().iter().map(|v| v.to_bits()).collect();
            let got_bits: Vec<u64> = got.as_slice().iter().map(|v| v.to_bits()).collect();
            assert_eq!(got_bits, want_bits, "dz bits n={n}");
        }
    }

    #[test]
    fn fused_bits_invariant_to_tile_size() {
        let (z, t) = instance(42, 70, 3);
        let denom = (70.0f64) * 70.0;
        let reference = gram_bce_fused(&z, &t, 2.0, 0.9, Some(0.9 / denom)).unwrap();
        let ref_dz: Vec<u64> = reference
            .dz
            .as_ref()
            .unwrap()
            .as_slice()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        for tile in [1, 256, 300, 512, 100_000] {
            set_decoder_tile(Some(tile));
            let got = gram_bce_fused(&z, &t, 2.0, 0.9, Some(0.9 / denom)).unwrap();
            assert_eq!(got.loss.to_bits(), reference.loss.to_bits(), "tile={tile}");
            let got_dz: Vec<u64> = got
                .dz
                .as_ref()
                .unwrap()
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect();
            assert_eq!(got_dz, ref_dz, "tile={tile}");
        }
        set_decoder_tile(None);
    }

    #[test]
    fn loss_only_skips_gradient() {
        let (z, t) = instance(3, 20, 4);
        let out = gram_bce_fused(&z, &t, 1.0, 1.0, None).unwrap();
        assert!(out.dz.is_none());
        let (loss, _) = legacy(&z, &t, 1.0, 1.0);
        assert_eq!(out.loss.to_bits(), loss.to_bits());
    }

    #[test]
    fn row_fold_matches_dense_softplus_sum() {
        let (z, _) = instance(11, 37, 3);
        let gram = z.gram();
        let fold = gram_row_fold(&z, |i, s_row| {
            let mut acc = 0.0;
            for &v in s_row {
                acc += softplus(v);
            }
            assert_eq!(s_row.len(), gram.cols());
            for (j, &v) in s_row.iter().enumerate() {
                assert_eq!(v.to_bits(), gram[(i, j)].to_bits());
            }
            acc
        });
        // Chunk partials fold per-row subtotals (f's return values), so the
        // reference groups each row's sum before adding it to the chunk.
        let want = rgae_par::par_sum_by(z.rows(), |range| {
            let mut acc = 0.0;
            for i in range {
                let mut row_acc = 0.0;
                for j in 0..z.rows() {
                    row_acc += softplus(gram[(i, j)]);
                }
                acc += row_acc;
            }
            acc
        });
        assert_eq!(fold.to_bits(), want.to_bits());
    }

    #[test]
    fn row_map_writes_disjoint_rows() {
        let (z, _) = instance(13, 41, 2);
        let out = gram_row_map(&z, 2, |i, s_row, out_row| {
            out_row[0] = i as f64;
            out_row[1] = s_row.iter().sum();
        });
        assert_eq!(out.shape(), (41, 2));
        for i in 0..41 {
            assert_eq!(out[(i, 0)], i as f64);
        }
    }

    #[test]
    fn softplus_sigmoid_bit_matches_references() {
        for x in [
            -1e9, -31.0, -30.0, -5.0, -0.5, -1e-17, 0.0, 0.5, 29.9, 30.0, 31.0, 1e9,
        ] {
            let (sp, sig) = softplus_sigmoid(x);
            assert_eq!(sp.to_bits(), softplus(x).to_bits(), "softplus({x})");
            assert_eq!(sig.to_bits(), sigmoid(x).to_bits(), "sigmoid({x})");
        }
    }

    #[test]
    fn softplus_sigmoid_bit_matches_references_on_dense_grid() {
        let mut grid = crate::tests::softplus_test_grid();
        grid.extend([-1e9, -746.0, -745.2, 745.2, 746.0, 1e9]);
        for x in grid {
            let (sp, sig) = softplus_sigmoid(x);
            assert_eq!(sp.to_bits(), softplus(x).to_bits(), "softplus({x:e})");
            assert_eq!(sig.to_bits(), sigmoid(x).to_bits(), "sigmoid({x:e})");
        }
        let (sp, sig) = softplus_sigmoid(f64::NAN);
        assert!(sp.is_nan() && sig.is_nan());
    }

    /// Shapes and values the blocked gradient pass must reproduce bit for
    /// bit: latent widths that are not multiples of the register block
    /// (tail only, block + tail), a zero coefficient scale (every
    /// coefficient +0, so dz is all +0.0), and rows whose logits fall below
    /// −745, where σ underflows to 0 and the zero-skip applies.
    #[test]
    fn fused_matches_legacy_bitwise_awkward_shapes() {
        let n = 37;
        let denom = (n * n) as f64;
        for d in [1usize, 7, 8, 9, 17, 33] {
            let (mut z, t) = instance(100 + d as u64, n, d);
            // Rows 0..4 alternate ±40 in every latent column: their mutual
            // logits are ±1600·d, far past σ's underflow and saturation.
            for i in 0..4 {
                let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
                z.row_mut(i).fill(40.0 * sign);
            }
            for norm in [0.62, 0.0] {
                let out = gram_bce_fused(&z, &t, 3.5, norm, Some(norm / denom)).unwrap();
                let (loss, dz) = legacy(&z, &t, 3.5, norm);
                assert_eq!(
                    out.loss.to_bits(),
                    loss.to_bits(),
                    "loss bits d={d} norm={norm}"
                );
                let got: Vec<u64> = out
                    .dz
                    .unwrap()
                    .as_slice()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                let want: Vec<u64> = dz.as_slice().iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "dz bits d={d} norm={norm}");
                if norm == 0.0 {
                    assert!(got.iter().all(|&b| b == 0), "dz not all +0.0, d={d}");
                }
            }
        }
    }

    #[test]
    fn shape_mismatch_rejected() {
        let (z, _) = instance(5, 4, 2);
        let t = Csr::zeros(3, 3);
        assert!(gram_bce_fused(&z, &t, 1.0, 1.0, None).is_err());
    }

    #[test]
    fn panel_bytes_reports_tile_width() {
        set_decoder_tile(Some(512));
        // B×N panel plus the 2·B² diagonal-block transcendental cache.
        assert_eq!(
            fused_panel_bytes(10_000),
            (512 * 10_000 + 2 * 512 * 512) * 8
        );
        // Small n clamps to its own rounded row count.
        assert_eq!(fused_panel_bytes(100), (256 * 100 + 2 * 256 * 256) * 8);
        set_decoder_tile(None);
    }
}
