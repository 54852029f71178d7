//! Athread fine-grained redesign of the Table-1 kernels (paper Sections
//! 7.3–7.5), running on the simulated SW26010 CPE cluster.
//!
//! The decomposition is the paper's Figure 2: a batch of 8 elements is
//! processed per sweep, one element per CPE *column*; the `nlev` layers are
//! split into 8 groups of `nlev/8`, one group per CPE *row*. Column scans
//! (pressure, geopotential, omega) become the three-stage
//! register-communication scan: local accumulation, partial-sum exchange
//! along the CPE column, global fix-up. The vertical remap gathers full
//! columns with the shuffle + register-communication transposition of
//! Section 7.5 (XOR-pairing phases). Tracer advection is Algorithm 2:
//! q-invariant arrays are DMA'd **once per element** and reused across the
//! tracer loop.
//!
//! Every variant computes the same answer as the reference kernels; the
//! simulator meanwhile accounts DMA traffic, register messages, shuffles
//! and (annotated) vector flops.

use super::{op_count, KernelData, KernelId};
use crate::euler::tracer_flux_divergence;
use crate::remap::remap_column_ppm;
use cubesphere::NPTS;
use sw26010::{CpeCluster, CpeCtx, KernelReport, SharedSlice, SharedSliceMut, V4F64, CPE_ROWS};

/// Send `vals` (length divisible by 4) to `target_row` along this CPE's
/// column, as 256-bit register messages.
fn send_col_values(ctx: &mut CpeCtx<'_>, target_row: usize, vals: &[f64]) {
    debug_assert_eq!(vals.len() % 4, 0);
    for c in vals.chunks_exact(4) {
        ctx.reg_send_col(target_row, V4F64::load(c));
    }
}

/// Receive `out.len()` values (divisible by 4) from `source_row`.
fn recv_col_values(ctx: &mut CpeCtx<'_>, source_row: usize, out: &mut [f64]) {
    debug_assert_eq!(out.len() % 4, 0);
    for c in out.chunks_exact_mut(4) {
        ctx.reg_recv_col(source_row).store(c);
    }
}

/// The three-stage inclusive-prefix scan of the paper's Section 7.4,
/// specialised to "each row holds the partial sums of its level group".
///
/// Input: `local_total[p]` = this row's group total per GLL point.
/// Output: `prefix[p]` = sum of all *earlier* rows' group totals
/// (exclusive prefix), obtained by the blocking chain
/// `row 0 -> row 1 -> ... -> row 7`.
pub fn chain_exclusive_prefix(ctx: &mut CpeCtx<'_>, local_total: &[f64; NPTS]) -> [f64; NPTS] {
    let row = ctx.row();
    let mut prefix = [0.0; NPTS];
    if row > 0 {
        recv_col_values(ctx, row - 1, &mut prefix);
    }
    if row < CPE_ROWS - 1 {
        let mut fwd = [0.0; NPTS];
        for p in 0..NPTS {
            fwd[p] = prefix[p] + local_total[p];
        }
        ctx.charge_vflops(NPTS as u64);
        send_col_values(ctx, row + 1, &fwd);
    }
    prefix
}

/// Reverse chain: exclusive suffix from below (`row 7 -> row 0`).
pub fn chain_exclusive_suffix(ctx: &mut CpeCtx<'_>, local_total: &[f64; NPTS]) -> [f64; NPTS] {
    let row = ctx.row();
    let mut suffix = [0.0; NPTS];
    if row < CPE_ROWS - 1 {
        recv_col_values(ctx, row + 1, &mut suffix);
    }
    if row > 0 {
        let mut fwd = [0.0; NPTS];
        for p in 0..NPTS {
            fwd[p] = suffix[p] + local_total[p];
        }
        ctx.charge_vflops(NPTS as u64);
        send_col_values(ctx, row - 1, &fwd);
    }
    suffix
}

/// `compute_and_apply_rhs`, Athread variant.
///
/// Requires `nlev % 8 == 0`. Returns the cluster launch report.
pub fn compute_and_apply_rhs(cluster: &CpeCluster, data: &mut KernelData) -> KernelReport {
    assert_eq!(data.nlev % CPE_ROWS, 0, "athread RHS needs nlev divisible by 8");
    let nlev = data.nlev;
    let lpc = nlev / CPE_ROWS; // levels per CPE
    let nelem = data.nelem;
    let ops = &data.ops;
    let ptop = data.ptop;
    let counts = op_count(KernelId::ComputeAndApplyRhs, data.shape());
    let flops_per_cpe = counts.flops / 64;

    let u = SharedSlice::new(&data.u);
    let v = SharedSlice::new(&data.v);
    let t = SharedSlice::new(&data.t);
    let dp = SharedSlice::new(&data.dp3d);
    let phis = SharedSlice::new(&data.phis);
    let tu = SharedSliceMut::new(&mut data.tend_u);
    let tv = SharedSliceMut::new(&mut data.tend_v);
    let tt = SharedSliceMut::new(&mut data.tend_t);
    let tdp = SharedSliceMut::new(&mut data.tend_dp);

    cluster.run(|ctx| {
        let row = ctx.row();
        let col = ctx.col();
        let k0 = row * lpc;
        let tile = lpc * NPTS;
        // LDM working set: 4 input tiles + 4 output tiles + column scratch.
        let mut buf_u = ctx.ldm_alloc(tile).expect("LDM");
        let mut buf_v = ctx.ldm_alloc(tile).expect("LDM");
        let mut buf_t = ctx.ldm_alloc(tile).expect("LDM");
        let mut buf_dp = ctx.ldm_alloc(tile).expect("LDM");
        let mut buf_phis = ctx.ldm_alloc(NPTS).expect("LDM");
        let mut out_u = ctx.ldm_alloc(tile).expect("LDM");
        let mut out_v = ctx.ldm_alloc(tile).expect("LDM");
        let mut out_t = ctx.ldm_alloc(tile).expect("LDM");
        let mut out_dp = ctx.ldm_alloc(tile).expect("LDM");

        let mut e = col;
        while e < nelem {
            let base = (e * nlev + k0) * NPTS;
            ctx.dma_get(u, base..base + tile, &mut buf_u);
            ctx.dma_get(v, base..base + tile, &mut buf_v);
            ctx.dma_get(t, base..base + tile, &mut buf_t);
            ctx.dma_get(dp, base..base + tile, &mut buf_dp);
            ctx.dma_get(phis, e * NPTS..(e + 1) * NPTS, &mut buf_phis);

            // ---- Stage 1 + 2 + 3: pressure scan over the CPE column -----
            let mut dp_total = [0.0; NPTS];
            for k in 0..lpc {
                for p in 0..NPTS {
                    dp_total[p] += buf_dp[k * NPTS + p];
                }
            }
            let dp_prefix = chain_exclusive_prefix(ctx, &dp_total);
            // Local p_int / p_mid for this group.
            let mut p_int = vec![0.0; (lpc + 1) * NPTS];
            let mut p_mid = vec![0.0; lpc * NPTS];
            for p in 0..NPTS {
                p_int[p] = ptop + dp_prefix[p];
            }
            for k in 0..lpc {
                for p in 0..NPTS {
                    let d = buf_dp[k * NPTS + p];
                    p_int[(k + 1) * NPTS + p] = p_int[k * NPTS + p] + d;
                    p_mid[k * NPTS + p] = p_int[k * NPTS + p] + 0.5 * d;
                }
            }

            // ---- geopotential: reverse chain -----------------------------
            let mut phi_local = [0.0; NPTS]; // group total of Rd T ln ratios
            for k in 0..lpc {
                for p in 0..NPTS {
                    phi_local[p] += cubesphere::RD
                        * buf_t[k * NPTS + p]
                        * (p_int[(k + 1) * NPTS + p] / p_int[k * NPTS + p]).ln();
                }
            }
            let phi_suffix = chain_exclusive_suffix(ctx, &phi_local);
            // phi at the bottom interface of this group.
            let mut phi_below = [0.0; NPTS];
            for p in 0..NPTS {
                phi_below[p] = buf_phis[p] + phi_suffix[p];
            }
            let mut phi_mid = vec![0.0; lpc * NPTS];
            for k in (0..lpc).rev() {
                for p in 0..NPTS {
                    let i = k * NPTS + p;
                    phi_mid[i] = phi_below[p]
                        + cubesphere::RD * buf_t[i] * (p_int[(k + 1) * NPTS + p] / p_mid[i]).ln();
                    phi_below[p] +=
                        cubesphere::RD * buf_t[i] * (p_int[(k + 1) * NPTS + p] / p_int[i]).ln();
                }
            }

            // ---- horizontal terms (element-local, per level) -------------
            let op = &ops[e];
            let mut divdp = vec![0.0; lpc * NPTS];
            let mut vgrad_p = vec![0.0; lpc * NPTS];
            for k in 0..lpc {
                let r = k * NPTS..(k + 1) * NPTS;
                let mut udp = [0.0; NPTS];
                let mut vdp = [0.0; NPTS];
                for p in 0..NPTS {
                    udp[p] = buf_u[k * NPTS + p] * buf_dp[k * NPTS + p];
                    vdp[p] = buf_v[k * NPTS + p] * buf_dp[k * NPTS + p];
                }
                let mut div = [0.0; NPTS];
                op.divergence_sphere(&udp, &vdp, &mut div);
                divdp[r.clone()].copy_from_slice(&div);
                let mut gpx = [0.0; NPTS];
                let mut gpy = [0.0; NPTS];
                op.gradient_sphere(&p_mid[r.clone()], &mut gpx, &mut gpy);
                for p in 0..NPTS {
                    vgrad_p[k * NPTS + p] =
                        buf_u[k * NPTS + p] * gpx[p] + buf_v[k * NPTS + p] * gpy[p];
                }
            }

            // ---- omega scan ----------------------------------------------
            let mut div_total = [0.0; NPTS];
            for k in 0..lpc {
                for p in 0..NPTS {
                    div_total[p] += divdp[k * NPTS + p];
                }
            }
            let div_prefix = chain_exclusive_prefix(ctx, &div_total);
            let mut omega_p = vec![0.0; lpc * NPTS];
            let mut acc = div_prefix;
            for k in 0..lpc {
                for p in 0..NPTS {
                    let i = k * NPTS + p;
                    omega_p[i] = (vgrad_p[i] - acc[p] - 0.5 * divdp[i]) / p_mid[i];
                    acc[p] += divdp[i];
                }
            }

            // ---- tendencies ----------------------------------------------
            let kappa = cubesphere::KAPPA;
            for k in 0..lpc {
                let r = k * NPTS..(k + 1) * NPTS;
                let uu = &buf_u[r.clone()];
                let vv = &buf_v[r.clone()];
                let tt_ = &buf_t[r.clone()];
                let mut vort = [0.0; NPTS];
                op.vorticity_sphere(uu, vv, &mut vort);
                let mut energy = [0.0; NPTS];
                for p in 0..NPTS {
                    energy[p] = phi_mid[k * NPTS + p] + 0.5 * (uu[p] * uu[p] + vv[p] * vv[p]);
                }
                let mut gex = [0.0; NPTS];
                let mut gey = [0.0; NPTS];
                op.gradient_sphere(&energy, &mut gex, &mut gey);
                let mut gpx = [0.0; NPTS];
                let mut gpy = [0.0; NPTS];
                op.gradient_sphere(&p_mid[r.clone()], &mut gpx, &mut gpy);
                let mut gtx = [0.0; NPTS];
                let mut gty = [0.0; NPTS];
                op.gradient_sphere(tt_, &mut gtx, &mut gty);
                for p in 0..NPTS {
                    let i = k * NPTS + p;
                    let abs_vort = op.fcor[p] + vort[p];
                    let rtp = cubesphere::RD * tt_[p] / p_mid[i];
                    out_u[i] = abs_vort * vv[p] - gex[p] - rtp * gpx[p];
                    out_v[i] = -abs_vort * uu[p] - gey[p] - rtp * gpy[p];
                    out_t[i] = -(uu[p] * gtx[p] + vv[p] * gty[p]) + kappa * tt_[p] * omega_p[i];
                    out_dp[i] = -divdp[i];
                }
            }
            ctx.charge_vflops(flops_per_cpe / (nelem as u64 / 8).max(1));

            ctx.dma_put(&tu, base, &out_u);
            ctx.dma_put(&tv, base, &out_v);
            ctx.dma_put(&tt, base, &out_t);
            ctx.dma_put(&tdp, base, &out_dp);
            e += 8;
        }
    })
}

/// `euler_step`, Athread variant — the paper's Algorithm 2: q-invariant
/// arrays (`u`, `v`, `dp`) DMA'd once per element and kept in LDM across
/// the tracer loop; `qdp` streamed per tracer.
pub fn euler_step(cluster: &CpeCluster, data: &mut KernelData, dt: f64) -> KernelReport {
    assert_eq!(data.nlev % CPE_ROWS, 0, "athread euler_step needs nlev divisible by 8");
    let nlev = data.nlev;
    let lpc = nlev / CPE_ROWS;
    let nelem = data.nelem;
    let qsize = data.qsize;
    let ops = &data.ops;
    let counts = op_count(KernelId::EulerStep, data.shape());
    let sweeps = (nelem as u64).div_ceil(8);

    let u = SharedSlice::new(&data.u);
    let v = SharedSlice::new(&data.v);
    let dp = SharedSlice::new(&data.dp3d);
    let qdp = SharedSlice::new(&data.qdp);
    let out = SharedSliceMut::new(&mut data.out_a);

    cluster.run(|ctx| {
        let row = ctx.row();
        let col = ctx.col();
        let k0 = row * lpc;
        let tile = lpc * NPTS;
        let mut buf_u = ctx.ldm_alloc(tile).expect("LDM");
        let mut buf_v = ctx.ldm_alloc(tile).expect("LDM");
        let mut buf_dp = ctx.ldm_alloc(tile).expect("LDM");
        let mut buf_q = ctx.ldm_alloc(tile).expect("LDM");
        let mut buf_o = ctx.ldm_alloc(tile).expect("LDM");

        let mut e = col;
        while e < nelem {
            let base = (e * nlev + k0) * NPTS;
            // DMA the q-invariant arrays ONCE (the Algorithm 2 reuse).
            ctx.dma_get(u, base..base + tile, &mut buf_u);
            ctx.dma_get(v, base..base + tile, &mut buf_v);
            ctx.dma_get(dp, base..base + tile, &mut buf_dp);
            // The remaining q-invariant inputs of the real euler_step
            // (derived vn0/vstar, divdp, dpdiss, Qtens work arrays — eight
            // tiles — plus the per-element metric constants), loaded once
            // per element like u/v/dp.
            ctx.charge_dma_traffic(8 * tile * 8, true);
            ctx.charge_dma_traffic(5 * NPTS * 8, true);
            let op = &ops[e];
            for q in 0..qsize {
                let qbase = ((e * qsize + q) * nlev + k0) * NPTS;
                ctx.dma_get(qdp, qbase..qbase + tile, &mut buf_q);
                for k in 0..lpc {
                    let r = k * NPTS..(k + 1) * NPTS;
                    let mut tend = [0.0; NPTS];
                    tracer_flux_divergence(
                        op,
                        &buf_u[r.clone()],
                        &buf_v[r.clone()],
                        &buf_dp[r.clone()],
                        &buf_q[r.clone()],
                        &mut tend,
                    );
                    for p in 0..NPTS {
                        buf_o[k * NPTS + p] = buf_q[k * NPTS + p] + dt * tend[p];
                    }
                }
                // 28 flops/pt (op_count formula), vectorized.
                ctx.charge_vflops(28 * tile as u64);
                ctx.dma_put(&out, qbase, &buf_o);
            }
            e += 8;
        }
        let _ = (counts, sweeps);
    })
}

/// `vertical_remap`, Athread variant, with the Section 7.5 transposition:
/// level-major tiles are turned into full point-columns by 4x4 register
/// shuffles plus XOR-paired register-communication phases along each CPE
/// column; PPM runs on whole columns; results transpose back.
///
/// Requires `nlev % 32 == 0` (so each row's tile is a multiple of 4 levels)
/// — use `nlev = 32` in tests, 128 in benches (the paper's configuration).
pub fn vertical_remap(cluster: &CpeCluster, data: &mut KernelData) -> KernelReport {
    assert_eq!(data.nlev % 32, 0, "athread remap needs nlev divisible by 32");
    let nlev = data.nlev;
    let lpc = nlev / CPE_ROWS; // levels per CPE row (multiple of 4)
    let nelem = data.nelem;
    let qsize = data.qsize;
    let counts = op_count(KernelId::VerticalRemap, data.shape());
    let flops_per_cpe = counts.flops / 64;

    let u = SharedSlice::new(&data.u);
    let v = SharedSlice::new(&data.v);
    let t = SharedSlice::new(&data.t);
    let dp = SharedSlice::new(&data.dp3d);
    let qdp = SharedSlice::new(&data.qdp);
    let tu = SharedSliceMut::new(&mut data.tend_u);
    let tv = SharedSliceMut::new(&mut data.tend_v);
    let tt = SharedSliceMut::new(&mut data.tend_t);
    let tdp = SharedSliceMut::new(&mut data.tend_dp);
    let out_q = SharedSliceMut::new(&mut data.out_a);

    // Fields to remap: u, v, t, dp, then qsize tracers (as mixing ratios).
    let nfields = 4 + qsize;

    cluster.run(|ctx| {
        let row = ctx.row();
        let col = ctx.col();
        let k0 = row * lpc;
        let tile = lpc * NPTS;
        // This CPE ends up owning point-columns [2*row, 2*row + 2).
        let my_p0 = 2 * row;

        let mut buf_in = ctx.ldm_alloc(tile).expect("LDM"); // level-major tile
        let mut buf_tr = ctx.ldm_alloc(tile).expect("LDM"); // point-major tile
        // Column workspace: 2 point-columns x nlev per field + dp columns.
        let mut col_dp = ctx.ldm_alloc(2 * nlev).expect("LDM");
        let mut col_val = ctx.ldm_alloc(2 * nlev).expect("LDM");
        let mut col_out = ctx.ldm_alloc(2 * nlev).expect("LDM");
        let mut dst_dp = ctx.ldm_alloc(nlev).expect("LDM");

        // Transpose the level-major tile [lpc][16] into point-major
        // [16][lpc] using 4x4 register shuffles.
        let transpose_tile = |ctx: &mut CpeCtx<'_>, src: &[f64], dst: &mut [f64]| {
            for kb in (0..lpc).step_by(4) {
                for pb in (0..NPTS).step_by(4) {
                    let rows = [
                        V4F64::load(&src[kb * NPTS + pb..]),
                        V4F64::load(&src[(kb + 1) * NPTS + pb..]),
                        V4F64::load(&src[(kb + 2) * NPTS + pb..]),
                        V4F64::load(&src[(kb + 3) * NPTS + pb..]),
                    ];
                    let cols = ctx.transpose4x4(rows);
                    for (dj, c) in cols.iter().enumerate() {
                        c.store(&mut dst[(pb + dj) * lpc + kb..(pb + dj) * lpc + kb + 4]);
                    }
                }
            }
        };

        // Exchange: after transposing, CPE (row) holds [16 pts][lpc levels].
        // It must ship points [2r', 2r'+2) to row r' and receive its own
        // 2 points' remaining level groups, in 7 XOR-paired phases.
        // col_val layout: [2][nlev] (point-column major).
        let exchange_gather =
            |ctx: &mut CpeCtx<'_>, tr: &[f64], colv: &mut [f64]| {
                // Own contribution first.
                for dp_ in 0..2 {
                    let p = my_p0 + dp_;
                    colv[dp_ * nlev + k0..dp_ * nlev + k0 + lpc]
                        .copy_from_slice(&tr[p * lpc..(p + 1) * lpc]);
                }
                for phase in 1..CPE_ROWS {
                    let partner = row ^ phase;
                    let send_first = row < partner;
                    let mut payload = vec![0.0; 2 * lpc];
                    payload[..lpc].copy_from_slice(&tr[(2 * partner) * lpc..(2 * partner + 1) * lpc]);
                    payload[lpc..].copy_from_slice(&tr[(2 * partner + 1) * lpc..(2 * partner + 2) * lpc]);
                    let mut incoming = vec![0.0; 2 * lpc];
                    if send_first {
                        send_col_values(ctx, partner, &payload);
                        recv_col_values(ctx, partner, &mut incoming);
                    } else {
                        recv_col_values(ctx, partner, &mut incoming);
                        send_col_values(ctx, partner, &payload);
                    }
                    let pk0 = partner * lpc;
                    colv[pk0..pk0 + lpc].copy_from_slice(&incoming[..lpc]);
                    colv[nlev + pk0..nlev + pk0 + lpc].copy_from_slice(&incoming[lpc..]);
                }
            };
        // Reverse: scatter remapped columns back to level-major owners.
        let exchange_scatter =
            |ctx: &mut CpeCtx<'_>, colv: &[f64], tr: &mut [f64]| {
                for dp_ in 0..2 {
                    let p = my_p0 + dp_;
                    tr[p * lpc..(p + 1) * lpc]
                        .copy_from_slice(&colv[dp_ * nlev + k0..dp_ * nlev + k0 + lpc]);
                }
                for phase in 1..CPE_ROWS {
                    let partner = row ^ phase;
                    let send_first = row < partner;
                    let pk0 = partner * lpc;
                    let mut payload = vec![0.0; 2 * lpc];
                    payload[..lpc].copy_from_slice(&colv[pk0..pk0 + lpc]);
                    payload[lpc..].copy_from_slice(&colv[nlev + pk0..nlev + pk0 + lpc]);
                    let mut incoming = vec![0.0; 2 * lpc];
                    if send_first {
                        send_col_values(ctx, partner, &payload);
                        recv_col_values(ctx, partner, &mut incoming);
                    } else {
                        recv_col_values(ctx, partner, &mut incoming);
                        send_col_values(ctx, partner, &payload);
                    }
                    tr[(2 * partner) * lpc..(2 * partner + 1) * lpc]
                        .copy_from_slice(&incoming[..lpc]);
                    tr[(2 * partner + 1) * lpc..(2 * partner + 2) * lpc]
                        .copy_from_slice(&incoming[lpc..]);
                }
            };

        // Un-transpose: point-major [16][lpc] back to level-major [lpc][16].
        let untranspose_tile = |ctx: &mut CpeCtx<'_>, src: &[f64], dst: &mut [f64]| {
            for pb in (0..NPTS).step_by(4) {
                for kb in (0..lpc).step_by(4) {
                    let rows = [
                        V4F64::load(&src[pb * lpc + kb..]),
                        V4F64::load(&src[(pb + 1) * lpc + kb..]),
                        V4F64::load(&src[(pb + 2) * lpc + kb..]),
                        V4F64::load(&src[(pb + 3) * lpc + kb..]),
                    ];
                    let cols = ctx.transpose4x4(rows);
                    for (dj, c) in cols.iter().enumerate() {
                        c.store(&mut dst[(kb + dj) * NPTS + pb..(kb + dj) * NPTS + pb + 4]);
                    }
                }
            }
        };

        let mut e = col;
        while e < nelem {
            let base = (e * nlev + k0) * NPTS;

            // --- gather full dp columns for my 2 points -------------------
            ctx.dma_get(dp, base..base + tile, &mut buf_in);
            transpose_tile(ctx, &buf_in, &mut buf_tr);
            exchange_gather(ctx, &buf_tr, &mut col_dp);
            // Target: uniform thickness (kernel-benchmark convention,
            // matching the reference implementation). One value per owned
            // point-column; written back through the scatter path as the
            // `dp` pseudo-field below (no slow per-point gst).
            let mut even_dp = [0.0; 2];
            for (dpt, even) in even_dp.iter_mut().enumerate() {
                let total: f64 = col_dp[dpt * nlev..(dpt + 1) * nlev].iter().sum();
                *even = total / nlev as f64;
            }

            // --- remap each field -----------------------------------------
            // Field order: u, v, T, dp (pseudo-field carrying the new
            // thicknesses back through the scatter path), then tracers.
            for f in 0..nfields {
                // Load the field tile (tracers load qdp; dp needs none).
                match f {
                    0 => ctx.dma_get(u, base..base + tile, &mut buf_in),
                    1 => ctx.dma_get(v, base..base + tile, &mut buf_in),
                    2 => ctx.dma_get(t, base..base + tile, &mut buf_in),
                    3 => {}
                    _ => {
                        let q = f - 4;
                        let qbase = ((e * qsize + q) * nlev + k0) * NPTS;
                        ctx.dma_get(qdp, qbase..qbase + tile, &mut buf_in)
                    }
                }
                if f != 3 {
                    transpose_tile(ctx, &buf_in, &mut buf_tr);
                    exchange_gather(ctx, &buf_tr, &mut col_val);
                }
                for dpt in 0..2 {
                    if f == 3 {
                        // The dp "remap" is just the new uniform thickness.
                        for k in 0..nlev {
                            col_val[dpt * nlev + k] = even_dp[dpt];
                        }
                        continue;
                    }
                    for k in 0..nlev {
                        dst_dp[k] = even_dp[dpt];
                    }
                    let cv = &mut col_val[dpt * nlev..(dpt + 1) * nlev];
                    let cdp = &col_dp[dpt * nlev..(dpt + 1) * nlev];
                    // Tracers remap as mixing ratio.
                    if f >= 4 {
                        for k in 0..nlev {
                            cv[k] /= cdp[k];
                        }
                    }
                    remap_column_ppm(cdp, cv, &dst_dp, &mut col_out[..nlev]).expect("remap");
                    if f >= 4 {
                        for k in 0..nlev {
                            col_out[k] *= dst_dp[k];
                        }
                    }
                    let off = dpt * nlev;
                    for k in 0..nlev {
                        col_val[off + k] = col_out[k];
                    }
                }
                exchange_scatter(ctx, &col_val, &mut buf_tr);
                untranspose_tile(ctx, &buf_tr, &mut buf_in);
                match f {
                    0 => ctx.dma_put(&tu, base, &buf_in),
                    1 => ctx.dma_put(&tv, base, &buf_in),
                    2 => ctx.dma_put(&tt, base, &buf_in),
                    3 => ctx.dma_put(&tdp, base, &buf_in),
                    _ => {
                        let q = f - 4;
                        let qbase = ((e * qsize + q) * nlev + k0) * NPTS;
                        ctx.dma_put(&out_q, qbase, &buf_in)
                    }
                }
            }
            ctx.charge_vflops(flops_per_cpe / (nelem as u64).div_ceil(8));
            e += 8;
        }
        ctx.ldm.free(buf_in);
        ctx.ldm.free(buf_tr);
        ctx.ldm.free(col_dp);
        ctx.ldm.free(col_val);
        ctx.ldm.free(col_out);
        ctx.ldm.free(dst_dp);
    })
}

/// Generic level-parallel Athread kernel for the viscosity family: each CPE
/// takes strided `(element, level)` pairs, DMAs the level tiles, applies
/// `f`, writes back. Used for `hypervis_dp1`, `hypervis_dp2` and
/// `biharmonic_dp3d`.
fn level_parallel<F>(
    cluster: &CpeCluster,
    nelem: usize,
    nlev: usize,
    inputs: Vec<SharedSlice<'_>>,
    outputs: Vec<SharedSliceMut<'_>>,
    flops_per_level: u64,
    f: F,
) -> KernelReport
where
    F: Fn(usize, &[Vec<f64>], &mut [Vec<f64>]) + Sync,
{
    let total = nelem * nlev;
    cluster.run(|ctx| {
        let nin = inputs.len();
        let nout = outputs.len();
        let mut bufs_in: Vec<Vec<f64>> = vec![vec![0.0; NPTS]; nin];
        let mut bufs_out: Vec<Vec<f64>> = vec![vec![0.0; NPTS]; nout];
        let ldm = ctx.ldm_alloc((nin + nout) * NPTS).expect("LDM");
        let mut idx = ctx.id();
        while idx < total {
            let e = idx / nlev;
            let base = idx * NPTS;
            for (s, b) in inputs.iter().zip(bufs_in.iter_mut()) {
                ctx.dma_get(*s, base..base + NPTS, b);
            }
            f(e, &bufs_in, &mut bufs_out);
            ctx.charge_vflops(flops_per_level);
            for (d, b) in outputs.iter().zip(&bufs_out) {
                ctx.dma_put(d, base, b);
            }
            idx += 64;
        }
        ctx.ldm.free(ldm);
    })
}

/// `hypervis_dp1`, Athread variant.
pub fn hypervis_dp1(cluster: &CpeCluster, data: &mut KernelData) -> KernelReport {
    let ops = data.ops.clone();
    let nelem = data.nelem;
    let nlev = data.nlev;
    let counts = op_count(KernelId::HypervisDp1, data.shape());
    let flops_per_level = counts.flops / (nelem * nlev) as u64;
    let inputs = vec![
        SharedSlice::new(&data.u),
        SharedSlice::new(&data.v),
        SharedSlice::new(&data.t),
    ];
    let outputs = vec![
        SharedSliceMut::new(&mut data.tend_u),
        SharedSliceMut::new(&mut data.tend_v),
        SharedSliceMut::new(&mut data.tend_t),
    ];
    level_parallel(cluster, nelem, nlev, inputs, outputs, flops_per_level, |e, i, o| {
        let mut lu = [0.0; NPTS];
        let mut lv = [0.0; NPTS];
        ops[e].vlaplace_sphere(&i[0], &i[1], &mut lu, &mut lv);
        let mut lt = [0.0; NPTS];
        ops[e].laplace_sphere(&i[2], &mut lt);
        o[0].copy_from_slice(&lu);
        o[1].copy_from_slice(&lv);
        o[2].copy_from_slice(&lt);
    })
}

/// `hypervis_dp2`, Athread variant.
pub fn hypervis_dp2(cluster: &CpeCluster, data: &mut KernelData) -> KernelReport {
    let ops = data.ops.clone();
    let nelem = data.nelem;
    let nlev = data.nlev;
    let counts = op_count(KernelId::HypervisDp2, data.shape());
    let flops_per_level = counts.flops / (nelem * nlev) as u64;
    let inputs = vec![
        SharedSlice::new(&data.u),
        SharedSlice::new(&data.v),
        SharedSlice::new(&data.t),
    ];
    let outputs = vec![
        SharedSliceMut::new(&mut data.tend_u),
        SharedSliceMut::new(&mut data.tend_v),
        SharedSliceMut::new(&mut data.tend_t),
    ];
    level_parallel(cluster, nelem, nlev, inputs, outputs, flops_per_level, |e, i, o| {
        let mut lu = [0.0; NPTS];
        let mut lv = [0.0; NPTS];
        ops[e].vlaplace_sphere(&i[0], &i[1], &mut lu, &mut lv);
        let mut lu2 = [0.0; NPTS];
        let mut lv2 = [0.0; NPTS];
        ops[e].vlaplace_sphere(&lu, &lv, &mut lu2, &mut lv2);
        let mut lt = [0.0; NPTS];
        ops[e].laplace_sphere(&i[2], &mut lt);
        let mut lt2 = [0.0; NPTS];
        ops[e].laplace_sphere(&lt, &mut lt2);
        o[0].copy_from_slice(&lu2);
        o[1].copy_from_slice(&lv2);
        o[2].copy_from_slice(&lt2);
    })
}

/// `biharmonic_dp3d`, Athread variant.
pub fn biharmonic_dp3d(cluster: &CpeCluster, data: &mut KernelData) -> KernelReport {
    let ops = data.ops.clone();
    let nelem = data.nelem;
    let nlev = data.nlev;
    let counts = op_count(KernelId::BiharmonicDp3d, data.shape());
    let flops_per_level = counts.flops / (nelem * nlev) as u64;
    let inputs = vec![SharedSlice::new(&data.dp3d)];
    let outputs = vec![SharedSliceMut::new(&mut data.tend_dp)];
    level_parallel(cluster, nelem, nlev, inputs, outputs, flops_per_level, |e, i, o| {
        let mut l1 = [0.0; NPTS];
        ops[e].laplace_sphere(&i[0], &mut l1);
        let mut l2 = [0.0; NPTS];
        ops[e].laplace_sphere(&l1, &mut l2);
        o[0].copy_from_slice(&l2);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::reference;

    fn max_diff(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0, f64::max)
    }

    #[test]
    fn scan_chain_matches_serial_prefix() {
        let cluster = CpeCluster::with_defaults();
        let mut out = vec![0.0; 64 * NPTS];
        {
            let view = SharedSliceMut::new(&mut out);
            cluster.run(|ctx| {
                // Each row's "group total" is row + 1 at every point.
                let local = [(ctx.row() + 1) as f64; NPTS];
                let prefix = chain_exclusive_prefix(ctx, &local);
                let mut buf = [0.0; NPTS];
                buf.copy_from_slice(&prefix);
                ctx.dma_put(&view, ctx.id() * NPTS, &buf);
            });
        }
        for row in 0..8 {
            let expect: f64 = (1..=row).map(|r| r as f64).sum();
            for c in 0..8 {
                for p in 0..NPTS {
                    assert_eq!(out[(row * 8 + c) * NPTS + p], expect, "row {row}");
                }
            }
        }
    }

    #[test]
    fn reverse_chain_matches_serial_suffix() {
        let cluster = CpeCluster::with_defaults();
        let mut out = vec![0.0; 64 * NPTS];
        {
            let view = SharedSliceMut::new(&mut out);
            cluster.run(|ctx| {
                let local = [(ctx.row() + 1) as f64; NPTS];
                let suffix = chain_exclusive_suffix(ctx, &local);
                let mut buf = [0.0; NPTS];
                buf.copy_from_slice(&suffix);
                ctx.dma_put(&view, ctx.id() * NPTS, &buf);
            });
        }
        for row in 0..8 {
            let expect: f64 = (row + 2..=8).map(|r| r as f64).sum();
            for c in 0..8 {
                assert_eq!(out[(row * 8 + c) * NPTS], expect, "row {row}");
            }
        }
    }

    #[test]
    fn athread_rhs_matches_reference() {
        let cluster = CpeCluster::with_defaults();
        let mut ref_data = KernelData::synth(16, 16, 0, 77);
        let mut ath_data = ref_data.clone();
        reference::compute_and_apply_rhs(&mut ref_data);
        let report = compute_and_apply_rhs(&cluster, &mut ath_data);
        // Scans reassociate sums: tolerance is round-off scaled.
        assert!(max_diff(&ref_data.tend_u, &ath_data.tend_u) < 1e-9, "du");
        assert!(max_diff(&ref_data.tend_v, &ath_data.tend_v) < 1e-9, "dv");
        assert!(max_diff(&ref_data.tend_t, &ath_data.tend_t) < 1e-9, "dT");
        assert!(max_diff(&ref_data.tend_dp, &ath_data.tend_dp) < 1e-12, "ddp");
        assert!(report.counters.reg_sends > 0, "scan must use register comm");
        assert!(report.counters.dma_bytes_in > 0);
    }

    #[test]
    fn athread_euler_matches_reference_and_reuses_dma() {
        let cluster = CpeCluster::with_defaults();
        let mut ref_data = KernelData::synth(16, 16, 4, 78);
        let mut ath_data = ref_data.clone();
        reference::euler_step(&mut ref_data, 150.0);
        let report = euler_step(&cluster, &mut ath_data, 150.0);
        assert!(max_diff(&ref_data.out_a, &ath_data.out_a) < 1e-10);
        // Algorithm 2: the six q-invariant field tiles plus the metric
        // constants are read once per element; only qdp streams per tracer.
        let lpc = 16 / 8;
        let tile_bytes = lpc * NPTS * 8;
        let per_elem_row = (3 + 8) * tile_bytes + 5 * NPTS * 8 + 4 * tile_bytes;
        let expected_in = 16 * 8 * per_elem_row; // elems x rows
        assert_eq!(report.counters.dma_bytes_in as usize, expected_in);
    }

    #[test]
    fn athread_remap_matches_reference_and_uses_shuffles() {
        let cluster = CpeCluster::with_defaults();
        let mut ref_data = KernelData::synth(8, 32, 2, 79);
        let mut ath_data = ref_data.clone();
        reference::vertical_remap(&mut ref_data);
        let report = vertical_remap(&cluster, &mut ath_data);
        assert!(max_diff(&ref_data.tend_u, &ath_data.tend_u) < 1e-9, "u");
        assert!(max_diff(&ref_data.tend_t, &ath_data.tend_t) < 1e-9, "t");
        assert!(max_diff(&ref_data.tend_dp, &ath_data.tend_dp) < 1e-9, "dp");
        assert!(max_diff(&ref_data.out_a, &ath_data.out_a) < 1e-9, "qdp");
        assert!(report.counters.shuffles > 0, "transpose must use shuffles");
        assert!(report.counters.reg_sends > 0, "tile exchange must use register comm");
    }

    #[test]
    fn athread_viscosity_kernels_match_reference() {
        let cluster = CpeCluster::with_defaults();
        for which in 0..3 {
            let mut ref_data = KernelData::synth(6, 8, 0, 80 + which);
            let mut ath_data = ref_data.clone();
            match which {
                0 => {
                    reference::hypervis_dp1(&mut ref_data);
                    hypervis_dp1(&cluster, &mut ath_data);
                }
                1 => {
                    reference::hypervis_dp2(&mut ref_data);
                    hypervis_dp2(&cluster, &mut ath_data);
                }
                _ => {
                    reference::biharmonic_dp3d(&mut ref_data);
                    biharmonic_dp3d(&cluster, &mut ath_data);
                }
            }
            assert_eq!(ref_data.tend_u, ath_data.tend_u, "kernel {which} u");
            assert_eq!(ref_data.tend_t, ath_data.tend_t, "kernel {which} t");
            assert_eq!(ref_data.tend_dp, ath_data.tend_dp, "kernel {which} dp");
        }
    }
}
