//! Direct Stiffness Summation (DSS).
//!
//! Spectral elements duplicate the GLL points on shared edges and corners;
//! after computing element-local operators, the duplicated values must be
//! made continuous by mass-weighted averaging over every element sharing
//! the point. Every DSS of the step, with either kernel set — serial,
//! threaded or on a rank of a distributed run, whose off-rank sharers come
//! from [`crate::bndry`]'s messages — is the canonical-order gather
//! ([`DssGather`]). The serial scatter walk over a flat arena
//! ([`Dss::apply_flat`]) defines that order and is bitwise equal to it; no
//! step calls it. It stays as the gather tests' reference, the DSS of the
//! raw assembled operators the tests probe
//! ([`crate::hypervis::laplace_flat`]), and the frozen `benchmark/` crate's
//! `dss.apply4_ms` probe ([`Dss::apply_flat4`]).

use cubesphere::{CubedSphere, NPTS};

/// Serial DSS engine for a grid.
#[derive(Debug, Clone)]
pub struct Dss {
    nglobal: usize,
    inv_mass: Vec<f64>,
    /// Per element: global ids and spheremp, flattened.
    gids: Vec<usize>,
    spheremp: Vec<f64>,
    /// Scratch accumulator, `[nglobal]`, sized by the first walk.
    accum: Vec<f64>,
    /// Four-lane accumulator of the fused four-field walks, sized likewise.
    accum4: Vec<f64>,
}

impl Dss {
    /// Build from the grid's assembly map. The accumulators stay empty
    /// until a walk needs them: a rank's patch `Dss` is never walked.
    pub fn new(grid: &CubedSphere) -> Self {
        let mut gids = Vec::with_capacity(grid.nelem() * NPTS);
        let mut spheremp = Vec::with_capacity(grid.nelem() * NPTS);
        for el in &grid.elements {
            gids.extend_from_slice(&el.gids);
            spheremp.extend_from_slice(&el.spheremp);
        }
        Dss {
            nglobal: grid.nglobal,
            inv_mass: grid.inv_mass.clone(),
            gids,
            spheremp,
            accum: Vec::new(),
            accum4: Vec::new(),
        }
    }

    /// Assemble a field stored in one flat structure-of-arrays buffer of
    /// `[nelem][levels][NPTS]` (the [`crate::state::State`] arena layout;
    /// pass `levels = qsize * nlev` for the tracer arena). Each level
    /// accumulates element-ascending, point-ascending into a global-point
    /// accumulator, then every copy of a point reads back the same
    /// mass-weighted average. This walk's order is the canonical one
    /// [`DssGather`] reproduces bitwise. Allocation-free after the first call.
    ///
    /// # Panics
    /// If `field` is not `nelem * levels * NPTS` long: a wrong `levels`
    /// would walk the wrong stride and leave part of the field unassembled.
    pub fn apply_flat(&mut self, field: &mut [f64], levels: usize) {
        let nelem = self.gids.len() / NPTS;
        let estride = levels * NPTS;
        assert_eq!(
            field.len(),
            nelem * estride,
            "Dss::apply_flat: arena is not {nelem} elements x {levels} levels x {NPTS} points"
        );
        self.accum.resize(self.nglobal, 0.0);
        for k in 0..levels {
            for a in &mut self.accum {
                *a = 0.0;
            }
            for e in 0..nelem {
                let base = e * NPTS;
                let off = e * estride + k * NPTS;
                for p in 0..NPTS {
                    self.accum[self.gids[base + p]] += self.spheremp[base + p] * field[off + p];
                }
            }
            for e in 0..nelem {
                let base = e * NPTS;
                let off = e * estride + k * NPTS;
                for p in 0..NPTS {
                    let g = self.gids[base + p];
                    field[off + p] = self.accum[g] * self.inv_mass[g];
                }
            }
        }
    }

    /// [`Dss::apply_flat`] on four equal-shape arenas in ONE walk of the
    /// assembly map per level: the `gids`/`spheremp` loads and index
    /// arithmetic are shared across the four fields instead of re-walked
    /// per field. Each field accumulates in its own lane in the exact
    /// element-ascending, point-ascending order of the single-field walk,
    /// so the result is bitwise identical to four `apply_flat` calls.
    /// Allocation-free after the first call.
    ///
    /// # Panics
    /// If any field is not `nelem * levels * NPTS` long.
    pub fn apply_flat4(&mut self, fields: [&mut [f64]; 4], levels: usize) {
        let nelem = self.gids.len() / NPTS;
        let estride = levels * NPTS;
        let n = self.nglobal;
        let [f0, f1, f2, f3] = fields;
        assert!(
            [&f0, &f1, &f2, &f3].iter().all(|f| f.len() == nelem * estride),
            "Dss::apply_flat4: an arena is not {nelem} elements x {levels} levels x {NPTS} points"
        );
        self.accum4.resize(4 * n, 0.0);
        for k in 0..levels {
            for a in &mut self.accum4 {
                *a = 0.0;
            }
            let (a01, a23) = self.accum4.split_at_mut(2 * n);
            let (a0, a1) = a01.split_at_mut(n);
            let (a2, a3) = a23.split_at_mut(n);
            for e in 0..nelem {
                let base = e * NPTS;
                let off = e * estride + k * NPTS;
                for p in 0..NPTS {
                    let g = self.gids[base + p];
                    let w = self.spheremp[base + p];
                    a0[g] += w * f0[off + p];
                    a1[g] += w * f1[off + p];
                    a2[g] += w * f2[off + p];
                    a3[g] += w * f3[off + p];
                }
            }
            for e in 0..nelem {
                let base = e * NPTS;
                let off = e * estride + k * NPTS;
                for p in 0..NPTS {
                    let g = self.gids[base + p];
                    let m = self.inv_mass[g];
                    f0[off + p] = a0[g] * m;
                    f1[off + p] = a1[g] * m;
                    f2[off + p] = a2[g] * m;
                    f3[off + p] = a3[g] * m;
                }
            }
        }
    }

    /// Number of assembled (unique) points.
    pub fn nglobal(&self) -> usize {
        self.nglobal
    }
}

/// Most elements that can share one GLL point: four quadrilaterals meet at
/// a regular mesh vertex (three at a cube corner).
const MAX_SHARERS: usize = 4;

/// Top bit of a slot code: the sharer lives on another rank, and the low
/// bits index [`DssGather`]'s ghost table.
const GHOST: u32 = 1 << 31;

/// Per-element DSS accumulation plan: for every (element, point) it lists
/// all sharing (element, point) pairs — itself included — in the
/// *canonical* order [`Dss::apply_flat`] accumulates them
/// (element-ascending by global id, point-ascending), with their spheremp
/// weights. Summing a point's sharers in this fixed order and scaling by
/// the point's inverse mass reproduces the scatter walk bitwise, no matter
/// which worker performs the gather — which is what lets the step assemble
/// element-parallel on the scheduler ([`DssGather::gather_elem`]).
///
/// On one rank every sharer is a local element window. A rank of a
/// distributed run ([`crate::bndry::ExchangePlan`]) builds the plan over its
/// owned elements only: a sharer owned by another rank is a *ghost*, an
/// offset into that peer's receive buffer, read in place by the gather. The
/// canonical order does not depend on who owns a sharer, so every rank
/// count assembles the same bits.
///
/// The plan is stored slot-major per element ([`ElemSlots`]): slot `s` of
/// the 16 points sits in one row, so the gather walks slots outermost and
/// the points innermost, a 16-wide loop the compiler can vectorize.
#[derive(Debug, Clone, Default)]
pub struct DssGather {
    /// One slot table per element.
    elems: Vec<ElemSlots>,
    /// Ghost `g` (slot code `GHOST | g`): value `j` of the message from
    /// peer `q`, which carries `s` values per (field, level), as `[q, j, s]`.
    ghosts: Vec<[u32; 3]>,
}

/// One element's gather plan, `[MAX_SHARERS][NPTS]` slot-major.
#[derive(Debug, Clone)]
struct ElemSlots {
    /// `code[s][p]`: sharer `s` of point `p` in canonical order, as
    /// `elem * NPTS + point` for a local window or `GHOST | g` for ghost
    /// `g`. Slots at or past `n[p]` hold the point's own code, so their
    /// (discarded) read stays inside the source.
    code: [[u32; NPTS]; MAX_SHARERS],
    /// spheremp weight of each slot's sharer (0 in padded slots).
    w: [[f64; NPTS]; MAX_SHARERS],
    /// Sharer count of each point (at least 1: the point itself).
    n: [u32; NPTS],
    /// Slots the walk visits: the largest sharer count of the element.
    nslots: u32,
    /// Inverse global mass of each point.
    inv: [f64; NPTS],
    /// Whether any sharer is a ghost.
    ghosted: bool,
}

impl DssGather {
    /// Build the one-rank plan from the serial DSS assembly map: a counting
    /// sort of the (element, point) codes by global id, then each point's
    /// bucket laid out down its column of the element's slot table.
    ///
    /// # Panics
    /// Panics if the grid has more (element, point) slots than a `u32` can
    /// index, or a point shared by more than [`MAX_SHARERS`] elements (the
    /// slot tables are that deep).
    pub fn new(dss: &Dss) -> Self {
        let npoints = dss.gids.len();
        assert!(npoints < GHOST as usize, "DssGather: (element, point) codes overflow");
        // Pass 1: sharer count per gid, prefix-summed into bucket starts.
        let mut start = vec![0usize; dss.nglobal + 1];
        for &g in &dss.gids {
            start[g + 1] += 1;
        }
        for g in 0..dss.nglobal {
            start[g + 1] += start[g];
        }
        // Pass 2: drop each code into its gid's bucket. Scanning in
        // (e asc, p asc) order fills every bucket in canonical order.
        let mut fill = start.clone();
        let mut sharers = vec![0u32; npoints];
        for (code, &g) in dss.gids.iter().enumerate() {
            sharers[fill[g]] = code as u32;
            fill[g] += 1;
        }
        Self::from_rows(npoints / NPTS, Vec::new(), |own, row| {
            let g = dss.gids[own];
            row.extend(sharers[start[g]..start[g + 1]].iter().map(|&c| (c, dss.spheremp[c as usize])));
            dss.inv_mass[g]
        })
    }

    /// Build a plan over `nelem` local elements from each point's sharers:
    /// `row(own, sharers)` appends the `(code, spheremp)` pairs of local
    /// point `own = elem * NPTS + point` in canonical order — a local code
    /// below [`DssGather::ghost_code`]'s range, or `ghost_code(g)` for entry
    /// `g` of `ghosts` (`[peer, j, s]`) — and returns the point's inverse
    /// mass.
    ///
    /// # Panics
    /// Panics on a point with no sharer or more than [`MAX_SHARERS`].
    pub(crate) fn from_rows(
        nelem: usize,
        ghosts: Vec<[u32; 3]>,
        mut row: impl FnMut(usize, &mut Vec<(u32, f64)>) -> f64,
    ) -> Self {
        let mut sharers = Vec::with_capacity(MAX_SHARERS);
        let elems = (0..nelem)
            .map(|e| {
                let mut el = ElemSlots {
                    code: [[0; NPTS]; MAX_SHARERS],
                    w: [[0.0; NPTS]; MAX_SHARERS],
                    n: [0; NPTS],
                    nslots: 0,
                    inv: [0.0; NPTS],
                    ghosted: false,
                };
                for p in 0..NPTS {
                    let own = e * NPTS + p;
                    sharers.clear();
                    el.inv[p] = row(own, &mut sharers);
                    assert!(
                        (1..=MAX_SHARERS).contains(&sharers.len()),
                        "DssGather: element {e} point {p} has {} sharers (1..={MAX_SHARERS})",
                        sharers.len()
                    );
                    for s in 0..MAX_SHARERS {
                        let (c, w) = sharers.get(s).copied().unwrap_or((own as u32, 0.0));
                        el.code[s][p] = c;
                        el.w[s][p] = w;
                        el.ghosted |= c & GHOST != 0;
                    }
                    el.n[p] = sharers.len() as u32;
                }
                el.nslots = el.n.iter().copied().max().unwrap_or(0);
                el
            })
            .collect();
        DssGather { elems, ghosts }
    }

    /// The slot code of ghost table entry `g`.
    pub(crate) fn ghost_code(g: usize) -> u32 {
        assert!(g < GHOST as usize, "DssGather: ghost index {g} overflows");
        GHOST | g as u32
    }

    /// Number of elements covered.
    pub fn nelem(&self) -> usize {
        self.elems.len()
    }

    /// Whether element `e` has a sharer on another rank (and so can only
    /// be gathered once the peers' messages have landed).
    pub fn is_ghosted(&self, e: usize) -> bool {
        self.elems[e].ghosted
    }

    /// Ghost `g`'s value of field `f` at level `k` of a `levels`-deep
    /// exchange, read in place from the landed peer messages `msgs` (one
    /// per peer, laid out `(f * levels + k) * s + j`).
    #[inline]
    pub fn ghost_value(&self, msgs: &[Vec<f64>], levels: usize, f: usize, k: usize, g: usize) -> f64 {
        let [q, j, s] = self.ghosts[g].map(|x| x as usize);
        msgs[q][(f * levels + k) * s + j]
    }

    /// Length an arena must have for a `levels`-deep gather at per-element
    /// stride `stride` to stay inside it: every slot names a point of an
    /// element below [`DssGather::nelem`], so no read (or own-window write)
    /// reaches past the last element's first `levels * NPTS` values.
    pub fn span(&self, levels: usize, stride: usize) -> usize {
        self.nelem().checked_sub(1).map_or(0, |last| last * stride + levels * NPTS)
    }

    /// Assemble element `e`'s `[levels][NPTS]` window of `F` fields at once
    /// (one walk of the element's slot table per level serves every field).
    ///
    /// `read(f, i)` yields the raw (pre-DSS) value of field `f` at flat
    /// source index `i = elem * sstride + k * NPTS + point` — sharers live
    /// in *other* elements' windows, so the source must not be written
    /// during the sweep. `ghost(f, k, g)` yields ghost `g`'s raw value of
    /// field `f` at level `k` (see [`DssGather::ghost_value`]); it is only
    /// called for a ghosted element, so a one-rank caller passes
    /// [`no_ghosts`]. `out[f]` is element `e`'s own window of the
    /// destination (at least `levels * NPTS` long; it may be deeper, e.g. a
    /// full-depth state window receiving a sponge-depth Laplacian). With
    /// `coefs = None` the assembled value is stored; with `Some(c)` the
    /// window receives `out += c[f][k] * assembled` (the fused
    /// forward-Euler damping apply).
    ///
    /// Per point this is `acc = 0; acc += w_i * raw_i` over the sharers in
    /// canonical order, then `acc * inv_mass`, then the optional
    /// `out + c * (..)` — the exact operation sequence of
    /// [`Dss::apply_flat`] (plus the drivers' separate apply loop), so the
    /// result is bitwise the scatter walk's. Allocation-free.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn gather_elem<const F: usize>(
        &self,
        e: usize,
        levels: usize,
        sstride: usize,
        read: impl Fn(usize, usize) -> f64,
        ghost: impl Fn(usize, usize, usize) -> f64,
        coefs: Option<[&[f64]; F]>,
        out: &mut [&mut [f64]; F],
    ) {
        match coefs {
            None => self.assemble_elem(e, levels, sstride, read, ghost, |k, lvl: &[[f64; NPTS]; F]| {
                for f in 0..F {
                    out[f][k * NPTS..(k + 1) * NPTS].copy_from_slice(&lvl[f]);
                }
            }),
            Some(c) => self.assemble_elem(e, levels, sstride, read, ghost, |k, lvl: &[[f64; NPTS]; F]| {
                for f in 0..F {
                    let cf = c[f][k];
                    for (o, &v) in out[f][k * NPTS..(k + 1) * NPTS].iter_mut().zip(&lvl[f]) {
                        *o += cf * v;
                    }
                }
            }),
        }
    }

    /// The gather walk of [`DssGather::gather_elem`]: hands `emit` the
    /// assembled `F`-field values of element `e` one level at a time.
    ///
    /// An element with no ghost sharer walks a level slot-major: slots
    /// outermost, then the `F` fields (sharing the slot's source-index row),
    /// then the 16 points innermost, a loop the compiler vectorizes. A
    /// ghosted element walks point-major, each point over its own sharers.
    /// Either way each point adds its sharers in canonical order.
    ///
    /// A level is assembled into a fixed-size stack tile first and only then
    /// handed on, so the walk's loads (plan tables, source values) are never
    /// interleaved with stores the compiler must assume could alias them —
    /// the destination windows reach the sweeps through raw-pointer arena
    /// views.
    #[inline]
    fn assemble_elem<const F: usize>(
        &self,
        e: usize,
        levels: usize,
        sstride: usize,
        read: impl Fn(usize, usize) -> f64,
        ghost: impl Fn(usize, usize, usize) -> f64,
        mut emit: impl FnMut(usize, &[[f64; NPTS]; F]),
    ) {
        let el = &self.elems[e];
        let nslots = el.nslots as usize;
        // Level-0 source index of every local slot, hoisted out of the level
        // loop (a ghost slot's entry is its ghost index instead).
        let mut base = [[0usize; NPTS]; MAX_SHARERS];
        for (b, code) in base.iter_mut().zip(&el.code).take(nslots) {
            for (b, &c) in b.iter_mut().zip(code) {
                let c = c as usize;
                *b = if c & GHOST as usize != 0 { c ^ GHOST as usize } else { (c / NPTS) * sstride + c % NPTS };
            }
        }
        for k in 0..levels {
            let ko = k * NPTS;
            let mut acc = [[0.0; NPTS]; F];
            if !el.ghosted {
                for s in 0..nslots {
                    let (b, w) = (&base[s], &el.w[s]);
                    for (f, a) in acc.iter_mut().enumerate() {
                        let mut x = [0.0; NPTS];
                        for p in 0..NPTS {
                            x[p] = read(f, b[p] + ko);
                        }
                        for p in 0..NPTS {
                            let term = a[p] + w[p] * x[p];
                            // A point with fewer sharers keeps its
                            // accumulator through this select, never by
                            // adding a zero-weight term. For finite raw
                            // values that add would be harmless: the
                            // accumulator starts at +0.0 and x + (-x) rounds
                            // to +0.0, so it is never -0.0, and adding ±0.0
                            // to anything else returns it unchanged. But
                            // 0·NaN and 0·inf are NaN, so a padded term would
                            // change a non-finite state's bits.
                            a[p] = if (s as u32) < el.n[p] { term } else { a[p] };
                        }
                    }
                }
                for a in &mut acc {
                    for (v, &m) in a.iter_mut().zip(&el.inv) {
                        *v *= m;
                    }
                }
            } else {
                for p in 0..NPTS {
                    let mut a = [0.0; F];
                    for s in 0..el.n[p] as usize {
                        let (b, w) = (base[s][p], el.w[s][p]);
                        let is_ghost = el.code[s][p] & GHOST != 0;
                        for (f, a) in a.iter_mut().enumerate() {
                            let x = if is_ghost { ghost(f, k, b) } else { read(f, b + ko) };
                            *a += w * x;
                        }
                    }
                    for f in 0..F {
                        acc[f][p] = a[f] * el.inv[p];
                    }
                }
            }
            emit(k, &acc);
        }
    }
}

/// The `ghost` reader of a gather with no off-rank sharers (one rank):
/// never called, since no element of a one-rank plan is ghosted.
pub fn no_ghosts(_f: usize, _k: usize, _g: usize) -> f64 {
    unreachable!("a one-rank DSS gather has no ghost sharers")
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubesphere::pidx;

    #[test]
    fn dss_is_idempotent() {
        let grid = CubedSphere::new(3);
        let mut dss = Dss::new(&grid);
        let mut field: Vec<f64> = (0..grid.nelem() * NPTS)
            .map(|i| ((i / NPTS * 31 + i % NPTS * 7) % 17) as f64)
            .collect();
        dss.apply_flat(&mut field, 1);
        let once = field.clone();
        dss.apply_flat(&mut field, 1);
        for (x, y) in once.iter().zip(&field) {
            assert!((x - y).abs() < 1e-12, "{x} vs {y}");
        }
    }

    #[test]
    fn dss_preserves_continuous_fields() {
        // A field already continuous (sampled from lat/lon) is unchanged.
        let grid = CubedSphere::new(3);
        let mut dss = Dss::new(&grid);
        let mut field: Vec<f64> = grid
            .elements
            .iter()
            .flat_map(|el| el.metric.iter().map(|m| m.lat.sin() * m.lon.cos()))
            .collect();
        let before = field.clone();
        dss.apply_flat(&mut field, 1);
        for (x, y) in before.iter().zip(&field) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn dss_conserves_the_global_integral() {
        let grid = CubedSphere::new(3);
        let mut dss = Dss::new(&grid);
        let mut field: Vec<f64> = (0..grid.nelem() * NPTS)
            .map(|i| ((i / NPTS + i % NPTS) % 13) as f64 - 6.0)
            .collect();
        let integral = |f: &[f64]| {
            grid.global_integral(&f.chunks(NPTS).map(<[f64]>::to_vec).collect::<Vec<_>>())
        };
        let before = integral(&field);
        dss.apply_flat(&mut field, 1);
        let after = integral(&field);
        assert!(
            ((before - after) / before.abs().max(1.0)).abs() < 1e-12,
            "{before} vs {after}"
        );
    }

    #[test]
    fn shared_points_become_identical() {
        let grid = CubedSphere::new(2);
        let mut dss = Dss::new(&grid);
        let mut field: Vec<f64> = (0..grid.nelem() * NPTS).map(|i| (i / NPTS) as f64).collect();
        dss.apply_flat(&mut field, 1);
        // Group values by global id; all must agree.
        let mut by_gid: std::collections::HashMap<usize, f64> = Default::default();
        for (e, el) in grid.elements.iter().enumerate() {
            for p in 0..NPTS {
                let g = el.gids[p];
                let val = field[e * NPTS + p];
                if let Some(prev) = by_gid.insert(g, val) {
                    assert!((prev - val).abs() < 1e-12, "gid {g}: {prev} vs {val}");
                }
            }
        }
    }

    /// A `levels` that does not match the arena's length panics, in
    /// release builds too, instead of walking the wrong stride.
    #[test]
    #[should_panic(expected = "Dss::apply_flat: arena is not")]
    fn apply_flat_rejects_a_mismatched_level_count() {
        let grid = CubedSphere::new(2);
        let mut dss = Dss::new(&grid);
        let mut field = vec![0.0; grid.nelem() * 3 * NPTS];
        dss.apply_flat(&mut field, 2);
    }

    #[test]
    #[should_panic(expected = "Dss::apply_flat4: an arena is not")]
    fn apply_flat4_rejects_a_mismatched_level_count() {
        let grid = CubedSphere::new(2);
        let mut dss = Dss::new(&grid);
        let mut fields: [Vec<f64>; 4] = std::array::from_fn(|_| vec![0.0; grid.nelem() * 2 * NPTS]);
        let [f0, f1, f2, f3] = &mut fields;
        dss.apply_flat4([f0, f1, f2, f3], 3);
    }

    /// The fused four-field walk is bitwise four single-field walks.
    #[test]
    fn four_field_apply_matches_four_single_applies_bitwise() {
        let grid = CubedSphere::new(2);
        let mut dss = Dss::new(&grid);
        let nelem = grid.nelem();
        let nlev = 3;
        let mk = |seed: usize| -> Vec<f64> {
            (0..nelem * nlev * NPTS)
                .map(|i| ((i * 131 + seed * 17) % 97) as f64 / 7.0 - 6.5)
                .collect()
        };
        let mut single: [Vec<f64>; 4] = std::array::from_fn(mk);
        let mut fused = single.clone();
        for f in &mut single {
            dss.apply_flat(f, nlev);
        }
        let [f0, f1, f2, f3] = &mut fused;
        dss.apply_flat4([f0, f1, f2, f3], nlev);
        for (f, (a, b)) in single.iter().zip(&fused).enumerate() {
            for (i, (x, y)) in a.iter().zip(b).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "field {f} slot {i}: {x:e} vs {y:e}");
            }
        }
    }

    /// The gather plan reproduces `apply_flat` bitwise: same additions in
    /// the same canonical order, just grouped per point.
    #[test]
    fn gather_plan_is_bitwise_identical_to_apply_flat() {
        let grid = CubedSphere::new(3);
        let mut dss = Dss::new(&grid);
        let plan = DssGather::new(&dss);
        let nelem = grid.nelem();
        assert_eq!(plan.nelem(), nelem);
        let nlev = 3;
        let estride = nlev * NPTS;
        let raw: Vec<f64> = (0..nelem * estride)
            .map(|i| ((i * 131) % 97) as f64 / 7.0 - 6.5)
            .collect();
        let mut flat = raw.clone();
        dss.apply_flat(&mut flat, nlev);
        let mut got = vec![0.0; raw.len()];
        for (e, win) in got.chunks_mut(estride).enumerate() {
            plan.gather_elem(e, nlev, estride, |_, i| raw[i], no_ghosts, None, &mut [win]);
        }
        for (i, (g, w)) in got.iter().zip(&flat).enumerate() {
            assert!(g.to_bits() == w.to_bits(), "slot {i}: {g:e} vs {w:e}");
        }
    }

    /// A fresh `Dss` holds no global scratch (a rank's patch `Dss` is never
    /// walked); each walk sizes its own accumulator on first use and still
    /// equals the gather bitwise, single- and four-field.
    #[test]
    fn fresh_dss_holds_no_scratch_and_first_walk_matches_gather() {
        let grid = CubedSphere::new(3);
        let mut dss = Dss::new(&grid);
        assert_eq!((dss.accum.capacity(), dss.accum4.capacity()), (0, 0));
        let plan = DssGather::new(&dss);
        let (nlev, estride) = (2, 2 * NPTS);
        let raw: [Vec<f64>; 4] = std::array::from_fn(|f| synth(f, grid.nelem() * estride));
        let mut gathered: [Vec<f64>; 4] = std::array::from_fn(|_| vec![f64::NAN; raw[0].len()]);
        for e in 0..grid.nelem() {
            let mut it = gathered.iter_mut();
            let mut win: [&mut [f64]; 4] =
                std::array::from_fn(|_| &mut it.next().unwrap()[e * estride..(e + 1) * estride]);
            plan.gather_elem(e, nlev, estride, |f, i| raw[f][i], no_ghosts, None, &mut win);
        }
        let mut one = raw[0].clone();
        dss.apply_flat(&mut one, nlev);
        assert_eq!((dss.accum.len(), dss.accum4.capacity()), (grid.nglobal, 0));
        assert_eq!(bits(&one), bits(&gathered[0]), "first apply_flat");
        let mut four = raw.clone();
        let [f0, f1, f2, f3] = &mut four;
        dss.apply_flat4([f0, f1, f2, f3], nlev);
        assert_eq!(dss.accum4.len(), 4 * grid.nglobal);
        for f in 0..4 {
            assert_eq!(bits(&four[f]), bits(&gathered[f]), "first apply_flat4, field {f}");
        }
    }

    /// Deterministic test field: `len` values keyed by `seed`.
    fn synth(seed: usize, len: usize) -> Vec<f64> {
        (0..len).map(|i| ((i * 193 + seed * 29) % 101) as f64 / 9.0 - 5.0).collect()
    }

    /// Oracle for the gather kernel: the `F` raw fields
    /// assembled by the in-place scatter walk ([`Dss::apply_flat4`], the
    /// quartet padded by repeating fields), and `target + c[f][k] *
    /// assembled` formed by a manual loop into a `tlevels`-deep target.
    fn scatter_oracle<const F: usize>(
        dss: &mut Dss,
        raw: &[Vec<f64>; F],
        levels: usize,
        coefs: &[Vec<f64>; F],
        target: &[Vec<f64>; F],
        tlevels: usize,
    ) -> ([Vec<f64>; F], [Vec<f64>; F]) {
        let nelem = raw[0].len() / (levels * NPTS);
        let mut quad: [Vec<f64>; 4] = std::array::from_fn(|i| raw[i % F].clone());
        let [q0, q1, q2, q3] = &mut quad;
        dss.apply_flat4([q0, q1, q2, q3], levels);
        let assembled: [Vec<f64>; F] = std::array::from_fn(|f| quad[f].clone());
        let mut added = target.clone();
        for f in 0..F {
            for e in 0..nelem {
                for k in 0..levels {
                    for p in 0..NPTS {
                        added[f][(e * tlevels + k) * NPTS + p] +=
                            coefs[f][k] * assembled[f][(e * levels + k) * NPTS + p];
                    }
                }
            }
        }
        (assembled, added)
    }

    /// Run the gather kernel over every element: `src` (`sdepth` levels per
    /// element, of which the first `levels` are gathered) assembled into a
    /// fresh `levels`-deep arena set (store form) and accumulated into a
    /// copy of `target` (scaled-add form).
    fn gather_both<const F: usize>(
        plan: &DssGather,
        src: &[Vec<f64>; F],
        levels: usize,
        sdepth: usize,
        coefs: &[Vec<f64>; F],
        target: &[Vec<f64>; F],
        tlevels: usize,
    ) -> ([Vec<f64>; F], [Vec<f64>; F]) {
        let (sstride, wstride, tstride) = (sdepth * NPTS, levels * NPTS, tlevels * NPTS);
        let nelem = plan.nelem();
        let mut stored: [Vec<f64>; F] =
            std::array::from_fn(|_| vec![f64::NAN; nelem * wstride]);
        let mut added = target.clone();
        let c: [&[f64]; F] = std::array::from_fn(|f| &coefs[f][..]);
        for e in 0..nelem {
            let mut it = stored.iter_mut();
            let mut win: [&mut [f64]; F] =
                std::array::from_fn(|_| &mut it.next().unwrap()[e * wstride..(e + 1) * wstride]);
            plan.gather_elem(e, levels, sstride, |f, i| src[f][i], no_ghosts, None, &mut win);
            let mut it = added.iter_mut();
            let mut win: [&mut [f64]; F] =
                std::array::from_fn(|_| &mut it.next().unwrap()[e * tstride..(e + 1) * tstride]);
            plan.gather_elem(e, levels, sstride, |f, i| src[f][i], no_ghosts, Some(c), &mut win);
        }
        (stored, added)
    }

    /// `raw` (`levels` levels per element) re-strided to `sdepth >= levels`
    /// levels per element, the extra levels NaN: a source deeper than the
    /// gathered window, as the chunked tracer stage's chunk buffer is.
    fn deepen(raw: &[f64], levels: usize, sdepth: usize) -> Vec<f64> {
        let mut deep = Vec::with_capacity(raw.len() / levels * sdepth);
        for win in raw.chunks_exact(levels * NPTS) {
            deep.extend_from_slice(win);
            deep.resize(deep.len() + (sdepth - levels) * NPTS, f64::NAN);
        }
        deep
    }

    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    /// The gather kernel, store and scaled-add forms, is bitwise the
    /// scatter walk plus a manual `target += c * assembled` loop — for `F`
    /// fields, at every level count up to the tracer stage's 650, into a
    /// target as deep as the field and one deeper than it (the sponge
    /// shape), from a source as deep as the window and deeper than it (the
    /// tracer chunk shape).
    fn gather_kernel_matches_scatter_walk<const F: usize>() {
        let grid = CubedSphere::new(2);
        let mut dss = Dss::new(&grid);
        let plan = DssGather::new(&dss);
        let nelem = grid.nelem();
        for levels in [1usize, 2, 3, 26, 650] {
            for tlevels in [levels, levels + 2] {
                let (slen, tlen) = (nelem * levels * NPTS, nelem * tlevels * NPTS);
                let coefs: [Vec<f64>; F] = std::array::from_fn(|f| {
                    (0..levels).map(|k| (f as f64 - 1.5) * 1.0e-3 / (1 << (k % 5)) as f64).collect()
                });
                let raw: [Vec<f64>; F] = std::array::from_fn(|f| synth(f, slen));
                let target: [Vec<f64>; F] = std::array::from_fn(|f| synth(31 + f, tlen));
                let want = scatter_oracle(&mut dss, &raw, levels, &coefs, &target, tlevels);
                for sdepth in [levels, levels + 3] {
                    let deep: [Vec<f64>; F] =
                        std::array::from_fn(|f| deepen(&raw[f], levels, sdepth));
                    let shape = format!("F={F} levels={levels} sdepth={sdepth} tlevels={tlevels}");
                    let (stored, added) =
                        gather_both(&plan, &deep, levels, sdepth, &coefs, &target, tlevels);
                    for f in 0..F {
                        let tag = format!("f64 {shape} field {f}");
                        assert_eq!(bits(&want.0[f]), bits(&stored[f]), "store {tag}");
                        assert_eq!(bits(&want.1[f]), bits(&added[f]), "scaled add {tag}");
                    }
                }
            }
        }
    }

    #[test]
    fn gather_kernel_one_field_matches_scatter_walk_bitwise() {
        gather_kernel_matches_scatter_walk::<1>();
    }

    #[test]
    fn gather_kernel_three_fields_match_scatter_walk_bitwise() {
        gather_kernel_matches_scatter_walk::<3>();
    }

    #[test]
    fn gather_kernel_four_fields_match_scatter_walk_bitwise() {
        gather_kernel_matches_scatter_walk::<4>();
    }

    /// The counting-sort plan's slot tables give every point exactly the
    /// codes sharing its global id, ascending (the canonical accumulation
    /// order), down its column of slots, with their weights; padded slots
    /// hold the point's own code; and each element walks as many slots as
    /// its most-shared point needs.
    #[test]
    fn gather_slot_tables_are_canonical() {
        let grid = CubedSphere::new(3);
        let dss = Dss::new(&grid);
        let plan = DssGather::new(&dss);
        assert_eq!(plan.nelem(), grid.nelem());
        for (e, el) in plan.elems.iter().enumerate() {
            for p in 0..NPTS {
                let own = e * NPTS + p;
                let g = dss.gids[own];
                let want: Vec<u32> =
                    (0..dss.gids.len() as u32).filter(|&c| dss.gids[c as usize] == g).collect();
                let n = el.n[p] as usize;
                assert_eq!(n, want.len(), "element {e} point {p} count");
                for s in 0..MAX_SHARERS {
                    let (code, w) = (el.code[s][p], el.w[s][p]);
                    if s < n {
                        assert_eq!(code, want[s], "element {e} point {p} slot {s}");
                        assert_eq!(w, dss.spheremp[code as usize], "element {e} point {p} weight");
                    } else {
                        assert_eq!(code as usize, own, "element {e} point {p} padded slot {s}");
                    }
                }
                assert_eq!(el.inv[p], dss.inv_mass[g]);
            }
            assert_eq!(el.nslots, *el.n.iter().max().unwrap(), "element {e} slots");
        }
    }

    /// Non-finite raw values and signed zeros at interior, edge and corner
    /// points assemble to the scatter walk's bits on both walks (slot-major,
    /// and the point-major walk of a ghosted element): a padded slot never
    /// touches a point's accumulator (a zero-weight add would turn an
    /// interior or edge `inf` into NaN), and an all-`-0.0` point still
    /// assembles to `+0.0`.
    #[test]
    fn gather_keeps_non_finite_and_signed_zero_bits() {
        let grid = CubedSphere::new(2);
        let mut dss = Dss::new(&grid);
        let plan = DssGather::new(&dss);
        let nelem = grid.nelem();
        let levels = 3;
        let at = |e: usize, k: usize, p: usize| (e * levels + k) * NPTS + p;
        // The other (element, point) sharing element `e`'s point `p`.
        let partner = |e: usize, p: usize| {
            let g = dss.gids[e * NPTS + p];
            let c = (0..dss.gids.len()).find(|&c| c != e * NPTS + p && dss.gids[c] == g).unwrap();
            (c / NPTS, c % NPTS)
        };
        let (interior, edge, corner) = (5, 1, 0);
        let mut raw: [Vec<f64>; 4] = std::array::from_fn(|f| synth(f, nelem * levels * NPTS));
        for (f, x) in raw.iter_mut().enumerate() {
            let e = 3 * f;
            x[at(e, 0, interior)] = f64::INFINITY;
            x[at(e + 1, 1, interior)] = f64::NEG_INFINITY;
            x[at(e + 2, 0, interior)] = f64::NAN;
            x[at(e, 1, edge)] = f64::INFINITY;
            x[at(e + 1, 0, corner)] = f64::NAN;
            x[at(e + 2, 1, corner)] = f64::NEG_INFINITY;
            // inf + (-inf) across an edge: the one NaN the sum creates.
            let (pe, pp) = partner(e + 1, edge);
            x[at(e + 1, 1, edge)] = f64::INFINITY;
            x[at(pe, 1, pp)] = f64::NEG_INFINITY;
            // Every copy of one interior, edge and corner point at -0.0.
            for p in [interior, edge, corner] {
                let g = dss.gids[(e + 3) * NPTS + p];
                for c in (0..dss.gids.len()).filter(|&c| dss.gids[c] == g) {
                    x[at(c / NPTS, 2, c % NPTS)] = -0.0;
                }
            }
        }
        let mut want = raw.clone();
        let [w0, w1, w2, w3] = &mut want;
        dss.apply_flat4([w0, w1, w2, w3], levels);
        let coefs: [Vec<f64>; 4] = std::array::from_fn(|_| vec![1.0; levels]);
        let zeros: [Vec<f64>; 4] = std::array::from_fn(|_| vec![0.0; raw[0].len()]);
        let (stored, _) = gather_both(&plan, &raw, levels, levels, &coefs, &zeros, levels);
        for f in 0..4 {
            assert_eq!(bits(&want[f]), bits(&stored[f]), "f64 field {f}");
            let (one, c1, z1) = ([raw[f].clone()], [vec![1.0; levels]], [zeros[f].clone()]);
            let (single, _) = gather_both(&plan, &one, levels, levels, &c1, &z1, levels);
            assert_eq!(bits(&want[f]), bits(&single[0]), "f64 single field {f}");
        }
        // The point-major walk a ghosted element takes keeps the same bits:
        // a plan whose sharers in other elements are all ghosts, each read
        // in place from `raw` (ghost index = the sharer's local code).
        let ghosted = DssGather::from_rows(nelem, Vec::new(), |own, row| {
            let g = dss.gids[own];
            for c in (0..dss.gids.len()).filter(|&c| dss.gids[c] == g) {
                let code = if c / NPTS == own / NPTS { c as u32 } else { DssGather::ghost_code(c) };
                row.push((code, dss.spheremp[c]));
            }
            dss.inv_mass[g]
        });
        let wstride = levels * NPTS;
        let mut walked: [Vec<f64>; 4] = std::array::from_fn(|_| vec![f64::NAN; raw[0].len()]);
        for e in 0..nelem {
            assert!(ghosted.is_ghosted(e), "element {e} must take the point-major walk");
            let mut it = walked.iter_mut();
            let mut win: [&mut [f64]; 4] =
                std::array::from_fn(|_| &mut it.next().unwrap()[e * wstride..(e + 1) * wstride]);
            let ghost = |f: usize, k: usize, c: usize| raw[f][at(c / NPTS, k, c % NPTS)];
            ghosted.gather_elem(e, levels, wstride, |f, i| raw[f][i], ghost, None, &mut win);
        }
        for f in 0..4 {
            assert_eq!(bits(&want[f]), bits(&walked[f]), "point-major field {f}");
        }
        // The fixture really holds what it claims, so the checks above bite.
        assert!(want[0][at(0, 0, interior)] == f64::INFINITY);
        assert!(want[0][at(2, 0, interior)].is_nan());
        for p in [interior, edge, corner] {
            assert_eq!(want[0][at(3, 2, p)].to_bits(), 0.0f64.to_bits(), "point {p}");
        }
    }

    #[test]
    fn dss_makes_gradients_continuous_across_edges() {
        use crate::deriv::build_ops;
        let grid = CubedSphere::new(4);
        let ops = build_ops(&grid);
        let mut dss = Dss::new(&grid);
        // Non-polynomial field -> discontinuous element-local derivative.
        let mut gx_all: Vec<f64> = Vec::new();
        for (el, op) in grid.elements.iter().zip(&ops) {
            let s: Vec<f64> = el.metric.iter().map(|m| (3.0 * m.lat).sin()).collect();
            let mut gx = [0.0; NPTS];
            let mut gy = [0.0; NPTS];
            op.gradient_sphere(&s, &mut gx, &mut gy);
            gx_all.extend_from_slice(&gx);
        }
        dss.apply_flat(&mut gx_all, 1);
        // After DSS, every copy of a shared point agrees.
        let mut by_gid: std::collections::HashMap<usize, f64> = Default::default();
        for (e, el) in grid.elements.iter().enumerate() {
            for p in 0..NPTS {
                let g = gx_all[e * NPTS + p];
                if let Some(prev) = by_gid.insert(el.gids[p], g) {
                    assert!((prev - g).abs() < 1e-18 * 1e6);
                }
            }
        }
        let _ = pidx(0, 0);
    }
}
