//! `bndry_exchangev`: the distributed boundary exchange behind DSS.
//!
//! A rank assembles its owned elements with the same canonical-order gather
//! one rank uses for the whole grid ([`DssGather`]): every point sums its
//! sharers in global element order. A sharer that another rank owns is a
//! *ghost* — an offset into that peer's receive buffer, which the gather
//! reads in place ("fetch the data directly from receive buffer to the
//! corresponding elements", Section 7.6). What crosses the wire is therefore
//! the sender's **raw, unweighted** values, one per (boundary element,
//! point) the receiver shares, never a partial sum: a partial sum would fix
//! the order of the sender's terms inside the receiver's sum, and the result
//! would depend on the partition.
//!
//! Payload layout (version 2). For the link from rank `A` to rank `B`, `S`
//! is the list of `A`'s owned (element, point) pairs whose global point `B`
//! also touches, ordered by (global element id, point) ascending; both sides
//! derive it from the grid and the partition ([`ExchangePlan::sends`] on
//! `A`, the ghost table of `B`'s gather). An exchange of `A` arenas of `L`
//! levels sends `A * L * |S|` doubles with value index `(a * L + k) * |S| +
//! j`: arena-major, then level, then the `j`-th pair of `S`.
//!
//! Two schedules:
//!
//! * [`ExchangeMode::Original`] — HOMME's abstraction. All compute first;
//!   then, per (arena, level), the values every peer needs are copied into a
//!   unified *pack buffer*, per-peer send buffers are cut from it, and each
//!   received message is copied into that peer's *unpack buffer*. Redundant
//!   memcpys, no overlap, one message per peer per (arena, level).
//! * [`ExchangeMode::Redesigned`] — the paper's rewrite. As soon as the
//!   boundary elements are computed, receives are posted and the raw values
//!   of **all arenas and all levels** go out in one message per peer; the
//!   interior elements are computed and gathered while the messages fly
//!   (they have no ghost sharers), and the boundary gather reads each
//!   receive buffer in place. No staging copies.
//!
//! Both schedules land the same values in the same layout and gather them
//! with the same code, so both produce bit-identical DSS results — the bits
//! of the one-rank [`crate::dss::Dss::apply_flat`], at any rank count.

use crate::dss::DssGather;
use cubesphere::{CubedSphere, Partition, NPTS};
use std::collections::{BTreeSet, HashMap};
use std::ops::Range;
use swmpi::{CommError, RankCtx, RecvRequest};

/// Which exchange implementation to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExchangeMode {
    /// Unified pack/unpack buffers, no overlap.
    Original,
    /// Direct pack/unpack with compute-communication overlap.
    Redesigned,
}

/// Traffic accounting for the exchange layer: staging copies (not the MPI
/// payload itself), payload volume, and message count — the quantities the
/// paper's redesign moves.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CopyStats {
    /// Bytes copied into/out of staging buffers.
    pub staged_bytes: u64,
    /// MPI payload bytes sent.
    pub sent_bytes: u64,
    /// MPI messages sent.
    pub msgs_sent: u64,
}

/// One rank's exchange plan for a given grid + partition.
#[derive(Debug, Clone)]
pub struct ExchangePlan {
    /// This rank.
    pub rank: usize,
    /// Global element ids owned by this rank, in local order: the boundary
    /// elements first, then the interior ones (each in curve order).
    pub owned: Vec<usize>,
    /// Local indices (into `owned`) of elements with an off-rank neighbour:
    /// `0..boundary.len()`.
    pub boundary: Vec<usize>,
    /// Local indices of fully interior elements, after the boundary ones.
    pub interior: Vec<usize>,
    /// Peers, ascending, and the global-point ids shared with each (sorted;
    /// both sides derive the identical list).
    pub links: Vec<(usize, Vec<usize>)>,
    /// Per link, the local points (`li * NPTS + p`) whose raw values go into
    /// that peer's message, in message order (global element id, then
    /// point, ascending).
    pub sends: Vec<Vec<u32>>,
    /// Per link, how many values per (arena, level) that peer's message
    /// carries.
    pub recv_len: Vec<usize>,
    /// Canonical-order gather over the owned elements; a sharer owned by
    /// peer `links[q]` is a ghost into that peer's message.
    pub gather: DssGather,
}

impl ExchangePlan {
    /// Build the plan of `rank` under `part` from the owned elements and
    /// their neighbours only.
    pub fn new(grid: &CubedSphere, part: &Partition, rank: usize) -> Self {
        let off_rank = |e: usize| grid.all_neighbors[e].iter().any(|&n| part.owner[n] != rank);
        let (bnd, int): (Vec<usize>, Vec<usize>) =
            part.elems_of[rank].iter().partition(|&&e| off_rank(e));
        let owned: Vec<usize> = bnd.iter().chain(&int).copied().collect();
        let local: HashMap<usize, usize> = owned.iter().enumerate().map(|(li, &e)| (e, li)).collect();
        let touched: BTreeSet<usize> =
            owned.iter().flat_map(|&e| grid.elements[e].gids.iter().copied()).collect();
        // Every element sharing a point with this rank, in canonical
        // (global id) order: the owned ones and their neighbours.
        let near: BTreeSet<usize> =
            owned.iter().flat_map(|&e| grid.all_neighbors[e].iter().copied().chain([e])).collect();
        let peers: Vec<usize> = near
            .iter()
            .map(|&e| part.owner[e])
            .filter(|&q| q != rank)
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let link_of: HashMap<usize, usize> = peers.iter().enumerate().map(|(i, &q)| (q, i)).collect();

        // One walk in canonical order lists every touched point's sharers:
        // local windows, or the next value of the owning peer's message —
        // which the peer packs in this same (element, point) order.
        let mut rows: HashMap<usize, Vec<(u32, f64)>> = HashMap::new();
        let mut ghosts: Vec<[u32; 3]> = Vec::new();
        let mut recv_len = vec![0usize; peers.len()];
        let mut shared: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); peers.len()];
        for &e in &near {
            let el = &grid.elements[e];
            for p in 0..NPTS {
                let g = el.gids[p];
                if !touched.contains(&g) {
                    continue;
                }
                let code = match local.get(&e) {
                    Some(&li) => (li * NPTS + p) as u32,
                    None => {
                        let q = link_of[&part.owner[e]];
                        shared[q].insert(g);
                        ghosts.push([q as u32, recv_len[q] as u32, 0]);
                        recv_len[q] += 1;
                        DssGather::ghost_code(ghosts.len() - 1)
                    }
                };
                rows.entry(g).or_default().push((code, el.spheremp[p]));
            }
        }
        for gh in &mut ghosts {
            gh[2] = recv_len[gh[0] as usize] as u32;
        }
        // What each peer reads from this rank: every owned point whose
        // global point the peer touches, in the same canonical order.
        let mut sends = vec![Vec::new(); peers.len()];
        for &e in owned.iter().collect::<BTreeSet<_>>() {
            let li = local[&e];
            for (p, g) in grid.elements[e].gids.iter().enumerate() {
                for (q, gids) in shared.iter().enumerate() {
                    if gids.contains(g) {
                        sends[q].push((li * NPTS + p) as u32);
                    }
                }
            }
        }
        let gather = DssGather::from_rows(owned.len(), ghosts, |own, row| {
            let g = grid.elements[owned[own / NPTS]].gids[own % NPTS];
            row.extend_from_slice(&rows[&g]);
            grid.inv_mass[g]
        });
        let links = peers.into_iter().zip(shared).map(|(q, g)| (q, g.into_iter().collect())).collect();
        ExchangePlan {
            rank,
            boundary: (0..bnd.len()).collect(),
            interior: (bnd.len()..owned.len()).collect(),
            owned,
            links,
            sends,
            recv_len,
            gather,
        }
    }

    /// Redesigned, first half: post one receive per peer, then send each
    /// peer ONE message with the raw values it shares of every arena at
    /// every level (layout in the module docs). `read(a, i)` yields arena
    /// `a` at flat index `li * sstride + k * NPTS + p`; only boundary
    /// elements are read, so the interior may still be in the works.
    /// Allocation-free (send buffers come from the communicator pool).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn post(
        &self,
        ctx: &mut RankCtx,
        narenas: usize,
        read: impl Fn(usize, usize) -> f64,
        levels: usize,
        sstride: usize,
        tag: u64,
        bufs: &mut ExchangeBuffers,
        stats: &mut CopyStats,
    ) {
        bufs.release(ctx);
        bufs.reqs.clear();
        for (peer, _) in &self.links {
            bufs.reqs.push(ctx.comm.irecv(*peer, tag));
        }
        for ((peer, _), pts) in self.links.iter().zip(&self.sends) {
            let s = pts.len();
            let mut msg = ctx.comm.take_buffer(narenas * levels * s);
            for (r, row) in msg.chunks_exact_mut(s).enumerate() {
                let (a, ko) = (r / levels, r % levels * NPTS);
                for (x, &c) in row.iter_mut().zip(pts) {
                    let c = c as usize;
                    *x = read(a, c / NPTS * sstride + ko + c % NPTS);
                }
            }
            stats.sent_bytes += (msg.len() * 8) as u64;
            stats.msgs_sent += 1;
            ctx.comm.send_owned(*peer, tag, msg);
        }
    }

    /// Redesigned, second half: wait for the receives `ExchangePlan::post`
    /// posted. The messages land in `bufs`, where the gather reads them in
    /// place; `ExchangeBuffers::release` hands them back afterwards.
    pub(crate) fn wait(&self, ctx: &mut RankCtx, bufs: &mut ExchangeBuffers) -> Result<(), CommError> {
        debug_assert_eq!(bufs.reqs.len(), self.links.len());
        let ExchangeBuffers { reqs, landed, .. } = bufs;
        for req in reqs.drain(..) {
            landed.push(ctx.comm.wait(req)?.data);
        }
        Ok(())
    }

    /// The legacy exchange, once every element is computed: per (arena,
    /// level), copy what each peer needs into the unified pack buffer, cut
    /// one send buffer per peer from it, and copy each received message into
    /// that peer's unpack buffer. Round `(a, k)` uses tag
    /// `tag + a * levels + k`. The unpack buffers land in `bufs` in the
    /// layout of `ExchangePlan::post`'s messages, so the gather that
    /// follows is the same code.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn exchange_staged(
        &self,
        ctx: &mut RankCtx,
        narenas: usize,
        read: impl Fn(usize, usize) -> f64,
        levels: usize,
        sstride: usize,
        tag: u64,
        bufs: &mut ExchangeBuffers,
        stats: &mut CopyStats,
    ) -> Result<(), CommError> {
        bufs.release(ctx);
        let ExchangeBuffers { reqs, landed, pack, .. } = bufs;
        for &s in &self.recv_len {
            landed.push(ctx.comm.take_buffer(narenas * levels * s));
        }
        for r in 0..narenas * levels {
            let (a, ko) = (r / levels, r % levels * NPTS);
            let tag = tag + r as u64;
            reqs.clear();
            for (peer, _) in &self.links {
                reqs.push(ctx.comm.irecv(*peer, tag));
            }
            // Copy 1: every value any peer needs, into the pack buffer.
            pack.clear();
            for pts in &self.sends {
                pack.extend(pts.iter().map(|&c| {
                    let c = c as usize;
                    read(a, c / NPTS * sstride + ko + c % NPTS)
                }));
            }
            stats.staged_bytes += (pack.len() * 8) as u64;
            // Copy 2: each peer's send buffer, cut from the pack buffer.
            let mut off = 0;
            for ((peer, _), pts) in self.links.iter().zip(&self.sends) {
                let mut msg = ctx.comm.take_buffer(pts.len());
                msg.copy_from_slice(&pack[off..off + pts.len()]);
                off += pts.len();
                stats.staged_bytes += (msg.len() * 8) as u64;
                stats.sent_bytes += (msg.len() * 8) as u64;
                stats.msgs_sent += 1;
                ctx.comm.send_owned(*peer, tag, msg);
            }
            // Copy 3: each received message, into its unpack buffer.
            for (req, unpack) in reqs.drain(..).zip(landed.iter_mut()) {
                let m = ctx.comm.wait(req)?;
                let s = m.data.len();
                unpack[r * s..(r + 1) * s].copy_from_slice(&m.data);
                stats.staged_bytes += (s * 8) as u64;
                ctx.comm.recycle(m.data);
            }
        }
        Ok(())
    }

    /// Gather every owned element's `levels`-deep window of `arena` in place,
    /// its ghosts read from arena `a` of the landed messages.
    fn gather_in_place(&self, bufs: &mut ExchangeBuffers, arena: &mut [f64], a: usize, levels: usize) {
        let fl = levels * NPTS;
        let ExchangeBuffers { landed, raw, .. } = bufs;
        raw.clear();
        raw.extend_from_slice(arena);
        let ghost = |_: usize, k: usize, g: usize| self.gather.ghost_value(landed, levels, a, k, g);
        for (e, win) in arena.chunks_exact_mut(fl).enumerate() {
            self.gather.gather_elem(e, levels, fl, |_, i| raw[i], ghost, None, &mut [win]);
        }
    }

    /// Distributed DSS of one level across ranks. `fields[li]` holds the 16
    /// nodal values of owned element `li`. `interior_work` runs while
    /// messages are in flight in `Redesigned` mode (and before any
    /// communication in `Original` mode, i.e. without overlap).
    pub fn dss_level(
        &self,
        ctx: &mut RankCtx,
        fields: &mut [Vec<f64>],
        mode: ExchangeMode,
        tag: u64,
        mut interior_work: impl FnMut(),
        stats: &mut CopyStats,
    ) -> Result<(), CommError> {
        assert_eq!(fields.len(), self.owned.len());
        let mut bufs = ExchangeBuffers::new();
        let mut flat: Vec<f64> = fields.iter().flatten().copied().collect();
        let read = |_: usize, i: usize| flat[i];
        match mode {
            ExchangeMode::Redesigned => {
                self.post(ctx, 1, read, 1, NPTS, tag, &mut bufs, stats);
                interior_work();
                self.wait(ctx, &mut bufs)?;
            }
            ExchangeMode::Original => {
                interior_work();
                self.exchange_staged(ctx, 1, read, 1, NPTS, tag, &mut bufs, stats)?;
            }
        }
        self.gather_in_place(&mut bufs, &mut flat, 0, 1);
        bufs.release(ctx);
        for (f, x) in fields.iter_mut().zip(flat.chunks_exact(NPTS)) {
            f.copy_from_slice(x);
        }
        Ok(())
    }

    /// One-shot aggregated DSS over several arenas, in place: one message
    /// per peer for all arenas and levels (`ExchangePlan::post`), then the
    /// gather of each arena. For callers with nothing to overlap; the step
    /// itself exchanges through the stage loop's `Halo`.
    pub fn dss_aggregated(
        &self,
        ctx: &mut RankCtx,
        arenas: &mut [&mut [f64]],
        nlev: usize,
        tag: u64,
        bufs: &mut ExchangeBuffers,
        stats: &mut CopyStats,
    ) -> Result<(), CommError> {
        let fl = nlev * NPTS;
        self.post(ctx, arenas.len(), |a, i| arenas[a][i], nlev, fl, tag, bufs, stats);
        self.wait(ctx, bufs)?;
        for (a, arena) in arenas.iter_mut().enumerate() {
            self.gather_in_place(bufs, arena, a, nlev);
        }
        bufs.release(ctx);
        Ok(())
    }
}

/// Persistent buffers of one rank's exchanges. Grow-only: after the first
/// (largest) exchange every later one reuses the storage, so the hot path
/// performs zero heap allocations. The landed messages are the
/// communicator's pooled payload buffers, handed back after each gather.
#[derive(Debug, Default)]
pub struct ExchangeBuffers {
    /// Receives posted by `ExchangePlan::post`, one per peer.
    reqs: Vec<RecvRequest>,
    /// The messages (Redesigned) or unpack buffers (Original) of the
    /// current exchange, one per peer in link order.
    landed: Vec<Vec<f64>>,
    /// Original: the unified pack buffer of one (arena, level).
    pack: Vec<f64>,
    /// One-shot DSS: the raw copy of the arena being gathered in place.
    raw: Vec<f64>,
}

impl ExchangeBuffers {
    /// Empty buffers; storage grows on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The landed messages, one per peer in link order.
    pub(crate) fn landed(&self) -> &[Vec<f64>] {
        &self.landed
    }

    /// Hand the landed messages back to the communicator's pool.
    pub(crate) fn release(&mut self, ctx: &mut RankCtx) {
        for m in self.landed.drain(..) {
            ctx.comm.recycle(m);
        }
    }
}

/// Where a step's DSS gathers find the sharers other ranks own — the one
/// seam between the serial and the distributed step
/// ([`crate::prim::Dycore`]'s stage loop runs on either).
pub(crate) enum Halo<'a> {
    /// One rank owns every element: nothing to exchange.
    Serial,
    /// One rank of a distributed run.
    Rank(RankHalo<'a>),
}

/// The exchange state a rank's stage loop borrows from its driver.
pub(crate) struct RankHalo<'a> {
    pub ctx: &'a mut RankCtx,
    pub plan: &'a ExchangePlan,
    pub mode: ExchangeMode,
    pub bufs: &'a mut ExchangeBuffers,
    pub stats: &'a mut CopyStats,
    /// The last message tag used (each exchange takes the next ones).
    pub tag: &'a mut u64,
}

impl Halo<'_> {
    /// The local elements to compute before and after [`Halo::send`]:
    /// (boundary, interior). One rank has no boundary.
    pub fn split(&self, nelem: usize) -> (Range<usize>, Range<usize>) {
        match self {
            Halo::Serial => (0..0, 0..nelem),
            Halo::Rank(h) => (0..h.plan.boundary.len(), h.plan.boundary.len()..nelem),
        }
    }

    /// The boundary elements of `src` are computed: the redesigned schedule
    /// sends them now, one message per peer. (The original schedule sends
    /// once everything is computed, in [`Halo::land`].)
    pub fn send<const F: usize>(&mut self, src: [&[f64]; F], levels: usize, sstride: usize) {
        if let Halo::Rank(h) = self {
            if h.mode == ExchangeMode::Redesigned {
                *h.tag += 1;
                let read = |a: usize, i: usize| src[a][i];
                h.plan.post(h.ctx, F, read, levels, sstride, *h.tag, h.bufs, h.stats);
            }
        }
    }

    /// Every element of `src` is computed: the original schedule runs its
    /// staged exchange now.
    pub fn land<const F: usize>(
        &mut self,
        src: [&[f64]; F],
        levels: usize,
        sstride: usize,
    ) -> Result<(), CommError> {
        match self {
            Halo::Rank(h) if h.mode == ExchangeMode::Original => {
                let first = *h.tag + 1;
                *h.tag += (F * levels) as u64;
                let read = |a: usize, i: usize| src[a][i];
                h.plan.exchange_staged(h.ctx, F, read, levels, sstride, first, h.bufs, h.stats)
            }
            _ => Ok(()),
        }
    }

    /// The interior is gathered: wait for the redesigned schedule's
    /// messages.
    pub fn wait(&mut self) -> Result<(), CommError> {
        match self {
            Halo::Rank(h) if h.mode == ExchangeMode::Redesigned => h.plan.wait(h.ctx, h.bufs),
            _ => Ok(()),
        }
    }

    /// The landed messages the boundary gather reads its ghosts from.
    pub fn landed(&self) -> &[Vec<f64>] {
        match self {
            Halo::Serial => &[],
            Halo::Rank(h) => h.bufs.landed(),
        }
    }

    /// The boundary is gathered: hand the messages back to the pool.
    pub fn release(&mut self) {
        if let Halo::Rank(h) = self {
            h.bufs.release(h.ctx);
        }
    }

    /// Whether this is the one-rank halo.
    pub fn is_serial(&self) -> bool {
        matches!(self, Halo::Serial)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dss::Dss;
    use swmpi::run_ranks;

    fn test_field(e: usize, p: usize) -> f64 {
        ((e * 37 + p * 11) % 23) as f64 - 11.0
    }

    fn serial_reference(grid: &CubedSphere) -> Vec<Vec<f64>> {
        let mut field: Vec<f64> =
            (0..grid.nelem() * NPTS).map(|i| test_field(i / NPTS, i % NPTS)).collect();
        Dss::new(grid).apply_flat(&mut field, 1);
        field.chunks(NPTS).map(<[f64]>::to_vec).collect()
    }

    fn run_distributed(mode: ExchangeMode, nranks: usize) -> (Vec<Vec<f64>>, CopyStats) {
        let grid = CubedSphere::new(4);
        let part = Partition::new(&grid, nranks);
        let plans: Vec<ExchangePlan> =
            (0..nranks).map(|r| ExchangePlan::new(&grid, &part, r)).collect();
        let results = run_ranks(nranks, |ctx| {
            let plan = &plans[ctx.rank()];
            let mut fields: Vec<Vec<f64>> = plan
                .owned
                .iter()
                .map(|&e| (0..NPTS).map(|p| test_field(e, p)).collect())
                .collect();
            let mut stats = CopyStats::default();
            plan.dss_level(ctx, &mut fields, mode, 0, || {}, &mut stats).expect("dss_level");
            assert_eq!(ctx.comm.unmatched(), 0, "orphaned messages on rank {}", ctx.rank());
            (plan.owned.clone(), fields, stats)
        });
        let mut gathered = vec![Vec::new(); 6 * 4 * 4];
        let mut total = CopyStats::default();
        for (owned, fields, stats) in results {
            for (e, f) in owned.into_iter().zip(fields) {
                gathered[e] = f;
            }
            total.staged_bytes += stats.staged_bytes;
            total.sent_bytes += stats.sent_bytes;
            total.msgs_sent += stats.msgs_sent;
        }
        (gathered, total)
    }

    #[test]
    fn both_modes_match_serial_dss() {
        let grid = CubedSphere::new(4);
        let reference = serial_reference(&grid);
        for mode in [ExchangeMode::Original, ExchangeMode::Redesigned] {
            for nranks in [2usize, 6] {
                let (got, _) = run_distributed(mode, nranks);
                for (e, (g, r)) in got.iter().zip(&reference).enumerate() {
                    for p in 0..NPTS {
                        assert_eq!(
                            g[p].to_bits(),
                            r[p].to_bits(),
                            "{mode:?} nranks={nranks} elem {e} pt {p}: {} vs {}",
                            g[p],
                            r[p]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn redesign_eliminates_staging_copies() {
        let (_, orig) = run_distributed(ExchangeMode::Original, 6);
        let (_, redesigned) = run_distributed(ExchangeMode::Redesigned, 6);
        assert_eq!(orig.sent_bytes, redesigned.sent_bytes, "same payload");
        assert!(orig.staged_bytes > 2 * orig.sent_bytes, "legacy path stages heavily");
        assert_eq!(redesigned.staged_bytes, 0, "redesign copies nothing extra");
    }

    #[test]
    fn overlap_runs_interior_work_between_send_and_wait() {
        // In Redesigned mode the interior closure runs after sends are
        // posted; we verify it executes (and the exchange still completes)
        // even when the interior work is substantial on every rank.
        let grid = CubedSphere::new(4);
        let nranks = 4;
        let part = Partition::new(&grid, nranks);
        let plans: Vec<ExchangePlan> =
            (0..nranks).map(|r| ExchangePlan::new(&grid, &part, r)).collect();
        let sums = run_ranks(nranks, |ctx| {
            let plan = &plans[ctx.rank()];
            let mut fields: Vec<Vec<f64>> =
                plan.owned.iter().map(|_| vec![1.0; NPTS]).collect();
            let mut stats = CopyStats::default();
            let mut interior_ran = 0u64;
            plan.dss_level(
                ctx,
                &mut fields,
                ExchangeMode::Redesigned,
                7,
                || {
                    interior_ran = (0..20_000u64).map(|i| i % 7).sum();
                },
                &mut stats,
            )
            .expect("dss_level");
            assert_eq!(ctx.comm.unmatched(), 0, "orphaned messages on rank {}", ctx.rank());
            interior_ran
        });
        for s in sums {
            assert!(s > 0, "interior work did not run");
        }
    }

    /// Distinct multi-level test data per (arena, element, level, point).
    fn test_arena_value(a: usize, e: usize, k: usize, p: usize) -> f64 {
        ((a * 53 + e * 37 + k * 19 + p * 11) % 29) as f64 - 14.0
    }

    #[test]
    fn aggregated_exchange_matches_serial_dss() {
        let nlev = 3;
        let narenas = 2;
        let grid = CubedSphere::new(4);
        let nelem = grid.nelem();

        // Serial reference: flat global arenas through Dss::apply_flat.
        let mut dss = Dss::new(&grid);
        let mut reference: Vec<Vec<f64>> = (0..narenas)
            .map(|a| {
                let mut arena = vec![0.0; nelem * nlev * NPTS];
                for e in 0..nelem {
                    for k in 0..nlev {
                        for p in 0..NPTS {
                            arena[(e * nlev + k) * NPTS + p] = test_arena_value(a, e, k, p);
                        }
                    }
                }
                arena
            })
            .collect();
        for arena in &mut reference {
            dss.apply_flat(arena, nlev);
        }

        for nranks in [2usize, 5] {
            let part = Partition::new(&grid, nranks);
            let plans: Vec<ExchangePlan> =
                (0..nranks).map(|r| ExchangePlan::new(&grid, &part, r)).collect();
            let results = run_ranks(nranks, |ctx| {
                let plan = &plans[ctx.rank()];
                let mut arenas: Vec<Vec<f64>> = (0..narenas)
                    .map(|a| {
                        let mut arena = vec![0.0; plan.owned.len() * nlev * NPTS];
                        for (li, &e) in plan.owned.iter().enumerate() {
                            for k in 0..nlev {
                                for p in 0..NPTS {
                                    arena[(li * nlev + k) * NPTS + p] =
                                        test_arena_value(a, e, k, p);
                                }
                            }
                        }
                        arena
                    })
                    .collect();
                let mut bufs = ExchangeBuffers::new();
                let mut stats = CopyStats::default();
                {
                    let mut views: Vec<&mut [f64]> =
                        arenas.iter_mut().map(|a| &mut a[..]).collect();
                    plan.dss_aggregated(ctx, &mut views, nlev, 1, &mut bufs, &mut stats).expect("dss");
                }
                assert_eq!(ctx.comm.unmatched(), 0, "orphaned messages on rank {}", ctx.rank());
                // Exactly one message per peer for the whole multi-arena,
                // multi-level exchange.
                assert_eq!(stats.msgs_sent, plan.links.len() as u64);
                assert_eq!(ctx.comm.stats().sends, plan.links.len() as u64);
                assert_eq!(stats.staged_bytes, 0);
                (plan.owned.clone(), arenas)
            });
            for (owned, arenas) in results {
                for (li, &e) in owned.iter().enumerate() {
                    for (a, arena) in arenas.iter().enumerate() {
                        for k in 0..nlev {
                            for p in 0..NPTS {
                                let got = arena[(li * nlev + k) * NPTS + p];
                                let want = reference[a][(e * nlev + k) * NPTS + p];
                                assert!(
                                    (got - want).abs() < 1e-11,
                                    "nranks={nranks} arena {a} elem {e} lev {k} pt {p}: \
                                     {got} vs {want}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn one_buffer_set_serves_interleaved_shapes() {
        // A step drives one `ExchangeBuffers` through exchanges of
        // different (arenas, levels) shapes — and the shape sets the length
        // of every landed message, of the original schedule's pack and
        // unpack buffers and of the in-place gather's raw copy. Walk the
        // shapes of a real step, widest first and widest again last,
        // through one buffer set, both schedules: every result must be
        // bitwise what a fresh buffer set gives (nothing left over from the
        // previous shape is read) and within the usual bound of the serial
        // DSS.
        let shapes = [(4usize, 26usize), (3, 3), (1, 104), (4, 26)];
        let grid = CubedSphere::new(4);
        let nelem = grid.nelem();
        let mut dss = Dss::new(&grid);
        let fill = |owned: &[usize], a: usize, nlev: usize| {
            let mut arena = vec![0.0; owned.len() * nlev * NPTS];
            for (li, &e) in owned.iter().enumerate() {
                for k in 0..nlev {
                    for p in 0..NPTS {
                        arena[(li * nlev + k) * NPTS + p] = test_arena_value(a, e, k, p);
                    }
                }
            }
            arena
        };
        let all: Vec<usize> = (0..nelem).collect();

        for nranks in [2usize, 3] {
            let part = Partition::new(&grid, nranks);
            let plans: Vec<ExchangePlan> =
                (0..nranks).map(|r| ExchangePlan::new(&grid, &part, r)).collect();
            let results = run_ranks(nranks, |ctx| {
                let plan = &plans[ctx.rank()];
                let mut reused = ExchangeBuffers::new();
                let mut stats = CopyStats::default();
                let mut out = Vec::new();
                for (i, &(narenas, nlev)) in shapes.iter().enumerate() {
                    let raw: Vec<Vec<f64>> =
                        (0..narenas).map(|a| fill(&plan.owned, a, nlev)).collect();
                    let mut run = |bufs: &mut ExchangeBuffers, tag: u64| {
                        let mut arenas = raw.clone();
                        let mut views: Vec<&mut [f64]> =
                            arenas.iter_mut().map(|a| &mut a[..]).collect();
                        plan.dss_aggregated(ctx, &mut views, nlev, tag, bufs, &mut stats)
                            .expect("dss");
                        arenas
                    };
                    let got = run(&mut reused, 2 * i as u64);
                    let fresh = run(&mut ExchangeBuffers::new(), 2 * i as u64 + 1);
                    for (g, f) in got.iter().flatten().zip(fresh.iter().flatten()) {
                        assert_eq!(g.to_bits(), f.to_bits(), "shape {i} on rank {}", ctx.rank());
                    }
                    // The original schedule's unpack buffers land the same
                    // values through the reused pack buffer.
                    let fl = nlev * NPTS;
                    let mut staged = |bufs: &mut ExchangeBuffers, tag: u64| {
                        let read = |a: usize, i: usize| raw[a][i];
                        plan.exchange_staged(ctx, narenas, read, nlev, fl, tag, bufs, &mut stats)
                            .expect("staged");
                        let landed = bufs.landed().to_vec();
                        bufs.release(ctx);
                        landed
                    };
                    let tags = 1000 * (i as u64 + 1);
                    let got_staged = staged(&mut reused, tags);
                    let fresh_staged = staged(&mut ExchangeBuffers::new(), tags + 500);
                    assert_eq!(got_staged, fresh_staged, "staged shape {i} on rank {}", ctx.rank());
                    out.push(got);
                }
                assert_eq!(ctx.comm.unmatched(), 0, "orphaned messages on rank {}", ctx.rank());
                (plan.owned.clone(), out)
            });
            for (i, &(narenas, nlev)) in shapes.iter().enumerate() {
                let reference: Vec<Vec<f64>> = (0..narenas)
                    .map(|a| {
                        let mut arena = fill(&all, a, nlev);
                        dss.apply_flat(&mut arena, nlev);
                        arena
                    })
                    .collect();
                for (owned, out) in &results {
                    for (li, &e) in owned.iter().enumerate() {
                        for a in 0..narenas {
                            let got = &out[i][a][li * nlev * NPTS..][..nlev * NPTS];
                            let want = &reference[a][e * nlev * NPTS..][..nlev * NPTS];
                            for (g, w) in got.iter().zip(want) {
                                assert!(
                                    (g - w).abs() < 1e-11,
                                    "nranks={nranks} shape {i} arena {a} elem {e}: {g} vs {w}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn aggregated_overlap_interior_between_start_and_finish() {
        // `post` sees only boundary data; interior values are filled in
        // while messages are in flight. The DSS result must be the serial
        // one because peers read boundary elements only.
        let nlev = 2;
        let grid = CubedSphere::new(4);
        let nranks = 4;
        let part = Partition::new(&grid, nranks);
        let plans: Vec<ExchangePlan> =
            (0..nranks).map(|r| ExchangePlan::new(&grid, &part, r)).collect();
        let results = run_ranks(nranks, |ctx| {
            let plan = &plans[ctx.rank()];
            let fill = |arena: &mut [f64], lis: &[usize]| {
                for &li in lis {
                    let e = plan.owned[li];
                    for k in 0..nlev {
                        for p in 0..NPTS {
                            arena[(li * nlev + k) * NPTS + p] = test_arena_value(0, e, k, p);
                        }
                    }
                }
            };
            let mut bufs = ExchangeBuffers::new();
            let mut stats = CopyStats::default();
            let mut arena = vec![f64::NAN; plan.owned.len() * nlev * NPTS];
            fill(&mut arena, &plan.boundary);
            let read = |_: usize, i: usize| arena[i];
            plan.post(ctx, 1, read, nlev, nlev * NPTS, 3, &mut bufs, &mut stats);
            // "Interior compute" while messages fly.
            fill(&mut arena, &plan.interior);
            plan.wait(ctx, &mut bufs).expect("wait");
            plan.gather_in_place(&mut bufs, &mut arena, 0, nlev);
            bufs.release(ctx);
            assert_eq!(ctx.comm.unmatched(), 0, "orphaned messages on rank {}", ctx.rank());
            (plan.owned.clone(), arena)
        });

        // Against the one-shot aggregated path on a single rank world view:
        // recompute the serial reference.
        let mut dss = Dss::new(&grid);
        let mut reference = vec![0.0; grid.nelem() * nlev * NPTS];
        for e in 0..grid.nelem() {
            for k in 0..nlev {
                for p in 0..NPTS {
                    reference[(e * nlev + k) * NPTS + p] = test_arena_value(0, e, k, p);
                }
            }
        }
        dss.apply_flat(&mut reference, nlev);
        for (owned, arena) in results {
            for (li, &e) in owned.iter().enumerate() {
                for i in 0..nlev * NPTS {
                    let got = arena[li * nlev * NPTS + i];
                    let want = reference[e * nlev * NPTS + i];
                    assert!((got - want).abs() < 1e-11, "elem {e} idx {i}: {got} vs {want}");
                }
            }
        }
    }

    #[test]
    fn boundary_interior_split_covers_all_elements() {
        let grid = CubedSphere::new(4);
        let part = Partition::new(&grid, 6);
        for r in 0..6 {
            let plan = ExchangePlan::new(&grid, &part, r);
            assert_eq!(plan.boundary.len() + plan.interior.len(), plan.owned.len());
            assert!(!plan.boundary.is_empty());
            // Links are symmetric: each peer lists us too.
            for (peer, gids) in &plan.links {
                let peer_plan = ExchangePlan::new(&grid, &part, *peer);
                let back = peer_plan
                    .links
                    .iter()
                    .find(|(p, _)| *p == r)
                    .expect("peer link missing");
                assert_eq!(&back.1, gids, "gid lists must agree for message layout");
                // What one side sends is what the other side's ghosts read.
                let q = plan.links.iter().position(|(p, _)| p == peer).unwrap();
                let back_q = peer_plan.links.iter().position(|(p, _)| *p == r).unwrap();
                assert_eq!(plan.sends[q].len(), peer_plan.recv_len[back_q], "payload width");
            }
        }
    }
}
