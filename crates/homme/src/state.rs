//! Prognostic state of the dynamical core, stored as a flat
//! structure-of-arrays arena.
//!
//! Per element, per layer, per GLL point: horizontal velocity `(u, v)`
//! (physical east/north components, m/s), temperature `T` (K), layer
//! pressure thickness `dp3d` (Pa, the vertically-Lagrangian prognostic),
//! and tracer mass `qdp = q * dp3d` (Pa kg/kg).
//!
//! Each field lives in ONE contiguous buffer covering every element:
//!
//! - 3-D fields: `[nelem][nlev][NPTS]`, flat index `(e*nlev + k)*NPTS + p`
//! - tracers:    `[nelem][qsize][nlev][NPTS]`,
//!   flat index `((e*qsize + q)*nlev + k)*NPTS + p`
//! - surface geopotential: `[nelem][NPTS]`, flat index `e*NPTS + p`
//!
//! This is the same `(e, k, p)` convention `kernels::KernelData` uses, so
//! dycore state can be handed to kernel variants without repacking. The 16
//! GLL values of one level stay contiguous — horizontal operators work on
//! 16-point slices, vertical scans stride by `NPTS` (the axis switch whose
//! cost motivates the paper's shuffle transposition, Section 7.5).
//!
//! Per-element access goes through [`ElemRef`]/[`ElemMut`] views whose
//! fields are plain slices indexed exactly like the old per-element
//! `Vec<f64>`s (`dims.at(k, p)` / `dims.atq(q, k, p)`), so inner loops are
//! unchanged by the arena layout.

use cubesphere::NPTS;

/// Problem dimensions shared by all state containers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dims {
    /// Vertical layers.
    pub nlev: usize,
    /// Number of advected tracers.
    pub qsize: usize,
}

impl Dims {
    /// Values per 3-D field per element.
    #[inline]
    pub fn field_len(&self) -> usize {
        self.nlev * NPTS
    }

    /// Values per tracer field per element.
    #[inline]
    pub fn tracer_len(&self) -> usize {
        self.qsize * self.nlev * NPTS
    }

    /// Flat index of `(k, p)` within one element's field.
    #[inline]
    pub fn at(&self, k: usize, p: usize) -> usize {
        debug_assert!(k < self.nlev && p < NPTS);
        k * NPTS + p
    }

    /// Flat index of `(q, k, p)` within one element's tracer block.
    #[inline]
    pub fn atq(&self, q: usize, k: usize, p: usize) -> usize {
        debug_assert!(q < self.qsize);
        (q * self.nlev + k) * NPTS + p
    }
}

/// Read-only view of one element's fields. Slice lengths: `u`/`v`/`t`/
/// `dp3d` are `nlev*NPTS`, `qdp` is `qsize*nlev*NPTS`, `phis` is `NPTS`.
#[derive(Debug, Clone, Copy)]
pub struct ElemRef<'a> {
    /// Eastward wind, `[nlev][NPTS]`.
    pub u: &'a [f64],
    /// Northward wind, `[nlev][NPTS]`.
    pub v: &'a [f64],
    /// Temperature, `[nlev][NPTS]`.
    pub t: &'a [f64],
    /// Layer pressure thickness, `[nlev][NPTS]`.
    pub dp3d: &'a [f64],
    /// Tracer mass, `[qsize][nlev][NPTS]`.
    pub qdp: &'a [f64],
    /// Surface geopotential (fixed), `[NPTS]`.
    pub phis: &'a [f64],
}

impl<'a> ElemRef<'a> {
    /// Diagnostic surface pressure: `ptop + sum_k dp3d`.
    pub fn surface_pressure(&self, dims: Dims, ptop: f64, p: usize) -> f64 {
        let mut ps = ptop;
        for k in 0..dims.nlev {
            ps += self.dp3d[dims.at(k, p)];
        }
        ps
    }
}

/// Mutable view of one element's fields; same layout as [`ElemRef`].
#[derive(Debug)]
pub struct ElemMut<'a> {
    /// Eastward wind, `[nlev][NPTS]`.
    pub u: &'a mut [f64],
    /// Northward wind, `[nlev][NPTS]`.
    pub v: &'a mut [f64],
    /// Temperature, `[nlev][NPTS]`.
    pub t: &'a mut [f64],
    /// Layer pressure thickness, `[nlev][NPTS]`.
    pub dp3d: &'a mut [f64],
    /// Tracer mass, `[qsize][nlev][NPTS]`.
    pub qdp: &'a mut [f64],
    /// Surface geopotential (fixed), `[NPTS]`.
    pub phis: &'a mut [f64],
}

impl<'a> ElemMut<'a> {
    /// Reborrow as a read-only view.
    pub fn as_ref(&self) -> ElemRef<'_> {
        ElemRef {
            u: self.u,
            v: self.v,
            t: self.t,
            dp3d: self.dp3d,
            qdp: self.qdp,
            phis: self.phis,
        }
    }
}

/// The whole (local) model state: one contiguous buffer per field,
/// spanning all elements (structure-of-arrays arena).
#[derive(Debug, Clone, PartialEq)]
pub struct State {
    /// Shared dimensions.
    pub dims: Dims,
    nelem: usize,
    /// Eastward wind arena, `[nelem][nlev][NPTS]`.
    pub u: Vec<f64>,
    /// Northward wind arena, `[nelem][nlev][NPTS]`.
    pub v: Vec<f64>,
    /// Temperature arena, `[nelem][nlev][NPTS]`.
    pub t: Vec<f64>,
    /// Layer pressure thickness arena, `[nelem][nlev][NPTS]`.
    pub dp3d: Vec<f64>,
    /// Tracer mass arena, `[nelem][qsize][nlev][NPTS]`.
    pub qdp: Vec<f64>,
    /// Surface geopotential arena (fixed), `[nelem][NPTS]`.
    pub phis: Vec<f64>,
}

impl State {
    /// Zero state for `nelem` elements.
    pub fn zeros(dims: Dims, nelem: usize) -> Self {
        let n = nelem * dims.field_len();
        State {
            dims,
            nelem,
            u: vec![0.0; n],
            v: vec![0.0; n],
            t: vec![0.0; n],
            dp3d: vec![0.0; n],
            qdp: vec![0.0; nelem * dims.tracer_len()],
            phis: vec![0.0; nelem * NPTS],
        }
    }

    /// Number of elements in the arena.
    #[inline]
    pub fn nelem(&self) -> usize {
        self.nelem
    }

    /// Arena-global flat index of `(e, k, p)` in a 3-D field.
    #[inline]
    pub fn at(&self, e: usize, k: usize, p: usize) -> usize {
        debug_assert!(e < self.nelem);
        e * self.dims.field_len() + self.dims.at(k, p)
    }

    /// Arena-global flat index of `(e, q, k, p)` in the tracer arena.
    #[inline]
    pub fn atq(&self, e: usize, q: usize, k: usize, p: usize) -> usize {
        debug_assert!(e < self.nelem);
        e * self.dims.tracer_len() + self.dims.atq(q, k, p)
    }

    /// Read-only view of element `e`.
    #[inline]
    pub fn elem(&self, e: usize) -> ElemRef<'_> {
        let fl = self.dims.field_len();
        let tl = self.dims.tracer_len();
        ElemRef {
            u: &self.u[e * fl..(e + 1) * fl],
            v: &self.v[e * fl..(e + 1) * fl],
            t: &self.t[e * fl..(e + 1) * fl],
            dp3d: &self.dp3d[e * fl..(e + 1) * fl],
            qdp: &self.qdp[e * tl..(e + 1) * tl],
            phis: &self.phis[e * NPTS..(e + 1) * NPTS],
        }
    }

    /// Mutable view of element `e`.
    #[inline]
    pub fn elem_mut(&mut self, e: usize) -> ElemMut<'_> {
        let fl = self.dims.field_len();
        let tl = self.dims.tracer_len();
        ElemMut {
            u: &mut self.u[e * fl..(e + 1) * fl],
            v: &mut self.v[e * fl..(e + 1) * fl],
            t: &mut self.t[e * fl..(e + 1) * fl],
            dp3d: &mut self.dp3d[e * fl..(e + 1) * fl],
            qdp: &mut self.qdp[e * tl..(e + 1) * tl],
            phis: &mut self.phis[e * NPTS..(e + 1) * NPTS],
        }
    }

    /// Iterate over read-only element views.
    pub fn elems(&self) -> impl Iterator<Item = ElemRef<'_>> {
        (0..self.nelem).map(move |e| self.elem(e))
    }

    /// Iterate over mutable element views (progressive slice splitting —
    /// no interior mutability, no allocation).
    pub fn elems_mut(&mut self) -> ElemsMut<'_> {
        ElemsMut {
            u: &mut self.u,
            v: &mut self.v,
            t: &mut self.t,
            dp3d: &mut self.dp3d,
            qdp: &mut self.qdp,
            phis: &mut self.phis,
            field_len: self.dims.field_len(),
            tracer_len: self.dims.tracer_len(),
        }
    }

    /// The dynamics prognostics as arenas `[u, v, t, dp3d]` (the DSS
    /// sweeps' field order).
    pub fn dyn_fields(&self) -> [&[f64]; 4] {
        [&self.u, &self.v, &self.t, &self.dp3d]
    }

    /// The dynamics prognostics as mutable arenas `[u, v, t, dp3d]` (the
    /// DSS sweeps' field order).
    pub fn dyn_fields_mut(&mut self) -> [&mut [f64]; 4] {
        [&mut self.u, &mut self.v, &mut self.t, &mut self.dp3d]
    }

    /// Copy every field from `other` (same dims/nelem required).
    pub fn copy_from(&mut self, other: &State) {
        assert_eq!(self.dims, other.dims);
        assert_eq!(self.nelem, other.nelem);
        self.u.copy_from_slice(&other.u);
        self.v.copy_from_slice(&other.v);
        self.t.copy_from_slice(&other.t);
        self.dp3d.copy_from_slice(&other.dp3d);
        self.qdp.copy_from_slice(&other.qdp);
        self.phis.copy_from_slice(&other.phis);
    }

    /// `self += s * other` over every prognostic field (RK stage update).
    pub fn axpy(&mut self, s: f64, other: &State) {
        for (a, b) in self.u.iter_mut().zip(&other.u) {
            *a += s * b;
        }
        for (a, b) in self.v.iter_mut().zip(&other.v) {
            *a += s * b;
        }
        for (a, b) in self.t.iter_mut().zip(&other.t) {
            *a += s * b;
        }
        for (a, b) in self.dp3d.iter_mut().zip(&other.dp3d) {
            *a += s * b;
        }
        for (a, b) in self.qdp.iter_mut().zip(&other.qdp) {
            *a += s * b;
        }
    }

    /// Maximum absolute difference of all prognostic fields vs `other`
    /// (used by the variant-equivalence tests).
    pub fn max_abs_diff(&self, other: &State) -> f64 {
        let mut m: f64 = 0.0;
        for (x, y) in self.u.iter().zip(&other.u) {
            m = m.max((x - y).abs());
        }
        for (x, y) in self.v.iter().zip(&other.v) {
            m = m.max((x - y).abs());
        }
        for (x, y) in self.t.iter().zip(&other.t) {
            m = m.max((x - y).abs());
        }
        for (x, y) in self.dp3d.iter().zip(&other.dp3d) {
            m = m.max((x - y).abs());
        }
        for (x, y) in self.qdp.iter().zip(&other.qdp) {
            m = m.max((x - y).abs());
        }
        m
    }
}

/// Mutable element-view iterator over the arena (see
/// [`State::elems_mut`]).
#[derive(Debug)]
pub struct ElemsMut<'a> {
    u: &'a mut [f64],
    v: &'a mut [f64],
    t: &'a mut [f64],
    dp3d: &'a mut [f64],
    qdp: &'a mut [f64],
    phis: &'a mut [f64],
    field_len: usize,
    tracer_len: usize,
}

impl<'a> Iterator for ElemsMut<'a> {
    type Item = ElemMut<'a>;

    fn next(&mut self) -> Option<ElemMut<'a>> {
        if self.u.is_empty() {
            return None;
        }
        let (u, u_rest) = std::mem::take(&mut self.u).split_at_mut(self.field_len);
        let (v, v_rest) = std::mem::take(&mut self.v).split_at_mut(self.field_len);
        let (t, t_rest) = std::mem::take(&mut self.t).split_at_mut(self.field_len);
        let (dp3d, dp_rest) = std::mem::take(&mut self.dp3d).split_at_mut(self.field_len);
        let (qdp, q_rest) = std::mem::take(&mut self.qdp).split_at_mut(self.tracer_len);
        let (phis, ph_rest) = std::mem::take(&mut self.phis).split_at_mut(NPTS);
        self.u = u_rest;
        self.v = v_rest;
        self.t = t_rest;
        self.dp3d = dp_rest;
        self.qdp = q_rest;
        self.phis = ph_rest;
        Some(ElemMut { u, v, t, dp3d, qdp, phis })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_layout() {
        let d = Dims { nlev: 4, qsize: 2 };
        assert_eq!(d.field_len(), 64);
        assert_eq!(d.at(0, 0), 0);
        assert_eq!(d.at(1, 0), NPTS);
        assert_eq!(d.at(3, 15), 63);
        assert_eq!(d.atq(1, 0, 0), 64);
        assert_eq!(d.atq(1, 3, 15), 127);
    }

    #[test]
    fn arena_indexing_matches_kernel_layout() {
        let d = Dims { nlev: 4, qsize: 2 };
        let st = State::zeros(d, 3);
        // Same convention as kernels::KernelData::at / atq.
        assert_eq!(st.at(2, 1, 5), (2 * 4 + 1) * NPTS + 5);
        assert_eq!(st.atq(2, 1, 3, 5), ((2 * 2 + 1) * 4 + 3) * NPTS + 5);
        // Element views are windows into the arena.
        assert_eq!(st.elem(1).u.len(), d.field_len());
        assert_eq!(st.elem(1).qdp.len(), d.tracer_len());
        assert_eq!(st.elem(1).phis.len(), NPTS);
    }

    #[test]
    fn elem_views_alias_the_arena() {
        let d = Dims { nlev: 2, qsize: 1 };
        let mut st = State::zeros(d, 2);
        {
            let em = st.elem_mut(1);
            em.u[d.at(1, 3)] = 7.0;
            em.qdp[d.atq(0, 0, 2)] = 9.0;
            em.phis[4] = 11.0;
        }
        assert_eq!(st.u[st.at(1, 1, 3)], 7.0);
        assert_eq!(st.qdp[st.atq(1, 0, 0, 2)], 9.0);
        assert_eq!(st.phis[NPTS + 4], 11.0);
    }

    #[test]
    fn elems_mut_yields_disjoint_views_in_order() {
        let d = Dims { nlev: 2, qsize: 1 };
        let mut st = State::zeros(d, 3);
        for (e, em) in st.elems_mut().enumerate() {
            em.u[0] = e as f64;
            em.qdp[1] = 10.0 + e as f64;
        }
        for e in 0..3 {
            assert_eq!(st.u[st.at(e, 0, 0)], e as f64);
            assert_eq!(st.qdp[st.atq(e, 0, 0, 1)], 10.0 + e as f64);
        }
        assert_eq!(st.elems().count(), 3);
    }

    #[test]
    fn surface_pressure_accumulates() {
        let d = Dims { nlev: 3, qsize: 0 };
        let mut st = State::zeros(d, 1);
        {
            let e = st.elem_mut(0);
            for k in 0..3 {
                for p in 0..NPTS {
                    e.dp3d[d.at(k, p)] = 100.0 * (k + 1) as f64;
                }
            }
        }
        assert_eq!(st.elem(0).surface_pressure(d, 50.0, 7), 650.0);
    }

    #[test]
    fn axpy_touches_all_prognostics() {
        let d = Dims { nlev: 2, qsize: 1 };
        let mut a = State::zeros(d, 1);
        let mut b = State::zeros(d, 1);
        b.u[0] = 1.0;
        b.v[1] = 2.0;
        b.t[2] = 3.0;
        b.dp3d[3] = 4.0;
        b.qdp[4] = 5.0;
        a.axpy(2.0, &b);
        assert_eq!(a.u[0], 2.0);
        assert_eq!(a.v[1], 4.0);
        assert_eq!(a.t[2], 6.0);
        assert_eq!(a.dp3d[3], 8.0);
        assert_eq!(a.qdp[4], 10.0);
    }

    #[test]
    fn max_abs_diff_detects_every_field() {
        let d = Dims { nlev: 1, qsize: 1 };
        let a = State::zeros(d, 2);
        for field in ["u", "qdp"] {
            let mut b = a.clone();
            let (iu, iq) = (b.at(1, 0, 5), b.atq(1, 0, 0, 5));
            match field {
                "u" => b.u[iu] = 0.5,
                _ => b.qdp[iq] = 0.5,
            }
            assert_eq!(a.max_abs_diff(&b), 0.5);
        }
        assert_eq!(a.max_abs_diff(&a), 0.0);
    }
}
