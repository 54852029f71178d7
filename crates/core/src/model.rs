//! The assembled model: dynamical core + physics + diagnostics, behind one
//! builder-style API (the reproduction's equivalent of a configured CAM
//! executable).

use crate::checkpoint::{self, CheckpointError, CheckpointMeta};
use crate::config::{ModelConfig, SuiteChoice};
use crate::coupling::coupled_step;
use cubesphere::{CubedSphere, NPTS};
use homme::{Dims, Dycore, State};
use std::path::{Path, PathBuf};
use swphysics::{GrayRadiation, HeldSuarez, Kessler, PhysicsSuite, SimplePhysics};

/// A running model instance.
pub struct Swcam {
    /// The configuration it was built with.
    pub config: ModelConfig,
    /// The dynamical core.
    pub dycore: Dycore,
    /// The physics suite.
    pub suite: PhysicsSuite,
    /// Prognostic state.
    pub state: State,
    /// Simulated time, s.
    pub time: f64,
    /// Accumulated precipitation per (element, point), kg/m^2.
    pub precip_accum: Vec<f64>,
    phys_diags: Vec<swphysics::PhysicsDiag>,
    steps: usize,
    checkpointing: Option<(usize, PathBuf)>,
}

impl Swcam {
    /// Build a model from a validated configuration; the state starts as a
    /// resting isothermal atmosphere (use the initializers to overwrite).
    ///
    /// # Panics
    /// Panics if the configuration fails validation.
    pub fn new(config: ModelConfig) -> Self {
        config.validate().expect("invalid model configuration");
        let dycore = build_dycore(&config);
        let suite = build_suite(&config);
        let mut state = dycore.zero_state();
        // Resting isothermal default initial condition.
        resting_init(&dycore, config.nlev, &mut state);
        let npts = state.nelem() * NPTS;
        let checkpointing = if config.checkpoint_interval > 0 {
            Some((config.checkpoint_interval, PathBuf::from(&config.checkpoint_dir)))
        } else {
            None
        };
        Swcam {
            config,
            dycore,
            suite,
            state,
            time: 0.0,
            precip_accum: vec![0.0; npts],
            phys_diags: vec![swphysics::PhysicsDiag::default(); npts],
            steps: 0,
            checkpointing,
        }
    }

    /// Initialize the state point-by-point: `f(lat, lon, k, p_mid) ->
    /// (u, v, t, qv)` with hydrostatic `dp3d` from `ps(lat, lon)`.
    pub fn init_with(
        &mut self,
        ps: impl Fn(f64, f64) -> f64,
        f: impl Fn(f64, f64, usize, f64) -> (f64, f64, f64, f64),
    ) {
        init_columns(&self.dycore, self.config.nlev, self.config.qsize, &mut self.state, &ps, &f);
    }

    /// Install surface topography: `phis(lat, lon)` in m^2/s^2 (geopotential
    /// = g * surface height), with the surface pressure re-balanced
    /// hydrostatically (`ps = p0 exp(-phis / (Rd T0))`, the isothermal
    /// balance) so a resting isothermal atmosphere over the terrain starts
    /// near equilibrium. Call after `init_with` (it rebuilds `dp3d`).
    pub fn set_topography(&mut self, phis: impl Fn(f64, f64) -> f64, t0: f64) {
        let nlev = self.config.nlev;
        let vert = self.dycore.rhs.vert.clone();
        let grid_elems = self.dycore.grid.elements.clone();
        for (es, el) in self.state.elems_mut().zip(&grid_elems) {
            for p in 0..NPTS {
                let (lat, lon) = (el.metric[p].lat, el.metric[p].lon);
                let phi = phis(lat, lon);
                es.phis[p] = phi;
                let ps = cubesphere::P0 * (-phi / (cubesphere::RD * t0)).exp();
                for k in 0..nlev {
                    es.dp3d[k * NPTS + p] = vert.dp_ref(k, ps);
                }
            }
        }
    }

    /// Advance one coupled step (`coupling::coupled_step`: dynamics, then
    /// physics every `nsplit` dynamics steps with the accumulated interval).
    ///
    /// # Panics
    /// When a health guard (enabled on `dycore.health`; free when disabled,
    /// the default) or the physics rejects the step: `Swcam` keeps no
    /// rollback snapshot.
    pub fn step(&mut self) {
        let step = self.steps + 1;
        let Swcam { config, dycore, suite, state, precip_accum, phys_diags, .. } = self;
        if let Err(e) = coupled_step(dycore, state, suite, config, step, phys_diags, precip_accum) {
            panic!("step {step} aborted: {e}");
        }
        self.steps = step;
        self.time += self.dycore.cfg.dt;
        if let Some((interval, dir)) = &self.checkpointing {
            if self.steps.is_multiple_of(*interval) {
                let path = dir.join(format!("ckpt_{:08}.swckpt", self.steps));
                std::fs::create_dir_all(dir).ok();
                if let Err(e) = self.write_checkpoint(&path) {
                    eprintln!("warning: checkpoint at step {} failed: {e}", self.steps);
                }
            }
        }
    }

    /// Run `n` steps.
    pub fn run_steps(&mut self, n: usize) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Write checkpoints every `interval` coupled steps into `dir`
    /// (overrides the [`ModelConfig`] knobs; `interval = 0` disables).
    pub fn enable_checkpointing(&mut self, interval: usize, dir: impl Into<PathBuf>) {
        self.checkpointing =
            if interval > 0 { Some((interval, dir.into())) } else { None };
    }

    /// Snapshot the prognostic state + step/time/remap-phase/degradation
    /// metadata to `path` ([`checkpoint`] codec; restoring is
    /// bitwise-exact).
    pub fn write_checkpoint(&self, path: &Path) -> Result<(), CheckpointError> {
        let meta = CheckpointMeta {
            step: self.steps as u64,
            remap_phase: self.dycore.remap_phase() as u32,
            degrade_pending: self.dycore.degrade_pending() as u32,
            rank: 0,
            epoch: 0,
            time: self.time,
        };
        checkpoint::write_file(path, &self.state, &meta)
    }

    /// Restore state, step count, simulated time, remap phase and
    /// degradation countdown from a checkpoint written by
    /// [`Swcam::write_checkpoint`]. The model must have been built with the
    /// same configuration; continuing from here reproduces the original run
    /// bitwise (physics cadence included: `nsplit` divides into the
    /// restored step count exactly as it did in the writing run).
    pub fn restore_checkpoint(&mut self, path: &Path) -> Result<(), CheckpointError> {
        let meta = checkpoint::read_file(path, &mut self.state)?;
        self.steps = meta.step as usize;
        self.time = meta.time;
        self.dycore.set_remap_phase(meta.remap_phase as usize);
        self.dycore.set_degrade_pending(meta.degrade_pending as usize);
        Ok(())
    }

    /// Coupled steps taken so far.
    pub fn steps_taken(&self) -> usize {
        self.steps
    }

    /// Simulated days so far.
    pub fn sim_days(&self) -> f64 {
        self.time / 86_400.0
    }

    /// Surface pressure field per (element, point).
    pub fn surface_pressure(&self) -> Vec<f64> {
        let nlev = self.config.nlev;
        let ptop = self.dycore.rhs.vert.ptop();
        self.state
            .elems()
            .flat_map(|es| {
                (0..NPTS).map(move |p| {
                    ptop + (0..nlev).map(|k| es.dp3d[k * NPTS + p]).sum::<f64>()
                })
            })
            .collect()
    }

    /// Lowest-level temperature per (element, point) — the "surface
    /// temperature" diagnostic of the Figure-4 climatology.
    pub fn surface_temperature(&self) -> Vec<f64> {
        let nlev = self.config.nlev;
        self.state
            .elems()
            .flat_map(|es| (0..NPTS).map(move |p| es.t[(nlev - 1) * NPTS + p]))
            .collect()
    }

    /// Maximum surface-level wind speed, m/s.
    pub fn max_surface_wind(&self) -> f64 {
        let nlev = self.config.nlev;
        let mut m: f64 = 0.0;
        for es in self.state.elems() {
            for p in 0..NPTS {
                let i = (nlev - 1) * NPTS + p;
                m = m.max((es.u[i] * es.u[i] + es.v[i] * es.v[i]).sqrt());
            }
        }
        m
    }

    /// Latitude/longitude (radians) of every (element, point) column.
    pub fn column_coords(&self) -> Vec<(f64, f64)> {
        self.dycore
            .grid
            .elements
            .iter()
            .flat_map(|el| el.metric.iter().map(|m| (m.lat, m.lon)))
            .collect()
    }
}

/// The dynamical core implied by a namelist (grid + dims + vertical grid +
/// kernel path). Shared by [`Swcam::new`] and the ensemble driver so both
/// paths run on an identically-constructed dycore.
pub fn build_dycore(config: &ModelConfig) -> Dycore {
    let dims = Dims { nlev: config.nlev, qsize: config.qsize };
    let grid = CubedSphere::new_planet(config.ne, config.planet.radius, config.planet.omega);
    Dycore::from_grid(grid, dims, config.ptop, config.dycore_config())
}

/// The physics suite implied by a namelist (shared by [`Swcam::new`] and
/// the ensemble driver).
pub fn build_suite(config: &ModelConfig) -> PhysicsSuite {
    match config.suite {
        SuiteChoice::None => PhysicsSuite::None,
        SuiteChoice::HeldSuarez => PhysicsSuite::HeldSuarez(HeldSuarez::default()),
        SuiteChoice::Simple => {
            let sp = SimplePhysics { sst: config.sst, ..Default::default() };
            PhysicsSuite::Simple(sp)
        }
        SuiteChoice::Full => {
            let sp = SimplePhysics { sst: config.sst, ..Default::default() };
            PhysicsSuite::Full {
                simple: sp,
                convection: swphysics::BettsMiller::default(),
                kessler: Kessler::default(),
                radiation: GrayRadiation::default(),
            }
        }
    }
}

/// Zero every prognostic arena of `state` in place (no reallocation — the
/// ensemble driver re-initializes retired member lanes through this).
pub fn reset_state(state: &mut State) {
    state.u.fill(0.0);
    state.v.fill(0.0);
    state.t.fill(0.0);
    state.dp3d.fill(0.0);
    state.qdp.fill(0.0);
    state.phis.fill(0.0);
}

/// The resting isothermal default initial condition ([`Swcam::new`]'s
/// baseline, shared with the scenario registry): T = 285 K everywhere,
/// hydrostatic reference thickness at `P0`, winds and tracers untouched.
pub fn resting_init(dycore: &Dycore, nlev: usize, state: &mut State) {
    let vert = &dycore.rhs.vert;
    for es in state.elems_mut() {
        for k in 0..nlev {
            for p in 0..NPTS {
                es.t[k * NPTS + p] = 285.0;
                es.dp3d[k * NPTS + p] = vert.dp_ref(k, cubesphere::P0);
            }
        }
    }
}

/// Column-wise analytic initialization on a bare dycore + state pair (the
/// free-function form of [`Swcam::init_with`], so scenario initializers can
/// run against an ensemble member lane without building a model): `f(lat,
/// lon, k, p_mid) -> (u, v, t, qv)` with hydrostatic `dp3d` from `ps(lat,
/// lon)`. Performs no heap allocation.
pub fn init_columns(
    dycore: &Dycore,
    nlev: usize,
    qsize: usize,
    state: &mut State,
    ps: &dyn Fn(f64, f64) -> f64,
    f: &dyn Fn(f64, f64, usize, f64) -> (f64, f64, f64, f64),
) {
    let vert = &dycore.rhs.vert;
    let grid_elems = &dycore.grid.elements;
    for (es, el) in state.elems_mut().zip(grid_elems.iter()) {
        for p in 0..NPTS {
            let (lat, lon) = (el.metric[p].lat, el.metric[p].lon);
            let psv = ps(lat, lon);
            for k in 0..nlev {
                let dp = vert.dp_ref(k, psv);
                es.dp3d[k * NPTS + p] = dp;
                let pm = vert.p_mid(k, psv);
                let (u, v, t, qv) = f(lat, lon, k, pm);
                es.u[k * NPTS + p] = u;
                es.v[k * NPTS + p] = v;
                es.t[k * NPTS + p] = t;
                if qsize > 0 {
                    es.qdp[k * NPTS + p] = qv * dp;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Planet;

    #[test]
    fn default_model_is_stable_dry() {
        let mut cfg = ModelConfig::for_ne(2);
        cfg.suite = SuiteChoice::None;
        cfg.qsize = 0;
        cfg.nlev = 6;
        let mut model = Swcam::new(cfg);
        model.run_steps(3);
        assert!(model.sim_days() > 0.0);
        assert!(model.dycore.max_wind(&model.state) < 1.0);
    }

    #[test]
    fn moist_model_runs_and_accumulates_precip_fields() {
        let mut cfg = ModelConfig::for_ne(2);
        cfg.nlev = 8;
        cfg.suite = SuiteChoice::Simple;
        let mut model = Swcam::new(cfg);
        // Moist, warm lower atmosphere over a warm ocean.
        model.init_with(
            |_, _| cubesphere::P0,
            |lat, _, _k, pm| {
                let t = 300.0 * (pm / cubesphere::P0).powf(0.19).max(0.6);
                let qv = 0.015 * (pm / cubesphere::P0).powi(3);
                (5.0 * lat.cos(), 0.0, t.max(200.0), qv)
            },
        );
        model.run_steps(3);
        assert!(model.max_surface_wind() < 100.0, "blow-up");
        let ps = model.surface_pressure();
        assert!(ps.iter().all(|&p| p > 9.0e4 && p < 1.1e5));
        assert_eq!(model.precip_accum.len(), ps.len());
        let ts = model.surface_temperature();
        assert!(ts.iter().all(|&t| t > 230.0 && t < 330.0));
    }

    #[test]
    fn small_planet_model_builds_and_steps() {
        let mut cfg = ModelConfig::for_ne(2);
        cfg.planet = Planet::small(50.0);
        cfg.nlev = 6;
        cfg.suite = SuiteChoice::None;
        cfg.qsize = 0;
        let mut model = Swcam::new(cfg);
        // dt shrank by the reduction factor.
        assert!(model.dycore.cfg.dt < 100.0);
        model.run_steps(2);
        assert!(model.dycore.max_wind(&model.state).is_finite());
    }

    #[test]
    fn coords_cover_the_sphere() {
        let mut cfg = ModelConfig::for_ne(2);
        cfg.suite = SuiteChoice::None;
        cfg.qsize = 0;
        cfg.nlev = 4;
        let model = Swcam::new(cfg);
        let coords = model.column_coords();
        assert_eq!(coords.len(), 24 * NPTS);
        let (mut north, mut south) = (false, false);
        for (lat, _) in coords {
            if lat > 0.7 {
                north = true;
            }
            if lat < -0.7 {
                south = true;
            }
        }
        assert!(north && south);
    }
}
