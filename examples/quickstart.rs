//! Quickstart: build a small moist model, run a few hours, read
//! diagnostics.
//!
//! ```text
//! cargo run --release -p swcam-core --example quickstart
//! ```

use swcam_core::{ModelConfig, SuiteChoice, Swcam};

fn main() {
    // An ne4 (750 km-class) aquaplanet with 8 levels and simple physics.
    let mut cfg = ModelConfig::for_ne(4);
    cfg.nlev = 8;
    cfg.suite = SuiteChoice::Simple;
    cfg.sst = 300.0;
    let mut model = Swcam::new(cfg);

    // Initialize: warm moist tropics, zonal jet.
    model.init_with(
        |_, _| cubesphere::P0,
        |lat, _lon, _k, pm| {
            let sigma = pm / cubesphere::P0;
            let t = (300.0 - 50.0 * (1.0 - sigma)) - 20.0 * lat.sin() * lat.sin();
            let qv = 0.015 * sigma.powi(3) * lat.cos();
            (10.0 * lat.cos(), 0.0, t, qv)
        },
    );

    println!("stepping 6 simulated hours (dt = {} s)...", model.dycore.cfg.dt);
    println!("  {}", model.dycore.hypervis_stability());
    let steps = (6.0 * 3600.0 / model.dycore.cfg.dt) as usize;
    for s in 0..steps {
        model.step();
        if s % 4 == 0 {
            let ps = model.surface_pressure();
            let ps_min = ps.iter().cloned().fold(f64::MAX, f64::min);
            println!(
                "  t = {:5.2} h  max wind = {:6.2} m/s  min ps = {:8.0} Pa",
                model.time / 3600.0,
                model.max_surface_wind(),
                ps_min
            );
        }
    }

    let total_precip: f64 = model.precip_accum.iter().sum();
    println!("done: {:.2} simulated days", model.sim_days());
    println!("accumulated precipitation (domain sum): {:.3} kg/m^2", total_precip);
    let b = swcam_core::homme::budgets(&model.dycore, &model.state);
    println!("global budgets:");
    println!("  dry-air mass    {:.4e} kg (Earth's atmosphere ~ 5.2e18 kg)", b.dry_mass);
    println!("  total energy    {:.4e} J", b.total_energy);
    println!("  kinetic energy  {:.4e} J", b.kinetic_energy);
    println!("  vapour mass     {:.4e} kg", b.tracer_mass);
}
