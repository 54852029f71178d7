use homme::kernels::{KernelId, Variant};
use homme::ExchangeMode;
use perfmodel::*;
use perfmodel::stepmodel::{RankWork, StepModel};

fn main() {
    let m = Machine::taihulight();
    println!("spawn = {:.3e}", m.cal.spawn_seconds);
    for k in KernelId::ALL {
        print!("{:24}", k.name());
        for v in [Variant::Reference, Variant::Mpe, Variant::OpenAcc, Variant::Athread] {
            print!(" {:?}={:.3e}", v, m.cal.kernel_seconds(k, v, 64, 128, 25));
        }
        println!();
    }
    // Step model numbers
    for (e, n) in [(96usize, 4096usize), (3, 131072), (768, 8192), (48, 131072), (650, 155000), (1, 5400)] {
        let w = RankWork { elems: e, nlev: 128, qsize: 10 };
        for v in [Variant::Athread, Variant::OpenAcc, Variant::Mpe] {
            let sm = StepModel::new(&m, v, ExchangeMode::Redesigned);
            println!("E={e:4} n={n:7} {v:?}: compute={:.4e} comm={:.4e} sync={:.4e} step={:.4e}",
                sm.compute_seconds(w), sm.comm_seconds(w, n), sm.sync_seconds(w, n), sm.step_seconds(w, n));
        }
    }
    // SYPD
    for v in [Variant::Mpe, Variant::OpenAcc, Variant::Athread] {
        println!("ne30@5400 {v:?}: SYPD={:.2} t_step={:.4e}", sypd(&m, CamRun::ne30(), v, 5400), cam_step_seconds(&m, CamRun::ne30(), v, 5400));
    }
    println!("ne120@28800 OpenAcc: SYPD={:.2}", sypd(&m, CamRun::ne120(), Variant::OpenAcc, 28800));
    // NGGPS
    for c in &CASES {
        println!("NGGPS {}: ours={:.3} fv3={} mpas={}", c.label, homme_runtime(&m, c), c.fv3_seconds, c.mpas_seconds);
    }
}
