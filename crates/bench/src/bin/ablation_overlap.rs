//! Section 7.6 ablation: original vs redesigned bndry_exchangev —
//! functional staging-copy counts on real ranks, plus the modeled
//! step-time effect at scale.

use cubesphere::{CubedSphere, Partition, NPTS};
use homme::bndry::{CopyStats, ExchangeMode, ExchangePlan};
use homme::kernels::Variant;
use perfmodel::report::table;
use perfmodel::stepmodel::{RankWork, StepModel};
use perfmodel::Machine;
use swmpi::run_ranks;

fn functional(mode: ExchangeMode) -> CopyStats {
    let grid = CubedSphere::new(8);
    let nranks = 8;
    let part = Partition::new(&grid, nranks);
    let plans: Vec<ExchangePlan> =
        (0..nranks).map(|r| ExchangePlan::new(&grid, &part, r)).collect();
    let stats = run_ranks(nranks, |ctx| {
        let plan = &plans[ctx.rank()];
        let mut fields: Vec<Vec<f64>> = plan
            .owned
            .iter()
            .map(|&e| (0..NPTS).map(|p| (e * 7 + p) as f64).collect())
            .collect();
        let mut s = CopyStats::default();
        for round in 0..10 {
            plan.dss_level(ctx, &mut fields, mode, round, || {}, &mut s).expect("dss level");
        }
        s
    });
    stats.into_iter().fold(CopyStats::default(), |mut a, s| {
        a.staged_bytes += s.staged_bytes;
        a.sent_bytes += s.sent_bytes;
        a
    })
}

fn main() {
    let orig = functional(ExchangeMode::Original);
    let redesigned = functional(ExchangeMode::Redesigned);
    println!(
        "{}",
        table(
            "Functional exchange (ne8, 8 ranks, 10 rounds)",
            &["mode", "MPI payload", "staging copies"],
            &[
                vec![
                    "original".into(),
                    format!("{} B", orig.sent_bytes),
                    format!("{} B", orig.staged_bytes),
                ],
                vec![
                    "redesigned".into(),
                    format!("{} B", redesigned.sent_bytes),
                    format!("{} B", redesigned.staged_bytes),
                ],
            ]
        )
    );

    let m = Machine::taihulight();
    let mut rows = Vec::new();
    for (label, elems, nranks) in
        [("large run", 4usize, 131_072usize), ("mid run", 48, 32_768), ("small run", 650, 8_192)]
    {
        let w = RankWork { elems, nlev: 128, qsize: 25 };
        let t_orig =
            StepModel::new(&m, Variant::Athread, ExchangeMode::Original).step_seconds(w, nranks);
        let t_new =
            StepModel::new(&m, Variant::Athread, ExchangeMode::Redesigned).step_seconds(w, nranks);
        rows.push(vec![
            format!("{label} ({elems} elem @ {nranks})"),
            format!("{:.4} s", t_orig),
            format!("{:.4} s", t_new),
            format!("-{:.1}%", 100.0 * (1.0 - t_new / t_orig)),
        ]);
    }
    println!(
        "{}",
        table(
            "Modeled step time: original vs redesigned exchange",
            &["configuration", "original", "redesigned", "change"],
            &rows
        )
    );
    println!("Paper: overlap cut HOMME runtime by up to 23%; the direct unpack");
    println!("removed another 30% of the remaining exchange cost.");
}
