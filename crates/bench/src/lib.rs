//! # swcam-bench — benchmark harness for the paper's evaluation
//!
//! One binary per table/figure (`cargo run -p swcam-bench --bin <name>`):
//!
//! | binary | reproduces |
//! |---|---|
//! | `table1` | Table 1 — kernel timings across Intel/MPE/OpenACC/Athread |
//! | `table2` | Table 2 — mesh configurations |
//! | `table3` | Table 3 — NGGPS dycore comparison |
//! | `fig4` | Figure 4 — climatological surface temperature, control vs test |
//! | `fig5` | Figure 5 — kernel speedups over one Intel core |
//! | `fig6` | Figure 6 — whole-CAM SYPD (ne30 and ne120) |
//! | `fig7` | Figure 7 — HOMME strong scaling (ne256, ne1024) |
//! | `fig8` | Figure 8 — weak scaling to 10,075,000 cores |
//! | `fig9` | Figure 9 — hurricane Katrina track + intensity |
//! | `ablation_transfer` | §7.3 — Algorithm 1 vs 2 data-transfer volume |
//! | `ablation_overlap` | §7.6 — original vs redesigned bndry_exchangev |

use homme::kernels::{verify, KernelData, KernelId, Variant};

/// The Table-1 measurement configuration: a 6,144-process ne256 run puts
/// 64 elements on each rank; the paper's runs use 128 levels and the CAM5
/// tracer count.
pub struct Table1Config {
    pub nelem: usize,
    pub nlev: usize,
    pub qsize: usize,
}

impl Default for Table1Config {
    fn default() -> Self {
        // 393,216 elements / 6,144 ranks = 64; nlev must satisfy the
        // Athread remap constraint (% 32).
        Table1Config { nelem: 64, nlev: 128, qsize: 25 }
    }
}

/// Modeled per-rank seconds of every kernel under every variant
/// (order: Intel, MPE, OpenACC, Athread).
pub fn table1_times(cfg: &Table1Config) -> Vec<(KernelId, [f64; 4])> {
    let env = verify::KernelEnv::default();
    KernelId::ALL
        .iter()
        .map(|&kernel| {
            let mut row = [0.0; 4];
            for (i, variant) in
                [Variant::Reference, Variant::Mpe, Variant::OpenAcc, Variant::Athread]
                    .into_iter()
                    .enumerate()
            {
                let mut data = KernelData::synth(cfg.nelem, cfg.nlev, cfg.qsize, 4242);
                row[i] = verify::run(kernel, variant, &mut data, &env).seconds;
            }
            (kernel, row)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_rows_have_paper_ordering() {
        // A reduced configuration keeps the test quick; the binary runs the
        // full Table-1 sizes.
        let cfg = Table1Config { nelem: 16, nlev: 32, qsize: 4 };
        let rows = table1_times(&cfg);
        assert_eq!(rows.len(), 6);
        for (kernel, [t_intel, t_mpe, _t_acc, t_ath]) in rows {
            assert!(t_mpe > t_intel, "{}", kernel.name());
            assert!(t_ath < t_intel, "{}", kernel.name());
        }
    }
}
