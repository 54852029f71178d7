//! # sw26010 — a functional + performance simulator of the SW26010 processor
//!
//! The Sunway TaihuLight's SW26010 heterogeneous many-core processor is the
//! hardware substrate of *Redesigning CAM-SE for Peta-Scale Climate Modeling
//! Performance and Ultra-High Resolution on Sunway TaihuLight* (SC'17). This
//! crate reproduces the architectural features that paper's redesign exploits:
//!
//! * **Core groups**: 1 management core (MPE) + an 8x8 mesh of compute cores
//!   (CPEs), four CGs per chip ([`chip`], [`config`]).
//! * **64 KB user-managed LDM scratchpad** per CPE, with hard budget
//!   enforcement ([`ldm`]).
//! * **DMA** between main memory and LDM, and slow direct `gld`/`gst` access
//!   ([`cpe`], [`shared`]).
//! * **Register communication** between same-row / same-column CPEs, the
//!   basis of the paper's parallel vertical scan and its distributed
//!   transposition ([`regcomm`]).
//! * **256-bit vectors with shuffle**, used for in-register 4x4 transposes
//!   ([`vector`]).
//! * An **Athread-style cluster runtime** that launches a kernel closure on
//!   64 threads and reports modeled cycles plus PERF-style counters
//!   ([`cluster`], [`perfctr`]).
//!
//! Kernels are *functionally executed* — every `f64` the kernel writes is
//! real — while every DMA, register message, shuffle, and annotated flop is
//! charged to a calibrated cycle model, so one run produces both the answer
//! and the performance measurement the benchmark harness needs.
//!
//! ```
//! use sw26010::{CpeCluster, SharedSlice, SharedSliceMut};
//!
//! let cluster = CpeCluster::with_defaults();
//! let src: Vec<f64> = (0..512).map(|i| i as f64).collect();
//! let mut dst = vec![0.0; 512];
//! let report = {
//!     let s = SharedSlice::new(&src);
//!     let d = SharedSliceMut::new(&mut dst);
//!     cluster.run(|ctx| {
//!         let start = ctx.id() * 8;
//!         let mut buf = ctx.ldm_alloc(8).unwrap();
//!         ctx.dma_get(s, start..start + 8, &mut buf);
//!         for x in buf.iter_mut() { *x += 1.0; }
//!         ctx.charge_vflops(8);
//!         ctx.dma_put(&d, start, &buf);
//!     })
//! };
//! assert_eq!(dst[100], 101.0);
//! assert!(report.seconds(cluster.config()) > 0.0);
//! ```

pub mod chip;
pub mod cluster;
pub mod config;
pub mod cpe;
pub mod ldm;
pub mod mpe;
pub mod perfctr;
pub mod regcomm;
pub mod shared;
pub mod trace;
pub mod vector;

pub use chip::{Chip, CoreGroup};
pub use cluster::{CpeCluster, KernelReport};
pub use config::{
    ChipConfig, CostModel, CGS_PER_CHIP, CPES_PER_CG, CPE_COLS, CPE_ROWS, LDM_BYTES, VLEN,
};
pub use cpe::CpeCtx;
pub use ldm::{Ldm, LdmBuf, LdmOverflow};
pub use mpe::{CpuCoreModel, Mpe};
pub use perfctr::Counters;
pub use shared::{SharedSlice, SharedSliceMut, WriteTracker};
pub use trace::{Event, EventKind, Trace};
pub use vector::{transpose4x4, transpose_blocked, ShuffleMask, V4F64};
