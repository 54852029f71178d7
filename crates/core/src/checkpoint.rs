//! Compact binary checkpoint/restart for the flat SoA [`State`].
//!
//! At peta-scale the mean time between node failures is shorter than a
//! long climate integration, so the production answer is periodic
//! snapshots plus rollback. The format here is deliberately dumb and
//! exact: a fixed header (dims, step, remap phase, degradation countdown,
//! rank, rollback epoch, simulated time), the six state arenas as raw little-endian `f64`, and
//! a trailing CRC32. Restoring a snapshot reproduces the run **bitwise**
//! (enforced by the `fault_injection` integration tests): no text
//! round-tripping, no compression, no float formatting.
//!
//! The same codec serves both drivers: the serial [`Swcam`](crate::Swcam)
//! writes files on a step interval, the distributed resilient driver
//! ([`crate::resilient`]) keeps one in-memory snapshot per rank and
//! restores it when a step attempt is aborted.

use homme::State;
use std::io::{Read, Write};
use std::path::Path;
use swmpi::wire::{crc32, put_f64s_le};

/// Magic + version prefix of every checkpoint record.
pub const MAGIC: &[u8; 8] = b"SWCKPT02";

/// Everything a restart needs besides the prognostic arenas.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckpointMeta {
    /// Model step the snapshot was taken after.
    pub step: u64,
    /// Dynamics steps since the last vertical remap
    /// ([`homme::Dycore::remap_phase`]) — restoring it keeps the remap
    /// cadence bitwise-identical across a restart.
    pub remap_phase: u32,
    /// Steps still owed to the degradation policy
    /// ([`homme::Dycore::degrade_pending`]) — restoring it makes a replay
    /// take the same `dt` path as the run it replays.
    pub degrade_pending: u32,
    /// Owning rank (0 for the serial driver).
    pub rank: u32,
    /// Rollback epoch the rank was in.
    pub epoch: u64,
    /// Simulated time, s.
    pub time: f64,
}

/// Why a checkpoint could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Record does not start with [`MAGIC`].
    BadMagic,
    /// Record shorter than its header + payload claims.
    Truncated,
    /// Snapshot dimensions do not match the receiving state.
    DimsMismatch {
        /// What the record carries (nlev, qsize, nelem).
        found: (u32, u32, u64),
        /// What the receiving state requires.
        expected: (u32, u32, u64),
    },
    /// Trailing CRC32 does not match the record contents.
    CrcMismatch,
    /// Filesystem error (message only; `std::io::Error` is not `Clone`).
    Io(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::BadMagic => write!(f, "not a checkpoint (bad magic)"),
            CheckpointError::Truncated => write!(f, "checkpoint record truncated"),
            CheckpointError::DimsMismatch { found, expected } => write!(
                f,
                "checkpoint dims (nlev, qsize, nelem) = {found:?} but state needs {expected:?}"
            ),
            CheckpointError::CrcMismatch => write!(f, "checkpoint CRC mismatch (corrupt record)"),
            CheckpointError::Io(e) => write!(f, "checkpoint I/O failed: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e.to_string())
    }
}

/// Serialize `state` + `meta` into `out` (cleared first). Reuses `out`'s
/// capacity, so the resilient driver's periodic in-memory snapshots are
/// allocation-free at steady state.
pub fn encode_into(state: &State, meta: &CheckpointMeta, out: &mut Vec<u8>) {
    out.clear();
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&(state.dims.nlev as u32).to_le_bytes());
    out.extend_from_slice(&(state.dims.qsize as u32).to_le_bytes());
    out.extend_from_slice(&(state.nelem() as u64).to_le_bytes());
    out.extend_from_slice(&meta.step.to_le_bytes());
    out.extend_from_slice(&meta.remap_phase.to_le_bytes());
    out.extend_from_slice(&meta.degrade_pending.to_le_bytes());
    out.extend_from_slice(&meta.rank.to_le_bytes());
    out.extend_from_slice(&meta.epoch.to_le_bytes());
    out.extend_from_slice(&meta.time.to_le_bytes());
    put_f64s_le(out, &state.u);
    put_f64s_le(out, &state.v);
    put_f64s_le(out, &state.t);
    put_f64s_le(out, &state.dp3d);
    put_f64s_le(out, &state.qdp);
    put_f64s_le(out, &state.phis);
    let crc = crc32(out);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// Serialize `state` + `meta` into a fresh buffer.
pub fn encode(state: &State, meta: &CheckpointMeta) -> Vec<u8> {
    let mut out = Vec::new();
    encode_into(state, meta, &mut out);
    out
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let end = self.pos.checked_add(n).ok_or(CheckpointError::Truncated)?;
        if end > self.bytes.len() {
            return Err(CheckpointError::Truncated);
        }
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn arena(&mut self, dst: &mut [f64]) -> Result<(), CheckpointError> {
        let raw = self.take(dst.len() * 8)?;
        for (x, chunk) in dst.iter_mut().zip(raw.chunks_exact(8)) {
            *x = f64::from_le_bytes(chunk.try_into().expect("8 bytes"));
        }
        Ok(())
    }
}

/// Restore `state` bitwise from `bytes`, returning the snapshot metadata.
/// `state` must already be sized for the snapshot's dimensions (the codec
/// never reallocates the arenas).
pub fn decode(bytes: &[u8], state: &mut State) -> Result<CheckpointMeta, CheckpointError> {
    if bytes.len() < MAGIC.len() + 4 || &bytes[..MAGIC.len()] != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let (payload, crc_bytes) = bytes.split_at(bytes.len() - 4);
    let stored = u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes"));
    if crc32(payload) != stored {
        return Err(CheckpointError::CrcMismatch);
    }
    let mut r = Reader { bytes: payload, pos: MAGIC.len() };
    let nlev = r.u32()?;
    let qsize = r.u32()?;
    let nelem = r.u64()?;
    let expected = (state.dims.nlev as u32, state.dims.qsize as u32, state.nelem() as u64);
    if (nlev, qsize, nelem) != expected {
        return Err(CheckpointError::DimsMismatch { found: (nlev, qsize, nelem), expected });
    }
    let meta = CheckpointMeta {
        step: r.u64()?,
        remap_phase: r.u32()?,
        degrade_pending: r.u32()?,
        rank: r.u32()?,
        epoch: r.u64()?,
        time: r.f64()?,
    };
    r.arena(&mut state.u)?;
    r.arena(&mut state.v)?;
    r.arena(&mut state.t)?;
    r.arena(&mut state.dp3d)?;
    r.arena(&mut state.qdp)?;
    r.arena(&mut state.phis)?;
    if r.pos != payload.len() {
        return Err(CheckpointError::Truncated);
    }
    Ok(meta)
}

/// Write one snapshot to `path` (atomic enough for a reproduction: write
/// to `<path>.tmp`, then rename).
pub fn write_file(
    path: &Path,
    state: &State,
    meta: &CheckpointMeta,
) -> Result<(), CheckpointError> {
    let bytes = encode(state, meta);
    let tmp = path.with_extension("tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// Restore `state` from the snapshot at `path`.
pub fn read_file(path: &Path, state: &mut State) -> Result<CheckpointMeta, CheckpointError> {
    let mut bytes = Vec::new();
    std::fs::File::open(path)?.read_to_end(&mut bytes)?;
    decode(&bytes, state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use homme::Dims;

    fn sample_state() -> State {
        let dims = Dims { nlev: 3, qsize: 2 };
        let mut st = State::zeros(dims, 4);
        for (i, x) in st.u.iter_mut().enumerate() {
            *x = (i as f64).sin() * 1.0e-3 + i as f64;
        }
        for (i, x) in st.v.iter_mut().enumerate() {
            *x = -(i as f64) * 0.5;
        }
        for (i, x) in st.t.iter_mut().enumerate() {
            *x = 250.0 + (i % 17) as f64;
        }
        for (i, x) in st.dp3d.iter_mut().enumerate() {
            *x = 100.0 + (i % 5) as f64;
        }
        for (i, x) in st.qdp.iter_mut().enumerate() {
            *x = 1.0e-3 * (i as f64 + 0.25);
        }
        for (i, x) in st.phis.iter_mut().enumerate() {
            *x = (i as f64) * 9.81;
        }
        st
    }

    #[test]
    fn roundtrip_is_bitwise() {
        let st = sample_state();
        let meta =
            CheckpointMeta { step: 42, remap_phase: 2, degrade_pending: 1, rank: 3, epoch: 1, time: 12_600.5 };
        let bytes = encode(&st, &meta);
        let mut restored = State::zeros(st.dims, st.nelem());
        let got = decode(&bytes, &mut restored).expect("decode");
        assert_eq!(got, meta);
        assert_eq!(restored.max_abs_diff(&st), 0.0);
        assert_eq!(restored.u, st.u);
        assert_eq!(restored.phis, st.phis);
    }

    #[test]
    fn corruption_is_detected() {
        let st = sample_state();
        let meta = CheckpointMeta { step: 1, remap_phase: 0, degrade_pending: 0, rank: 0, epoch: 0, time: 0.0 };
        let mut bytes = encode(&st, &meta);
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        let mut restored = State::zeros(st.dims, st.nelem());
        assert_eq!(decode(&bytes, &mut restored), Err(CheckpointError::CrcMismatch));
    }

    #[test]
    fn wrong_dims_and_truncation_are_rejected() {
        let st = sample_state();
        let meta = CheckpointMeta { step: 1, remap_phase: 0, degrade_pending: 0, rank: 0, epoch: 0, time: 0.0 };
        let bytes = encode(&st, &meta);

        let mut small = State::zeros(st.dims, 2);
        assert!(matches!(
            decode(&bytes, &mut small),
            Err(CheckpointError::DimsMismatch { .. })
        ));

        let mut restored = State::zeros(st.dims, st.nelem());
        assert_eq!(decode(b"NOTACKPTxxxx", &mut restored), Err(CheckpointError::BadMagic));
        // Blunt truncation loses the trailing CRC, so it reads as corrupt.
        assert_eq!(
            decode(&bytes[..bytes.len() / 2], &mut restored),
            Err(CheckpointError::CrcMismatch)
        );
        // A record cut short but re-CRC'd (e.g. a partial write that was
        // then checksummed) is caught by the payload-length check.
        let mut cut = bytes[..bytes.len() - 4 - 64].to_vec();
        let crc = crc32(&cut);
        cut.extend_from_slice(&crc.to_le_bytes());
        assert_eq!(decode(&cut, &mut restored), Err(CheckpointError::Truncated));
    }

    #[test]
    fn file_roundtrip() {
        let st = sample_state();
        let meta =
            CheckpointMeta { step: 7, remap_phase: 1, degrade_pending: 2, rank: 0, epoch: 2, time: 3600.0 };
        let dir = std::env::temp_dir().join("swckpt_test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("roundtrip.swckpt");
        write_file(&path, &st, &meta).expect("write");
        let mut restored = State::zeros(st.dims, st.nelem());
        let got = read_file(&path, &mut restored).expect("read");
        assert_eq!(got, meta);
        assert_eq!(restored.max_abs_diff(&st), 0.0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn encode_into_reuses_capacity() {
        let st = sample_state();
        let meta = CheckpointMeta { step: 0, remap_phase: 0, degrade_pending: 0, rank: 0, epoch: 0, time: 0.0 };
        let mut buf = Vec::new();
        encode_into(&st, &meta, &mut buf);
        let cap = buf.capacity();
        let ptr = buf.as_ptr();
        encode_into(&st, &meta, &mut buf);
        assert_eq!(buf.capacity(), cap);
        assert_eq!(buf.as_ptr(), ptr, "steady-state snapshot must not reallocate");
    }
}
