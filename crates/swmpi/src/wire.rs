//! Byte-level helpers shared by every binary codec in the workspace: the
//! `SWFR` frame codec ([`crate::tcp`]) and the `SWCKPT02` checkpoint codec
//! in `swcam-core`. One checksum, one way to lay `f64`s out as bytes.

/// Slicing-by-8 tables for the reflected IEEE polynomial: `T[0]` is the
/// classic byte-wise table, `T[k][i]` is the CRC of byte `i` followed by
/// `k` zero bytes — so eight input bytes fold into the register with
/// eight independent lookups instead of eight dependent ones.
static TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// CRC-32 (IEEE 802.3, reflected, init and final XOR `0xFFFF_FFFF`) of
/// `bytes`, eight bytes per iteration with a byte-wise tail.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = !0u32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Append `src` to `out` as little-endian bytes: one resize, one pass.
pub fn put_f64s_le(out: &mut Vec<u8>, src: &[f64]) {
    let start = out.len();
    out.resize(start + src.len() * 8, 0);
    for (dst, x) in out[start..].chunks_exact_mut(8).zip(src) {
        dst.copy_from_slice(&x.to_le_bytes());
    }
}

/// Replace the contents of `out` with the `f64`s stored little-endian in
/// `raw` (`raw.len()` a multiple of 8). Reuses `out`'s capacity.
pub fn get_f64s_le(raw: &[u8], out: &mut Vec<f64>) {
    debug_assert_eq!(raw.len() % 8, 0);
    out.clear();
    out.extend(raw.chunks_exact(8).map(|c| f64::from_le_bytes(c.try_into().expect("8 bytes"))));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The textbook bit-at-a-time CRC-32: no tables, nothing shared with
    /// the routine under test.
    fn bytewise_reference(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 { 0xEDB8_8320 ^ (crc >> 1) } else { crc >> 1 };
            }
        }
        !crc
    }

    fn noise(len: usize) -> Vec<u8> {
        (0..len as u64).map(|i| crate::fault::splitmix64(i) as u8).collect()
    }

    #[test]
    fn crc32_known_answer() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_matches_bytewise_reference_at_every_length_and_offset() {
        // Every split of head words and tail bytes, at every alignment of
        // the slice start within a word.
        let data = noise(8 + 64);
        for offset in 0..8 {
            for len in 0..=64 {
                let s = &data[offset..offset + len];
                assert_eq!(crc32(s), bytewise_reference(s), "offset {offset} len {len}");
            }
        }
        // One aggregated ne8 / 2-rank halo frame's worth of bytes.
        let frame = noise(158 * 1024 + 5);
        assert_eq!(crc32(&frame), bytewise_reference(&frame));
    }

    #[test]
    fn f64_bytes_roundtrip_bitwise() {
        let src = [0.0, -0.0, 1.5, f64::NAN, f64::INFINITY, f64::MIN_POSITIVE, -2.25e300];
        let mut bytes = vec![0xAAu8; 3];
        put_f64s_le(&mut bytes, &src);
        assert_eq!(bytes.len(), 3 + src.len() * 8);
        assert_eq!(&bytes[..3], &[0xAA; 3], "appends, does not overwrite");
        assert_eq!(&bytes[3 + 16..3 + 24], &1.5f64.to_le_bytes());
        let mut back = vec![9.0; 2];
        get_f64s_le(&bytes[3..], &mut back);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back), bits(&src));
    }
}
