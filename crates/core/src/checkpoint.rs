//! The checkpoint file format: a versioned, CRC-protected container for
//! the engine-state blob every backend produces at a barrier round.
//!
//! Layout (all integers LEB128 varints unless noted):
//!
//! ```text
//! magic    4 bytes  b"SSCP"
//! version  varint   format version (currently 1)
//! seed     varint   simulation seed (identity check on resume)
//! shards   varint   number of shards in the engine blob
//! tick     varint   barrier tick the state was captured at
//! round    varint   checkpoint ordinal (tick / interval)
//! terms    varint   terminal count (identity check on resume)
//! routers  varint   router count (identity check on resume)
//! blob     bytes    length-prefixed engine-state blob
//!                   (trace section + per-shard blobs, the uniform
//!                   layout every engine backend writes)
//! crc      4 bytes  little-endian CRC-32 of everything above
//! ```
//!
//! Reads are *total*: any truncation, garbage, or bit flip yields a typed
//! [`CheckpointError`], never a panic. The resume path additionally
//! verifies the identity fields against the freshly built simulation so a
//! checkpoint cannot be restored into a different configuration.
//!
//! Writes go through a temporary file in the same directory followed by a
//! rename, so a crash mid-write never leaves a torn file that a later
//! recovery pass could mistake for a completed checkpoint.

use std::fmt;
use std::path::{Path, PathBuf};

use supersim_des::wire::{crc32, get_bytes, get_u8, get_varint, put_bytes, put_varint};
use supersim_des::Tick;

/// File magic: the first four bytes of every checkpoint.
pub const MAGIC: [u8; 4] = *b"SSCP";

/// Current format version. Version 2 lays every router out as the
/// shared core sections around its pipeline's own state; a version-1
/// file is rejected with [`CheckpointError::Version`].
pub const VERSION: u64 = 2;

/// The decoded checkpoint header (everything before the engine blob).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointHeader {
    /// Format version of the file.
    pub version: u64,
    /// Simulation seed the run was started with.
    pub seed: u64,
    /// Number of shards whose state the blob carries.
    pub num_shards: u32,
    /// Barrier tick the state was captured at.
    pub tick: Tick,
    /// Checkpoint ordinal (1 for the first boundary).
    pub round: u64,
    /// Terminal count of the configuration.
    pub terminals: u32,
    /// Router count of the configuration.
    pub routers: u32,
}

/// Everything `ssreport --checkpoint` prints: the header plus the blob
/// layout and integrity status.
#[derive(Debug, Clone)]
pub struct CheckpointInfo {
    /// The decoded header.
    pub header: CheckpointHeader,
    /// Whether the CRC-32 footer matches the file contents.
    pub crc_ok: bool,
    /// Size of the trace section inside the blob, if one is present.
    pub trace_bytes: Option<usize>,
    /// Per-shard blob sizes in shard order.
    pub shard_bytes: Vec<usize>,
    /// Total file size in bytes.
    pub file_bytes: usize,
}

/// Errors from reading or writing a checkpoint file.
#[derive(Debug)]
pub enum CheckpointError {
    /// The file could not be read or written.
    Io {
        /// The path involved.
        path: PathBuf,
        /// The underlying I/O error.
        error: std::io::Error,
    },
    /// The file is not a parseable checkpoint (bad magic, truncated
    /// header, malformed framing).
    Malformed(&'static str),
    /// The file parses but its format version is not supported.
    Version(u64),
    /// The CRC-32 footer does not match the contents — the file was
    /// corrupted (or truncated mid-blob).
    Corrupt,
    /// The checkpoint belongs to a different simulation (seed, shard
    /// count, or network size disagree with the built configuration).
    Mismatch(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io { path, error } => {
                write!(f, "{}: {error}", path.display())
            }
            CheckpointError::Malformed(what) => {
                write!(f, "not a checkpoint file: {what}")
            }
            CheckpointError::Version(v) => {
                write!(f, "unsupported checkpoint version {v} (expected {VERSION})")
            }
            CheckpointError::Corrupt => {
                write!(f, "checkpoint CRC mismatch — the file is corrupted")
            }
            CheckpointError::Mismatch(why) => {
                write!(f, "checkpoint does not match this simulation: {why}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io { error, .. } => Some(error),
            _ => None,
        }
    }
}

/// Serializes a checkpoint into its wire form (header + blob + CRC).
pub fn encode(header: &CheckpointHeader, blob: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(blob.len() + 64);
    out.extend_from_slice(&MAGIC);
    put_varint(&mut out, header.version);
    put_varint(&mut out, header.seed);
    put_varint(&mut out, u64::from(header.num_shards));
    put_varint(&mut out, header.tick);
    put_varint(&mut out, header.round);
    put_varint(&mut out, u64::from(header.terminals));
    put_varint(&mut out, u64::from(header.routers));
    put_bytes(&mut out, blob);
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

fn decode_header(buf: &mut &[u8]) -> Result<CheckpointHeader, CheckpointError> {
    use CheckpointError::Malformed;
    if buf.len() < MAGIC.len() || buf[..MAGIC.len()] != MAGIC {
        return Err(Malformed("bad magic"));
    }
    *buf = &buf[MAGIC.len()..];
    let version = get_varint(buf).ok_or(Malformed("truncated header"))?;
    if version != VERSION {
        return Err(CheckpointError::Version(version));
    }
    let seed = get_varint(buf).ok_or(Malformed("truncated header"))?;
    let num_shards = get_varint(buf)
        .and_then(|v| u32::try_from(v).ok())
        .ok_or(Malformed("bad shard count"))?;
    let tick = get_varint(buf).ok_or(Malformed("truncated header"))?;
    let round = get_varint(buf).ok_or(Malformed("truncated header"))?;
    let terminals = get_varint(buf)
        .and_then(|v| u32::try_from(v).ok())
        .ok_or(Malformed("bad terminal count"))?;
    let routers = get_varint(buf)
        .and_then(|v| u32::try_from(v).ok())
        .ok_or(Malformed("bad router count"))?;
    Ok(CheckpointHeader {
        version,
        seed,
        num_shards,
        tick,
        round,
        terminals,
        routers,
    })
}

/// Decodes a checkpoint image into its header and engine-state blob.
///
/// Total: every malformation maps to a [`CheckpointError`]. The CRC is
/// verified over the whole image; a mismatch is [`CheckpointError::Corrupt`].
pub fn decode(image: &[u8]) -> Result<(CheckpointHeader, Vec<u8>), CheckpointError> {
    use CheckpointError::Malformed;
    if image.len() < 4 {
        return Err(Malformed("shorter than the CRC footer"));
    }
    let (body, footer) = image.split_at(image.len() - 4);
    let stored = u32::from_le_bytes(footer.try_into().expect("4-byte footer"));
    let mut buf = body;
    let header = decode_header(&mut buf)?;
    let blob = get_bytes(&mut buf).ok_or(Malformed("truncated blob"))?;
    if !buf.is_empty() {
        return Err(Malformed("trailing bytes after blob"));
    }
    if crc32(body) != stored {
        return Err(CheckpointError::Corrupt);
    }
    Ok((header, blob.to_vec()))
}

/// Writes a checkpoint file atomically (temporary file + rename).
pub fn write_file(
    path: &Path,
    header: &CheckpointHeader,
    blob: &[u8],
) -> Result<(), CheckpointError> {
    let image = encode(header, blob);
    let io = |error| CheckpointError::Io {
        path: path.to_path_buf(),
        error,
    };
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).map_err(io)?;
        }
    }
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, &image).map_err(io)?;
    std::fs::rename(&tmp, path).map_err(io)?;
    Ok(())
}

/// Reads and fully validates a checkpoint file.
pub fn read_file(path: &Path) -> Result<(CheckpointHeader, Vec<u8>), CheckpointError> {
    let image = std::fs::read(path).map_err(|error| CheckpointError::Io {
        path: path.to_path_buf(),
        error,
    })?;
    decode(&image)
}

/// Inspects a checkpoint file without requiring it to be intact: the
/// header and blob layout are decoded structurally and the CRC status is
/// *reported* rather than enforced, so `ssreport --checkpoint` can
/// describe a corrupted file instead of refusing it. Structural damage
/// (bad magic, truncated framing) still errors.
pub fn inspect_file(path: &Path) -> Result<CheckpointInfo, CheckpointError> {
    use CheckpointError::Malformed;
    let image = std::fs::read(path).map_err(|error| CheckpointError::Io {
        path: path.to_path_buf(),
        error,
    })?;
    if image.len() < 4 {
        return Err(Malformed("shorter than the CRC footer"));
    }
    let (body, footer) = image.split_at(image.len() - 4);
    let stored = u32::from_le_bytes(footer.try_into().expect("4-byte footer"));
    let mut buf = body;
    let header = decode_header(&mut buf)?;
    let blob = get_bytes(&mut buf).ok_or(Malformed("truncated blob"))?;
    if !buf.is_empty() {
        return Err(Malformed("trailing bytes after blob"));
    }
    // Peel the uniform engine-blob framing: trace section, then one
    // length-prefixed blob per shard.
    let mut inner = blob;
    let marker = get_u8(&mut inner).ok_or(Malformed("empty engine blob"))?;
    let trace_bytes = match marker {
        0 => None,
        1 => Some(
            get_bytes(&mut inner)
                .ok_or(Malformed("truncated trace section"))?
                .len(),
        ),
        _ => return Err(Malformed("bad trace marker")),
    };
    let shards = get_varint(&mut inner)
        .and_then(|v| usize::try_from(v).ok())
        .ok_or(Malformed("bad blob shard count"))?;
    if shards != header.num_shards as usize {
        return Err(Malformed("blob shard count disagrees with header"));
    }
    let mut shard_bytes = Vec::with_capacity(shards);
    for _ in 0..shards {
        shard_bytes.push(
            get_bytes(&mut inner)
                .ok_or(Malformed("truncated shard blob"))?
                .len(),
        );
    }
    if !inner.is_empty() {
        return Err(Malformed("trailing bytes inside engine blob"));
    }
    Ok(CheckpointInfo {
        header,
        crc_ok: crc32(body) == stored,
        trace_bytes,
        shard_bytes,
        file_bytes: image.len(),
    })
}

/// The canonical file name for checkpoint `round` inside `dir`.
pub fn round_path(dir: &Path, round: u64) -> PathBuf {
    dir.join(format!("ckpt-{round:08}.ssckpt"))
}

/// The highest-round checkpoint file in `dir`, if any. Only files named
/// by [`round_path`] are considered; temporaries and foreign files are
/// ignored.
pub fn latest_in_dir(dir: &Path) -> Option<PathBuf> {
    let entries = std::fs::read_dir(dir).ok()?;
    let mut best: Option<(u64, PathBuf)> = None;
    for entry in entries.flatten() {
        let name = entry.file_name();
        let name = name.to_str()?;
        let round = name
            .strip_prefix("ckpt-")
            .and_then(|s| s.strip_suffix(".ssckpt"))
            .and_then(|s| s.parse::<u64>().ok());
        if let Some(round) = round {
            if best.as_ref().is_none_or(|&(b, _)| round > b) {
                best = Some((round, entry.path()));
            }
        }
    }
    best.map(|(_, p)| p)
}

/// The first barrier boundary strictly after `tick` on an `interval` grid.
pub fn next_boundary(tick: Tick, interval: Tick) -> Tick {
    (tick / interval + 1).saturating_mul(interval)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> CheckpointHeader {
        CheckpointHeader {
            version: VERSION,
            seed: 12345,
            num_shards: 2,
            tick: 20_000,
            round: 2,
            terminals: 16,
            routers: 8,
        }
    }

    /// A minimal engine blob: no trace, two shard blobs.
    fn blob() -> Vec<u8> {
        let mut b = vec![0u8];
        put_varint(&mut b, 2);
        put_bytes(&mut b, &[1, 2, 3]);
        put_bytes(&mut b, &[4, 5]);
        b
    }

    #[test]
    fn encode_decode_round_trip() {
        let image = encode(&header(), &blob());
        let (h, b) = decode(&image).expect("decodes");
        assert_eq!(h, header());
        assert_eq!(b, blob());
    }

    #[test]
    fn file_round_trip_and_inspect() {
        let dir = std::env::temp_dir().join(format!("ssckpt-test-{}", std::process::id()));
        let path = round_path(&dir, 2);
        write_file(&path, &header(), &blob()).expect("writes");
        let (h, b) = read_file(&path).expect("reads");
        assert_eq!(h, header());
        assert_eq!(b, blob());
        let info = inspect_file(&path).expect("inspects");
        assert!(info.crc_ok);
        assert_eq!(info.trace_bytes, None);
        assert_eq!(info.shard_bytes, vec![3, 2]);
        assert_eq!(latest_in_dir(&dir), Some(path));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bit_flip_is_corrupt_not_panic() {
        let image = encode(&header(), &blob());
        // Flip one bit in every byte position past the magic; each must
        // produce a typed error (Corrupt for payload damage, Malformed /
        // Version if the flip breaks framing first), never a panic or a
        // silent success.
        for i in MAGIC.len()..image.len() {
            let mut bad = image.clone();
            bad[i] ^= 0x40;
            assert!(decode(&bad).is_err(), "flip at byte {i} must not decode");
        }
    }

    #[test]
    fn truncation_is_total() {
        let image = encode(&header(), &blob());
        for len in 0..image.len() {
            assert!(decode(&image[..len]).is_err(), "prefix {len} must error");
        }
    }

    #[test]
    fn garbage_is_total() {
        let mut noise = Vec::new();
        let mut x: u64 = 0x2545_F491_4F6C_DD1D;
        for _ in 0..4096 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            noise.push(x as u8);
        }
        for len in [0, 1, 7, 64, 4096] {
            assert!(decode(&noise[..len]).is_err());
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let mut image = encode(&header(), &blob());
        image[0] = b'X';
        assert!(matches!(decode(&image), Err(CheckpointError::Malformed(_))));
    }

    #[test]
    fn future_version_rejected() {
        let h = CheckpointHeader {
            version: VERSION + 1,
            ..header()
        };
        let image = encode(&h, &blob());
        assert!(matches!(decode(&image), Err(CheckpointError::Version(_))));
    }

    /// Version-1 files predate the shared router layout; their state
    /// blobs would misparse, so the header check must turn them away.
    #[test]
    fn version_1_router_layout_rejected() {
        let h = CheckpointHeader {
            version: 1,
            ..header()
        };
        let image = encode(&h, &blob());
        assert!(matches!(decode(&image), Err(CheckpointError::Version(1))));
    }

    #[test]
    fn boundary_grid() {
        assert_eq!(next_boundary(0, 100), 100);
        assert_eq!(next_boundary(99, 100), 100);
        assert_eq!(next_boundary(100, 100), 200);
        assert_eq!(next_boundary(101, 100), 200);
    }
}
