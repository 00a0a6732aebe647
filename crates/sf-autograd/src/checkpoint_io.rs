//! Parameter-store checkpointing: a simple self-describing binary format
//! (no external dependencies), used to pause/resume training and to ship
//! the MLPerf-style "initialized from predefined checkpoint" setting.
//!
//! Format (version 2, little-endian):
//! ```text
//! magic   b"SFCK"            4 bytes
//! version u32                  = 2
//! count   u64                  number of parameters
//! repeat count times:
//!   name_len u32, name bytes (UTF-8)
//!   rank u32, dims u64 x rank
//!   data f32 x prod(dims)
//!   crc32 u32                  CRC-32 (IEEE) of name + dims + data bytes
//! ```
//!
//! Any other version, the CRC-less version 1 included, is rejected with
//! [`CheckpointError::Format`]. [`ParamStore::save_file`] is atomic: the
//! bytes land in a temporary file in the target directory, are fsynced,
//! and are renamed over the destination — a crash mid-write never leaves
//! a torn checkpoint under the final name.

use crate::params::ParamStore;
use sf_tensor::Tensor;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 4] = b"SFCK";
const VERSION: u32 = 2;

/// Errors from checkpoint (de)serialization.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file is not a ScaleFold checkpoint or is a newer version.
    Format(String),
    /// The file parses but a tensor's CRC does not match (bit rot, torn
    /// write, or deliberate corruption).
    Corrupt {
        /// Parameter whose payload failed verification.
        name: String,
        /// CRC stored in the file.
        expected: u32,
        /// CRC of the bytes actually read.
        actual: u32,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint i/o error: {e}"),
            CheckpointError::Format(m) => write!(f, "invalid checkpoint: {m}"),
            CheckpointError::Corrupt {
                name,
                expected,
                actual,
            } => write!(
                f,
                "corrupt checkpoint: parameter '{name}' crc {actual:#010x} != stored {expected:#010x}"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), table-driven.
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    const TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 {
                    0xEDB88320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                k += 1;
            }
            table[i] = c;
            i += 1;
        }
        table
    };

    /// Starts a fresh digest.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Absorbs `bytes`.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state = Self::TABLE[((self.state ^ b as u32) & 0xFF) as usize] ^ (self.state >> 8);
        }
    }

    /// Finishes the digest.
    pub fn finalize(self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }

    /// One-shot digest of `bytes`.
    pub fn of(bytes: &[u8]) -> u32 {
        let mut c = Crc32::new();
        c.update(bytes);
        c.finalize()
    }
}

/// Result of scanning a checkpoint directory for the newest valid file.
#[derive(Debug)]
pub struct LatestCheckpoint {
    /// The store loaded from the newest valid file.
    pub store: ParamStore,
    /// Path it was loaded from.
    pub path: PathBuf,
    /// Step number parsed from the file name, if the name carries one.
    pub step: Option<u64>,
    /// Newer files that were skipped as corrupt/unreadable, newest first.
    pub skipped: Vec<(PathBuf, String)>,
}

impl ParamStore {
    /// Serializes every parameter to `writer` in the checkpoint format
    /// (per-tensor CRC32).
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Io`] on write failure.
    pub fn save_to<W: Write>(&self, mut writer: W) -> Result<(), CheckpointError> {
        writer.write_all(MAGIC)?;
        writer.write_all(&VERSION.to_le_bytes())?;
        writer.write_all(&(self.len() as u64).to_le_bytes())?;
        for (name, tensor) in self.iter() {
            let mut crc = Crc32::new();
            let bytes = name.as_bytes();
            writer.write_all(&(bytes.len() as u32).to_le_bytes())?;
            writer.write_all(bytes)?;
            crc.update(bytes);
            writer.write_all(&(tensor.rank() as u32).to_le_bytes())?;
            for &d in tensor.dims() {
                let le = (d as u64).to_le_bytes();
                writer.write_all(&le)?;
                crc.update(&le);
            }
            for &x in tensor.data() {
                let le = x.to_le_bytes();
                writer.write_all(&le)?;
                crc.update(&le);
            }
            writer.write_all(&crc.finalize().to_le_bytes())?;
        }
        Ok(())
    }

    /// Deserializes a checkpoint produced by [`ParamStore::save_to`],
    /// verifying every tensor's CRC.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Format`] if the magic/version mismatch
    /// or the stream is truncated, [`CheckpointError::Corrupt`] if a
    /// tensor's CRC fails, and [`CheckpointError::Io`] on read failure.
    pub fn load_from<R: Read>(mut reader: R) -> Result<Self, CheckpointError> {
        let mut magic = [0u8; 4];
        reader.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(CheckpointError::Format("bad magic".into()));
        }
        let version = read_u32(&mut reader)?;
        if version != VERSION {
            return Err(CheckpointError::Format(format!(
                "unsupported version {version}"
            )));
        }
        let count = read_u64(&mut reader)? as usize;
        let mut store = ParamStore::new();
        for _ in 0..count {
            let mut crc = Crc32::new();
            let name_len = read_u32(&mut reader)? as usize;
            if name_len > 1 << 20 {
                return Err(CheckpointError::Format("oversized name".into()));
            }
            let mut name_bytes = vec![0u8; name_len];
            reader.read_exact(&mut name_bytes)?;
            crc.update(&name_bytes);
            let name = String::from_utf8(name_bytes)
                .map_err(|_| CheckpointError::Format("non-utf8 parameter name".into()))?;
            let rank = read_u32(&mut reader)? as usize;
            if rank > 16 {
                return Err(CheckpointError::Format("implausible tensor rank".into()));
            }
            let mut dims = Vec::with_capacity(rank);
            for _ in 0..rank {
                let mut buf = [0u8; 8];
                reader.read_exact(&mut buf)?;
                crc.update(&buf);
                dims.push(u64::from_le_bytes(buf) as usize);
            }
            let elems: usize = dims.iter().product();
            if elems > 1 << 31 {
                return Err(CheckpointError::Format("implausible tensor size".into()));
            }
            let mut data = Vec::with_capacity(elems);
            let mut buf = [0u8; 4];
            for _ in 0..elems {
                reader.read_exact(&mut buf)?;
                crc.update(&buf);
                data.push(f32::from_le_bytes(buf));
            }
            let expected = read_u32(&mut reader)?;
            let actual = crc.finalize();
            if expected != actual {
                return Err(CheckpointError::Corrupt {
                    name,
                    expected,
                    actual,
                });
            }
            let tensor = Tensor::from_vec(data, &dims)
                .map_err(|e| CheckpointError::Format(format!("tensor: {e}")))?;
            store.insert(name, tensor);
        }
        Ok(store)
    }

    /// Saves to a file path **atomically**: writes `<path>.tmp-<pid>`,
    /// fsyncs it, and renames it over `path`. A crash mid-save leaves at
    /// worst a stale temp file, never a torn checkpoint at `path`.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Io`] on file-system failure.
    pub fn save_file(&self, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
        let path = path.as_ref();
        let tmp = temp_sibling(path);
        let result = (|| -> Result<(), CheckpointError> {
            let f = std::fs::File::create(&tmp)?;
            let mut w = io::BufWriter::new(f);
            self.save_to(&mut w)?;
            w.flush()?;
            w.get_ref().sync_all()?;
            std::fs::rename(&tmp, path)?;
            Ok(())
        })();
        if result.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        result
    }

    /// Loads from a file path.
    ///
    /// # Errors
    ///
    /// See [`ParamStore::load_from`].
    pub fn load_file(path: impl AsRef<Path>) -> Result<Self, CheckpointError> {
        let f = std::fs::File::open(path)?;
        Self::load_from(io::BufReader::new(f))
    }

    /// Scans `dir` for `*.sfck` checkpoints, newest first (by the step
    /// number embedded in the file name, falling back to name order), and
    /// loads the newest file that passes CRC/format verification —
    /// corrupt or truncated files are skipped and reported, not fatal.
    ///
    /// Returns `Ok(None)` if the directory holds no checkpoint files at
    /// all.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Io`] if the directory cannot be read,
    /// or the *last* *decoding* error if every candidate file is invalid.
    pub fn load_latest_valid(
        dir: impl AsRef<Path>,
    ) -> Result<Option<LatestCheckpoint>, CheckpointError> {
        let mut candidates: Vec<(Option<u64>, PathBuf)> = std::fs::read_dir(dir.as_ref())?
            .filter_map(|entry| {
                let path = entry.ok()?.path();
                (path.extension().and_then(|e| e.to_str()) == Some("sfck"))
                    .then(|| (step_from_name(&path), path))
            })
            .collect();
        // Newest first: highest parsed step, then reverse-lexicographic.
        candidates.sort_by(|a, b| b.cmp(a));
        if candidates.is_empty() {
            return Ok(None);
        }
        let mut skipped = Vec::new();
        let mut last_err = None;
        for (step, path) in candidates {
            match Self::load_file(&path) {
                Ok(store) => {
                    return Ok(Some(LatestCheckpoint {
                        store,
                        path,
                        step,
                        skipped,
                    }))
                }
                Err(e) => {
                    skipped.push((path, e.to_string()));
                    last_err = Some(e);
                }
            }
        }
        Err(last_err.unwrap_or_else(|| CheckpointError::Format("no checkpoint candidates".into())))
    }
}

/// Extracts a trailing step number from names like `ckpt-000042.sfck`.
fn step_from_name(path: &Path) -> Option<u64> {
    let stem = path.file_stem()?.to_str()?;
    let digits: String = stem
        .chars()
        .rev()
        .take_while(char::is_ascii_digit)
        .collect::<Vec<_>>()
        .into_iter()
        .rev()
        .collect();
    digits.parse().ok()
}

fn temp_sibling(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(format!(".tmp-{}", std::process::id()));
    path.with_file_name(name)
}

fn read_u32<R: Read>(reader: &mut R) -> Result<u32, CheckpointError> {
    let mut buf = [0u8; 4];
    reader.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

fn read_u64<R: Read>(reader: &mut R) -> Result<u64, CheckpointError> {
    let mut buf = [0u8; 8];
    reader.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_store() -> ParamStore {
        let mut s = ParamStore::new();
        s.insert("a.weight", Tensor::randn(&[3, 4], 1));
        s.insert("a.bias", Tensor::randn(&[4], 2));
        s.insert("scalarish", Tensor::scalar(2.5));
        s
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sf_ckpt_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    #[test]
    fn crc32_known_vector() {
        // The classic IEEE test vector.
        assert_eq!(Crc32::of(b"123456789"), 0xCBF43926);
        assert_eq!(Crc32::of(b""), 0);
    }

    #[test]
    fn round_trip_in_memory() {
        let store = sample_store();
        let mut buf = Vec::new();
        store.save_to(&mut buf).expect("write to vec");
        let loaded = ParamStore::load_from(buf.as_slice()).expect("read back");
        assert_eq!(loaded.len(), store.len());
        for (name, t) in store.iter() {
            assert_eq!(loaded.get(name).expect("present"), t, "{name}");
        }
    }

    #[test]
    fn round_trip_via_file() {
        let dir = temp_dir("roundtrip");
        let store = sample_store();
        let path = dir.join("ckpt.sfck");
        store.save_file(&path).expect("save");
        let loaded = ParamStore::load_file(&path).expect("load");
        assert_eq!(loaded.get("a.weight"), store.get("a.weight"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flip_in_payload_is_detected() {
        let store = sample_store();
        let mut buf = Vec::new();
        store.save_to(&mut buf).expect("write");
        // Flip one bit inside the first tensor's data region (past the
        // 16-byte header and the first name).
        let idx = buf.len() / 2;
        buf[idx] ^= 0x10;
        // A flip in tensor data surfaces as Corrupt; one in a length
        // field may misalign the stream into a Format or EOF error — any
        // typed error counts, a silent success does not.
        assert!(
            ParamStore::load_from(buf.as_slice()).is_err(),
            "corruption not detected"
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(matches!(
            ParamStore::load_from(&b"NOTACKPT"[..]),
            Err(CheckpointError::Format(_))
        ));
        // Truncated stream.
        let store = sample_store();
        let mut buf = Vec::new();
        store.save_to(&mut buf).expect("write");
        buf.truncate(buf.len() / 2);
        assert!(ParamStore::load_from(buf.as_slice()).is_err());
    }

    #[test]
    fn rejects_future_version() {
        // 99 is from the future; 1 is the retired CRC-less format.
        for version in [99u32, 1] {
            let mut buf = Vec::new();
            buf.extend_from_slice(MAGIC);
            buf.extend_from_slice(&version.to_le_bytes());
            buf.extend_from_slice(&0u64.to_le_bytes());
            assert!(
                matches!(
                    ParamStore::load_from(buf.as_slice()),
                    Err(CheckpointError::Format(_))
                ),
                "version {version}"
            );
        }
    }

    #[test]
    fn empty_store_round_trips() {
        let store = ParamStore::new();
        let mut buf = Vec::new();
        store.save_to(&mut buf).expect("write");
        let loaded = ParamStore::load_from(buf.as_slice()).expect("read");
        assert!(loaded.is_empty());
    }

    #[test]
    fn save_file_leaves_no_temp_behind() {
        let dir = temp_dir("atomic");
        let path = dir.join("ckpt-000001.sfck");
        sample_store().save_file(&path).expect("save");
        let names: Vec<_> = std::fs::read_dir(&dir)
            .expect("readdir")
            .map(|e| e.expect("entry").file_name().into_string().expect("utf8"))
            .collect();
        assert_eq!(names, vec!["ckpt-000001.sfck"], "{names:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_latest_valid_skips_corrupt_newest() {
        let dir = temp_dir("latest");
        let store = sample_store();
        store
            .save_file(dir.join("ckpt-000010.sfck"))
            .expect("save old");
        store
            .save_file(dir.join("ckpt-000020.sfck"))
            .expect("save new");
        // Corrupt the newest file.
        let newest = dir.join("ckpt-000020.sfck");
        let mut bytes = std::fs::read(&newest).expect("read");
        let idx = bytes.len() - 10;
        bytes[idx] ^= 0xFF;
        std::fs::write(&newest, bytes).expect("rewrite");

        let latest = ParamStore::load_latest_valid(&dir)
            .expect("scan")
            .expect("found one");
        assert_eq!(latest.step, Some(10));
        assert!(latest.path.ends_with("ckpt-000010.sfck"));
        assert_eq!(latest.skipped.len(), 1);
        assert_eq!(latest.store.len(), store.len());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_latest_valid_empty_dir_is_none() {
        let dir = temp_dir("empty");
        assert!(ParamStore::load_latest_valid(&dir).expect("scan").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_latest_valid_all_corrupt_is_error() {
        let dir = temp_dir("allbad");
        std::fs::write(dir.join("ckpt-000001.sfck"), b"garbage").expect("write");
        assert!(ParamStore::load_latest_valid(&dir).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
