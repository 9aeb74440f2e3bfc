//! Campaign manifest: the durable description of a campaign that every
//! run of it — in process or a worker process — loads or checks.
//!
//! The manifest pins everything a shard's result depends on — world
//! configuration, engine seed, fault schedule, and the exact shard grid
//! in engine input order — so any worker, on any restart, rebuilds the
//! same world and runs the same work. [`Manifest::open`] guards resumes:
//! a run restarted with different flags refuses to mix new work into an
//! old campaign directory, and a config hash over the manifest body
//! catches a manifest edited on disk.

use crate::world::WorldConfig;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// Manifest schema version; bumped on incompatible layout changes.
pub const MANIFEST_VERSION: u64 = 1;

/// Which experiment family the campaign shards belong to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CampaignKind {
    /// Tables I–III: attacks against the four offline detectors.
    Offline,
    /// Figure 3: attacks against the five commercial AVs.
    Commercial,
}

impl CampaignKind {
    /// The default target roster for this kind, in table order.
    pub fn default_targets(self) -> Vec<String> {
        match self {
            CampaignKind::Offline => {
                ["MalConv", "NonNeg", "LightGBM", "MalGCG"].iter().map(|s| (*s).into()).collect()
            }
            CampaignKind::Commercial => (1..=5).map(|i| format!("AV{i}")).collect(),
        }
    }

    /// The kind's full campaign grid: every roster attack
    /// ([`crate::offline::ATTACK_NAMES`]) against every default target.
    pub fn default_grid(self) -> Vec<ShardSpec> {
        grid(&crate::offline::ATTACK_NAMES, &self.default_targets())
    }

    /// The experiment name used in metrics files and results paths.
    pub fn experiment_name(self) -> &'static str {
        match self {
            CampaignKind::Offline => "offline",
            CampaignKind::Commercial => "commercial",
        }
    }
}

impl fmt::Display for CampaignKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.experiment_name())
    }
}

/// One shard of the campaign grid: an (attack, target) cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardSpec {
    /// Engine shard label (`"<attack> vs <target>"`) — also the key the
    /// label-keyed shard seed derives from, so results are invariant
    /// under worker count and process placement.
    pub label: String,
    /// Filesystem-safe name for the shard's journal and lease files,
    /// prefixed with the grid index so directory listings sort in
    /// manifest (= engine input) order.
    pub slug: String,
    /// Attack name (a [`crate::offline::ATTACK_NAMES`] member).
    pub attack: String,
    /// Target detector / AV name.
    pub target: String,
}

impl ShardSpec {
    /// Grid cell `index`: `attack` against `target`, labelled
    /// `"<attack> vs <target>"`.
    pub fn new(index: usize, attack: &str, target: &str) -> ShardSpec {
        let label = format!("{attack} vs {target}");
        ShardSpec {
            slug: slugify(index, &label),
            label,
            attack: attack.to_owned(),
            target: target.to_owned(),
        }
    }

    /// The shard's append-only journal file in campaign directory `dir`.
    pub fn journal_path(&self, dir: &Path) -> PathBuf {
        dir.join("shards").join(format!("{}.jsonl", self.slug))
    }

    /// The shard's lease file in campaign directory `dir`.
    pub fn lease_path(&self, dir: &Path) -> PathBuf {
        dir.join("leases").join(format!("{}.lease", self.slug))
    }
}

/// The campaign grid over `targets` × `attacks`: targets outer, attacks
/// inner. This order is engine input order, manifest order and report
/// order, for every runner.
pub fn grid(attacks: &[impl AsRef<str>], targets: &[impl AsRef<str>]) -> Vec<ShardSpec> {
    targets
        .iter()
        .flat_map(|target| attacks.iter().map(move |attack| (attack, target)))
        .enumerate()
        .map(|(index, (attack, target))| ShardSpec::new(index, attack.as_ref(), target.as_ref()))
        .collect()
}

/// The manifest itself. Serialized pretty at `<dir>/manifest.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Manifest {
    /// Schema version ([`MANIFEST_VERSION`]).
    pub version: u64,
    /// Experiment family.
    pub kind: CampaignKind,
    /// The full world configuration every worker rebuilds.
    pub world: WorldConfig,
    /// Engine seed the label-keyed shard seeds derive from.
    pub seed: u64,
    /// Oracle fault-injection seed, if the campaign runs under faults.
    pub faults: Option<u64>,
    /// The shard grid in engine input order.
    pub shards: Vec<ShardSpec>,
    /// FNV-1a hex digest over the manifest with this field blanked;
    /// validated on load so a resume cannot mix configurations.
    pub config_hash: String,
}

impl Manifest {
    /// Build a manifest over the [`grid`] of `targets` × `attacks`.
    pub fn new(
        kind: CampaignKind,
        world: WorldConfig,
        seed: u64,
        faults: Option<u64>,
        attacks: &[String],
        targets: &[String],
    ) -> Manifest {
        let mut manifest = Manifest {
            version: MANIFEST_VERSION,
            kind,
            world,
            seed,
            faults,
            shards: grid(attacks, targets),
            config_hash: String::new(),
        };
        manifest.config_hash = manifest.compute_hash();
        manifest
    }

    /// The digest the `config_hash` field must carry.
    fn compute_hash(&self) -> String {
        let mut blanked = self.clone();
        blanked.config_hash = String::new();
        let json = serde_json::to_string(&blanked).expect("manifest serializes");
        format!("{:016x}", fnv1a(json.as_bytes()))
    }

    /// Where the manifest lives inside a campaign directory.
    pub fn path(dir: &Path) -> PathBuf {
        dir.join("manifest.json")
    }

    /// Write the manifest (atomically) and create the campaign
    /// directory skeleton (`shards/`, `leases/`).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir.join("shards"))?;
        std::fs::create_dir_all(dir.join("leases"))?;
        let json = serde_json::to_string_pretty(self)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        write_atomic(&Self::path(dir), json.as_bytes())
    }

    /// Load and validate the manifest of an existing campaign directory.
    ///
    /// # Errors
    ///
    /// Filesystem errors, parse errors, a version mismatch, or a config
    /// hash that no longer matches the body (the manifest was edited or
    /// written by an incompatible build).
    pub fn load(dir: &Path) -> io::Result<Manifest> {
        let path = Self::path(dir);
        let text = std::fs::read_to_string(&path)?;
        let manifest: Manifest = serde_json::from_str(&text)
            .map_err(|e| invalid(format!("{}: {e}", path.display())))?;
        if manifest.version != MANIFEST_VERSION {
            return Err(invalid(format!(
                "{}: manifest version {} (this build speaks {MANIFEST_VERSION})",
                path.display(),
                manifest.version
            )));
        }
        if manifest.config_hash != manifest.compute_hash() {
            return Err(invalid(format!(
                "{}: config hash mismatch — the manifest was edited or written by an \
                 incompatible configuration",
                path.display()
            )));
        }
        Ok(manifest)
    }

    /// Open campaign directory `dir` for a run of this manifest, the one
    /// step every run takes before any shard work. A fresh run deletes
    /// whatever `dir` holds and writes the manifest, so recovered records
    /// can only come from *this* campaign. A `resume` run keeps `dir` and
    /// its journals, but only if the manifest stored there equals this
    /// one; a directory with no manifest yet starts fresh.
    ///
    /// # Errors
    ///
    /// Filesystem errors, an unreadable stored manifest, or a stored
    /// manifest that differs from this one (the message names the
    /// differing fields).
    pub fn open(&self, dir: &Path, resume: bool) -> Result<(), String> {
        if resume && Self::path(dir).exists() {
            let stored = Self::load(dir).map_err(|e| format!("cannot resume: {e}"))?;
            let differs: Vec<&str> = [
                ("kind", stored.kind != self.kind),
                ("world", stored.world != self.world),
                ("seed", stored.seed != self.seed),
                ("faults", stored.faults != self.faults),
                ("shards", stored.shards != self.shards),
            ]
            .into_iter()
            .filter_map(|(field, differs)| differs.then_some(field))
            .collect();
            if differs.is_empty() {
                return Ok(());
            }
            return Err(format!(
                "cannot resume {}: its manifest differs in {} from the campaign these flags \
                 describe; rerun without --resume to start over",
                dir.display(),
                differs.join(", ")
            ));
        }
        match std::fs::remove_dir_all(dir) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(format!("reset {}: {e}", dir.display())),
        }
        self.save(dir).map_err(|e| format!("write {}: {e}", Self::path(dir).display()))
    }
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// 64-bit FNV-1a, the same cheap content hash the engine uses for
/// label-keyed seeds.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// `<idx>-<label>` with the label lowercased and squeezed to
/// `[a-z0-9-]`, e.g. shard 3 of `"MPass vs MalConv"` →
/// `"003-mpass-vs-malconv"`.
pub fn slugify(index: usize, label: &str) -> String {
    let mut slug = format!("{index:03}-");
    let mut last_dash = false;
    for ch in label.chars() {
        if ch.is_ascii_alphanumeric() {
            slug.extend(ch.to_lowercase());
            last_dash = false;
        } else if !last_dash {
            slug.push('-');
            last_dash = true;
        }
    }
    slug.trim_end_matches('-').to_owned()
}

/// Write `bytes` to `path` via a sibling `.tmp` file and an atomic
/// rename, so readers never observe a half-written file and a kill
/// mid-write leaves only a disposable temporary behind.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let name = path
        .file_name()
        .ok_or_else(|| invalid(format!("{}: no file name", path.display())))?;
    let tmp = path.with_file_name(format!("{}.tmp", name.to_string_lossy()));
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("mpass-manifest-tests")
            .join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn demo_manifest() -> Manifest {
        Manifest::new(
            CampaignKind::Offline,
            WorldConfig::quick(),
            7,
            Some(99),
            &["MPass".into(), "GAMMA".into()],
            &["MalConv".into(), "NonNeg".into()],
        )
    }

    #[test]
    fn grid_matches_engine_input_order() {
        let m = demo_manifest();
        let labels: Vec<&str> = m.shards.iter().map(|s| s.label.as_str()).collect();
        // Targets outer, attacks inner — like the in-process runners.
        assert_eq!(
            labels,
            ["MPass vs MalConv", "GAMMA vs MalConv", "MPass vs NonNeg", "GAMMA vs NonNeg"]
        );
        assert_eq!(m.shards[2].slug, "002-mpass-vs-nonneg");
        assert_eq!(m.shards[2].attack, "MPass");
        assert_eq!(m.shards[2].target, "NonNeg");
    }

    #[test]
    fn save_load_round_trips_and_validates() {
        let dir = temp_dir("round-trip");
        let m = demo_manifest();
        m.save(&dir).unwrap();
        assert!(dir.join("shards").is_dir() && dir.join("leases").is_dir());
        let back = Manifest::load(&dir).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.faults, Some(99));

        // Tampering with the body invalidates the hash.
        let path = Manifest::path(&dir);
        let edited = std::fs::read_to_string(&path).unwrap().replace("\"seed\": 7", "\"seed\": 8");
        std::fs::write(&path, edited).unwrap();
        let err = Manifest::load(&dir).unwrap_err();
        assert!(err.to_string().contains("config hash mismatch"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_resets_fresh_runs_and_guards_resumes() {
        let dir = temp_dir("open");
        let m = demo_manifest();
        // Resuming a directory with no manifest yet starts fresh.
        m.open(&dir, true).unwrap();
        assert_eq!(Manifest::load(&dir).unwrap(), m);
        let journal = m.shards[0].journal_path(&dir);
        std::fs::write(&journal, "{}\n").unwrap();

        // A resume of the same campaign keeps the journals.
        m.open(&dir, true).unwrap();
        assert!(journal.exists());

        // A resume under other flags is refused and touches nothing.
        let mut world = m.world.clone();
        world.attack_samples += 1;
        let targets = ["MalConv".into()];
        let changed = Manifest::new(m.kind, world, m.seed, None, &["MPass".into()], &targets);
        let err = changed.open(&dir, true).unwrap_err();
        assert!(err.contains("world, faults, shards"), "{err}");
        assert!(err.contains("--resume"), "{err}");
        assert_eq!(Manifest::load(&dir).unwrap(), m);
        assert!(journal.exists());

        // A fresh run resets the directory.
        changed.open(&dir, false).unwrap();
        assert_eq!(Manifest::load(&dir).unwrap(), changed);
        assert!(!journal.exists());
        assert!(dir.join("shards").is_dir() && dir.join("leases").is_dir());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn slug_squeezes_to_filesystem_safe() {
        assert_eq!(slugify(0, "MPass vs MalConv"), "000-mpass-vs-malconv");
        assert_eq!(slugify(12, "A//B  C!"), "012-a-b-c");
    }

    #[test]
    fn write_atomic_replaces_and_cleans_up() {
        let dir = temp_dir("atomic");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.json");
        write_atomic(&path, b"first").unwrap();
        write_atomic(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        assert!(!path.with_file_name("out.json.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
