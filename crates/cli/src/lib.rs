//! # mpass-cli — command-line tooling
//!
//! The `mpass` binary exposes the reproduction's substrates as inspection
//! and experimentation tools:
//!
//! ```text
//! mpass gen      --out DIR [--malware N] [--benign N] [--seed S] [--macho-fraction F]
//! mpass inspect  FILE [--format pe|macho]  # headers, sections, imports, entropy
//! mpass disasm   FILE [--section NAME]     # MVM disassembly of a code section
//! mpass run      FILE [--format pe|macho]  # execute in the sandbox, print API trace
//! mpass verify   ORIGINAL MODIFIED         # functionality comparison
//! mpass pack     FILE --packer upx|pespin|aspack --out FILE
//! mpass attack   FILE --out FILE [--seed S]   # MPass one sample vs MalConv
//! mpass score    FILE [FILE...]               # MalConv scoring, one batch
//! mpass snapshot --out PATH                   # pack trained weights to a file
//! mpass serve    --socket PATH                # persistent scoring daemon
//! mpass campaign work --dir DIR               # join a campaign as a worker
//! mpass campaign status --dir DIR             # per-shard progress + reassignments
//! mpass campaign fault-matrix --out DIR       # seeded worker-kill sweep
//! ```
//!
//! Every file-taking subcommand auto-detects the container format by magic
//! (`MZ` → PE, the Mach-O magic family → Mach-O); `--format pe|macho`
//! overrides detection, and a file with no known magic is refused with the
//! typed [`mpass_binary::BinaryError::UnknownMagic`] message rather than a
//! PE-specific parse error.
//!
//! Subcommand implementations live here so they can be unit-tested; the
//! binary in `src/bin/mpass.rs` only parses arguments.

use mpass_binary::{BinaryFormat, BinaryImage, Format, ParseMode};
use mpass_corpus::{BenignPool, CorpusConfig, Dataset};
use mpass_detectors::train::{training_pairs, TrainingSet};
use mpass_detectors::{ByteConvConfig, Detector, LightGbm, MalConv, MalGcg, MalGcgConfig};
use mpass_experiments::report::flag_value;
use mpass_pe::{PeFile, SectionKind};
use mpass_sandbox::Sandbox;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::fmt::Write as _;
use std::path::Path;

/// Error string type used by all subcommands (messages go straight to the
/// user).
pub type CliResult = Result<String, String>;

fn read(path: &str) -> Result<Vec<u8>, String> {
    std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// Resolve a `--format` flag value. `None` (flag absent) means
/// auto-detect.
pub fn parse_format_flag(value: Option<&str>) -> Result<Option<Format>, String> {
    match value {
        None => Ok(None),
        Some(name) => Format::from_short_name(name)
            .map(Some)
            .ok_or_else(|| format!("unknown format {name:?} (pe|macho)")),
    }
}

/// Parse `bytes` as a binary image: by magic when `format` is `None`,
/// under the forced backend otherwise.
fn parse_image(bytes: &[u8], path: &str, format: Option<Format>) -> Result<BinaryImage, String> {
    match format {
        None => BinaryImage::parse_auto(bytes)
            .map_err(|e| format!("{path}: {e} (use --format pe|macho to override detection)")),
        Some(f) => BinaryImage::parse_as(f, bytes, ParseMode::LoaderTolerant)
            .map_err(|e| format!("{path}: not a valid {f}: {e}")),
    }
}


/// `mpass gen`: write a synthetic corpus to disk. `macho_fraction`
/// controls the Mach-O share of the corpus (0.0 keeps the historical
/// all-PE output, byte for byte). PE samples get an `.exe` suffix,
/// Mach-O samples `.macho`.
pub fn cmd_gen(
    out_dir: &str,
    n_malware: usize,
    n_benign: usize,
    seed: u64,
    macho_fraction: f64,
) -> CliResult {
    let dir = Path::new(out_dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {out_dir}: {e}"))?;
    let ds = Dataset::generate_mixed(
        &CorpusConfig {
            n_malware,
            n_benign,
            seed,
            no_slack_fraction: 0.1,
        },
        macho_fraction,
    );
    for s in &ds.samples {
        let ext = match s.format() {
            Format::Pe => "exe",
            Format::MachO => "macho",
        };
        let path = dir.join(format!("{}.{ext}", s.name));
        std::fs::write(&path, &s.bytes).map_err(|e| format!("write {path:?}: {e}"))?;
    }
    Ok(format!(
        "wrote {} samples ({} malware, {} benign) to {out_dir}",
        ds.samples.len(),
        n_malware,
        n_benign
    ))
}

/// `mpass inspect`: structural summary of a binary in any supported
/// format. The PE branch keeps its historical output; Mach-O gets the
/// analogous summary through the [`BinaryFormat`] trait.
pub fn cmd_inspect(path: &str, format: Option<Format>) -> CliResult {
    let bytes = read(path)?;
    match parse_image(&bytes, path, format)? {
        BinaryImage::Pe(pe) => inspect_pe(path, &bytes, &pe),
        BinaryImage::MachO(m) => inspect_macho(path, &bytes, &m),
    }
}

fn inspect_pe(path: &str, bytes: &[u8], pe: &PeFile) -> CliResult {
    let mut out = String::new();
    let _ = writeln!(out, "{path}: {} bytes", bytes.len());
    let _ = writeln!(
        out,
        "entry {:#x}  sections {}  image {:#x}  headers {:#x}  timestamp {:#x}",
        pe.entry_point(),
        pe.sections().len(),
        pe.optional().size_of_image,
        pe.optional().size_of_headers,
        pe.coff().time_date_stamp,
    );
    let _ = writeln!(
        out,
        "{:<10} {:>8} {:>10} {:>10} {:>9} {:>8}  kind",
        "name", "rva", "vsize", "rawsize", "entropy", "flags"
    );
    for s in pe.sections() {
        let h = s.header();
        let _ = writeln!(
            out,
            "{:<10} {:>8x} {:>10} {:>10} {:>9.3} {:>8x}  {}",
            s.name(),
            h.virtual_address,
            h.virtual_size,
            h.size_of_raw_data,
            s.entropy(),
            h.characteristics.0,
            s.kind(),
        );
    }
    if !pe.overlay().is_empty() {
        let _ = writeln!(
            out,
            "overlay: {} bytes, entropy {:.3}",
            pe.overlay().len(),
            mpass_pe::entropy(pe.overlay())
        );
    }
    match pe.imports() {
        Ok(Some(table)) => {
            for dll in &table.dlls {
                let names: Vec<&str> =
                    dll.entries.iter().filter_map(|e| e.name()).collect();
                let _ = writeln!(
                    out,
                    "imports {} ({} symbols): {}",
                    dll.dll,
                    dll.entries.len(),
                    names.join(", ")
                );
            }
        }
        Ok(None) => {
            let _ = writeln!(out, "imports: none");
        }
        Err(e) => {
            let _ = writeln!(out, "imports: malformed ({e})");
        }
    }
    let _ = writeln!(
        out,
        "statically visible suspicious API invocations: {}",
        mpass_detectors::features::suspicious_api_count(bytes)
    );
    Ok(out)
}

fn inspect_macho(path: &str, bytes: &[u8], m: &mpass_binary::MachoFile) -> CliResult {
    let mut out = String::new();
    let _ = writeln!(out, "{path}: {} bytes (mach-o)", bytes.len());
    let _ = writeln!(
        out,
        "entry {:#x}  sections {}  load commands {:#x} bytes",
        m.entry_point(),
        m.section_count(),
        m.sizeofcmds(),
    );
    let _ = writeln!(
        out,
        "{:<16} {:>10} {:>10} {:>10} {:>9}  kind",
        "name", "va", "vsize", "filesize", "entropy"
    );
    for i in 0..m.section_count() {
        let Some(meta) = m.section_meta(i) else { continue };
        let entropy = m.section_data(i).map(mpass_pe::entropy).unwrap_or(0.0);
        let _ = writeln!(
            out,
            "{:<16} {:>10x} {:>10} {:>10} {:>9.3}  {}",
            meta.name, meta.virtual_address, meta.virtual_size, meta.file_size, entropy, meta.kind,
        );
    }
    if !m.overlay().is_empty() {
        let _ = writeln!(
            out,
            "overlay: {} bytes, entropy {:.3}",
            m.overlay().len(),
            mpass_pe::entropy(m.overlay())
        );
    }
    match m.imports_summary() {
        Some(summary) => {
            let _ = writeln!(
                out,
                "linked libraries ({}): {}",
                summary.libraries,
                summary.symbols.join(", ")
            );
        }
        None => {
            let _ = writeln!(out, "linked libraries: none");
        }
    }
    let _ = writeln!(
        out,
        "statically visible suspicious API invocations: {}",
        mpass_detectors::features::suspicious_api_count(bytes)
    );
    Ok(out)
}

/// `mpass disasm`: MVM disassembly of a code section, in any supported
/// container format.
pub fn cmd_disasm(path: &str, section: Option<&str>, format: Option<Format>) -> CliResult {
    let bytes = read(path)?;
    let image = parse_image(&bytes, path, format)?;
    let metas: Vec<_> = (0..image.section_count())
        .filter_map(|i| image.section_meta(i).map(|m| (i, m)))
        .collect();
    let (index, meta) = match section {
        Some(name) => metas
            .into_iter()
            .find(|(_, m)| m.name == name)
            .ok_or_else(|| format!("no section named {name:?}"))?,
        None => metas
            .into_iter()
            .find(|(i, m)| {
                m.kind == SectionKind::Code
                    && image.section_data(*i).is_some_and(|d| !d.is_empty())
            })
            .ok_or_else(|| "no code section".to_owned())?,
    };
    let data = image.section_data(index).unwrap_or_default();
    let mut out = String::new();
    let _ = writeln!(out, "disassembly of {} ({} bytes):", meta.name, data.len());
    let base = meta.virtual_address;
    for (i, chunk) in data.chunks(mpass_vm::INSTR_SIZE).enumerate().take(512) {
        let addr = base + (i * mpass_vm::INSTR_SIZE) as u64;
        match mpass_vm::Instr::decode(chunk) {
            Ok(instr) => {
                let _ = writeln!(out, "  {addr:#08x}  {instr}");
            }
            Err(_) => {
                let _ = writeln!(out, "  {addr:#08x}  (data) {chunk:02x?}");
            }
        }
    }
    Ok(out)
}

/// `mpass run`: execute a binary in the sandbox.
pub fn cmd_run(path: &str, format: Option<Format>) -> CliResult {
    let bytes = read(path)?;
    let image = parse_image(&bytes, path, format)?;
    let exec = Sandbox::new().run_image(image.as_dyn());
    let mut out = String::new();
    let _ = writeln!(out, "outcome: {:?} after {} instructions", exec.outcome, exec.steps);
    for ev in &exec.trace {
        let marker = if ev.api.is_suspicious() { "!" } else { " " };
        let _ = writeln!(out, " {marker} {} (arg {:#x})", ev.api, ev.arg);
    }
    let _ = writeln!(out, "suspicious calls: {}", exec.suspicious_calls().count());
    Ok(out)
}

/// `mpass verify`: behaviour comparison of two files.
pub fn cmd_verify(original: &str, modified: &str) -> CliResult {
    let a = read(original)?;
    let b = read(modified)?;
    let verdict = Sandbox::new().verify_functionality(&a, &b);
    Ok(format!("functionality: {verdict}"))
}

/// `mpass pack`: apply one of the simulated packers (PE-only — the
/// packer profiles model Windows packers).
pub fn cmd_pack(path: &str, packer_name: &str, out_path: &str) -> CliResult {
    let bytes = read(path)?;
    let image = parse_image(&bytes, path, None)?;
    let pe = image
        .as_pe()
        .ok_or_else(|| format!("pack supports PE binaries only ({path} is {})", image.format()))?;
    let profile = mpass_baselines::packer_profiles()
        .into_iter()
        .find(|p| p.name.eq_ignore_ascii_case(packer_name))
        .ok_or_else(|| format!("unknown packer {packer_name:?} (upx|pespin|aspack)"))?;
    let packed = mpass_baselines::Packer::new(profile)
        .pack(pe)
        .map_err(|e| format!("packing failed: {e}"))?;
    std::fs::write(out_path, &packed).map_err(|e| format!("write {out_path}: {e}"))?;
    Ok(format!("packed with {} -> {out_path} ({} bytes)", profile.name, packed.len()))
}

/// `mpass attack`: run the full MPass pipeline on one file against a
/// freshly trained MalConv (demonstration scale). With `faults`, the
/// oracle channel injects a deterministic fault schedule seeded from the
/// given value, and the retry/fault counters are reported.
pub fn cmd_attack(
    path: &str,
    out_path: &str,
    seed: u64,
    faults: Option<u64>,
    format: Option<Format>,
) -> CliResult {
    use mpass_core::{Attack, HardLabelTarget, MPassAttack, MPassConfig, QueryBudget, RetryPolicy};
    use mpass_detectors::{FaultProfile, UnreliableOracle};
    use mpass_engine::metrics;
    let bytes = read(path)?;
    let image = parse_image(&bytes, path, format)?;
    let sample = mpass_corpus::Sample::new(
        Path::new(path).file_stem().map(|s| s.to_string_lossy().into_owned()).unwrap_or_default(),
        mpass_corpus::Label::Malware,
        image,
    );
    // Demonstration world: small corpus, tiny models.
    let ds = Dataset::generate(&CorpusConfig {
        n_malware: 24,
        n_benign: 24,
        seed,
        no_slack_fraction: 0.0,
    });
    let samples: Vec<_> = ds.samples.iter().collect();
    let pairs = training_pairs(&samples);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut target = MalConv::new(ByteConvConfig::tiny(), &mut rng);
    target.train(&pairs, 5, 5e-3, &mut rng);
    let mut surrogate = MalGcg::new(MalGcgConfig::tiny(), &mut rng);
    surrogate.train(&pairs, 5, 5e-3, &mut rng);
    let pool = BenignPool::generate(8, seed ^ 0xB00);

    let initial = target.classify(&sample.bytes);
    let config = MPassConfig::builder()
        .seed(seed)
        .build()
        .expect("default MPass config is valid");
    let mut attack = MPassAttack::new(vec![&surrogate], &pool, config);
    let unreliable =
        faults.map(|fault_seed| UnreliableOracle::new(&target, FaultProfile::seeded(fault_seed)));
    let mut oracle = match &unreliable {
        None => HardLabelTarget::new(&target, 100),
        Some(channel) => {
            HardLabelTarget::unreliable(channel, QueryBudget::new(100), RetryPolicy::default())
                .with_retry_seed(seed)
        }
    };
    let previous = metrics::install(metrics::Collector::default());
    let outcome = attack.attack(&sample, &mut oracle);
    let collected = metrics::take().unwrap_or_default().finish("attack", 0.0);
    if let Some(previous) = previous {
        metrics::install(previous);
    }
    let mut out = String::new();
    let _ = writeln!(out, "target MalConv verdict on input: {initial}");
    let _ = writeln!(
        out,
        "attack: evaded={} queries={} size {} -> {}",
        outcome.evaded, outcome.queries, outcome.original_size, outcome.final_size
    );
    if let Some(channel) = &unreliable {
        let counter = |name: &str| collected.counters.get(name).copied().unwrap_or(0);
        let _ = writeln!(
            out,
            "oracle faults: {} injected over {} submissions (retries {}, backoff {} ms, breaker opens {})",
            channel.faults_injected(),
            channel.submissions(),
            counter("oracle/retry"),
            counter("oracle/backoff_ms"),
            counter("oracle/breaker_open"),
        );
    }
    if let Some(ae) = outcome.adversarial {
        let verdict = Sandbox::new().verify_functionality(&sample.bytes, &ae);
        let _ = writeln!(out, "functionality: {verdict}");
        std::fs::write(out_path, &ae).map_err(|e| format!("write {out_path}: {e}"))?;
        let _ = writeln!(out, "adversarial example written to {out_path}");
    }
    Ok(out)
}

/// Train the demonstration-scale MalConv every serving-path command
/// uses (same corpus and hyperparameters as `mpass attack`'s world).
fn train_demo_malconv(seed: u64) -> MalConv {
    let ds = Dataset::generate(&CorpusConfig {
        n_malware: 24,
        n_benign: 24,
        seed,
        no_slack_fraction: 0.0,
    });
    let samples: Vec<_> = ds.samples.iter().collect();
    let pairs = training_pairs(&samples);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut target = MalConv::new(ByteConvConfig::tiny(), &mut rng);
    target.train(&pairs, 5, 5e-3, &mut rng);
    target
}

/// `mpass snapshot`: train the named demonstration detector and pack its
/// weights into a versioned, checksummed snapshot file. `mpass serve
/// --snapshot PATH` (and any out-of-process retrain pipeline) hot-loads
/// the file at O(read) cost with scores bit-identical to the model that
/// wrote it.
pub fn cmd_snapshot(out_path: &str, detector: &str, seed: u64) -> CliResult {
    let ds = Dataset::generate(&CorpusConfig {
        n_malware: 24,
        n_benign: 24,
        seed,
        no_slack_fraction: 0.0,
    });
    let samples: Vec<_> = ds.samples.iter().collect();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let snap = match detector {
        "malconv" => train_demo_malconv(seed).to_snapshot(),
        "nonneg" => {
            let mut m = MalConv::nonneg(ByteConvConfig::tiny(), &mut rng);
            m.train(&training_pairs(&samples), 5, 5e-3, &mut rng);
            m.to_snapshot()
        }
        "malgcg" => {
            let mut m = MalGcg::new(MalGcgConfig::tiny(), &mut rng);
            m.train(&training_pairs(&samples), 5, 5e-3, &mut rng);
            m.to_snapshot()
        }
        "lightgbm" => {
            let set = TrainingSet::new(&samples);
            LightGbm::train(&set, mpass_ml::GbdtParams::default(), &mut rng).to_snapshot()
        }
        other => {
            return Err(format!(
                "unknown detector {other:?} (malconv|nonneg|malgcg|lightgbm)"
            ))
        }
    };
    let bytes = snap.to_bytes();
    std::fs::write(out_path, &bytes).map_err(|e| format!("cannot write {out_path}: {e}"))?;
    Ok(format!("wrote {detector} snapshot ({} bytes) to {out_path}\n", bytes.len()))
}

/// `mpass score`: classify files with a freshly trained MalConv
/// (demonstration scale, same world as `mpass attack`), reported in
/// argument order. Every file is read first and all are scored in one
/// `score_batch` call, whose scores are bit-identical to sequential
/// `score` calls.
pub fn cmd_score(paths: &[&String], seed: u64) -> CliResult {
    if paths.is_empty() {
        return Err("score requires at least one FILE".to_owned());
    }
    let mut files = Vec::with_capacity(paths.len());
    for path in paths {
        files.push(read(path)?);
    }
    let target = train_demo_malconv(seed);
    let items: Vec<&[u8]> = files.iter().map(Vec::as_slice).collect();
    let mut scores = Vec::with_capacity(items.len());
    target.score_batch(&items, &mut scores);
    let threshold = target.threshold();
    let mut out = String::new();
    for (path, score) in paths.iter().zip(&scores) {
        let verdict = if *score > threshold {
            mpass_detectors::Verdict::Malicious
        } else {
            mpass_detectors::Verdict::Benign
        };
        let _ = writeln!(out, "{path}: score {score:.4} -> {verdict}");
    }
    Ok(out)
}

/// Options for `mpass serve`, one field per flag.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// `--socket PATH` (required).
    pub socket: std::path::PathBuf,
    /// `--seed S`: corpus/training seed for the demo model.
    pub seed: u64,
    /// `--batch N`: batch flush size.
    pub max_batch: usize,
    /// `--linger-ms MS`: partial-batch linger.
    pub linger_ms: u64,
    /// `--queue N`: scoring-queue bound (overload threshold).
    pub queue: usize,
    /// `--deadline-ms MS`: default per-request deadline.
    pub deadline_ms: u64,
    /// `--rate R`: per-tenant steady-state requests/second.
    pub rate: f64,
    /// `--burst B`: per-tenant token-bucket depth.
    pub burst: u32,
    /// `--tenant-budget N`: per-tenant delivered-verdict budget.
    pub tenant_budget: Option<usize>,
    /// `--metrics-out PATH`: flush a metrics file at drain.
    pub metrics_out: Option<std::path::PathBuf>,
    /// `--snapshot PATH`: serve the model in a weight-snapshot file
    /// instead of training in-process; `reload` re-reads the file.
    pub snapshot: Option<std::path::PathBuf>,
}

/// `mpass serve`: the persistent scoring daemon. Trains the same
/// demonstration MalConv as `mpass score` (or, with `--snapshot PATH`,
/// decodes a weight-snapshot file), serves it hot-reloadably on a Unix
/// socket, and blocks until a `shutdown` command or SIGTERM drains it. A
/// `reload` command retrains with an epoch-derived seed — or re-reads the
/// snapshot file, so a retrain elsewhere lands as an O(read) model swap.
pub fn cmd_serve(opts: &ServeOptions) -> CliResult {
    use mpass_serve::{run_with_sigterm, ReloadableModel, Server, ServerConfig, TenantPolicy};
    use std::sync::Arc;
    use std::time::Duration;

    let seed = opts.seed;
    let model = match &opts.snapshot {
        Some(path) => ReloadableModel::from_snapshot_file(path)?,
        None => ReloadableModel::new(
            Arc::new(train_demo_malconv(seed)),
            move |epoch| {
                // Weekly-learning producer: each epoch retrains on a corpus
                // drawn from an epoch-derived seed.
                let retrain_seed = seed ^ epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                Ok(Arc::new(train_demo_malconv(retrain_seed)) as Arc<dyn Detector>)
            },
        ),
    };
    let server = Server::new(
        &model,
        ServerConfig {
            socket: opts.socket.clone(),
            max_batch: opts.max_batch.max(1),
            linger: Duration::from_millis(opts.linger_ms),
            queue_capacity: opts.queue.max(1),
            default_deadline: Duration::from_millis(opts.deadline_ms.max(1)),
            tenant: TenantPolicy {
                rate_per_sec: opts.rate,
                burst: opts.burst,
                budget: opts.tenant_budget,
                ..TenantPolicy::default()
            },
            metrics_out: opts.metrics_out.clone(),
            seed,
        },
    );
    let summary = run_with_sigterm(&server)?;
    Ok(format!(
        "serve drained cleanly: admitted {} completed {} shed {} rejected {} \
         client_gone {} reloads {}\nlatency p50 {:.2} ms p99 {:.2} ms, throughput {:.1} req/s\n",
        summary.admitted,
        summary.completed,
        summary.shed,
        summary.rejected,
        summary.client_gone,
        summary.reloads,
        summary.p50_ms,
        summary.p99_ms,
        summary.throughput_rps,
    ))
}

/// `mpass engine-report`: human summary of one or more engine metrics
/// files written next to `results/*.json` by the experiment runners. A
/// directory argument is treated as a campaign directory (the
/// `results/<experiment>.campaign/` every campaign binary run leaves):
/// per-shard progress, reassignment counts and — once a distributed run
/// merged it — the merged metrics summary.
pub fn cmd_engine_report(paths: &[&String]) -> CliResult {
    if paths.is_empty() {
        return Err(
            "engine-report requires at least one METRICS.json path or campaign directory"
                .to_owned(),
        );
    }
    let mut out = String::new();
    for path in paths {
        let p = Path::new(path.as_str());
        if p.is_dir() {
            let status = mpass_experiments::orchestrator::campaign_status(p)?;
            out.push_str(&mpass_experiments::orchestrator::render_status(&status));
            let merged = p.join("merged.metrics.json");
            if merged.exists() {
                out.push_str(&mpass_engine::MetricsFile::load(&merged)?.summary());
            }
        } else {
            out.push_str(&mpass_engine::MetricsFile::load(p)?.summary());
        }
    }
    Ok(out)
}

/// `mpass campaign`: inspect and join campaign directories — the
/// `results/<experiment>.campaign/` of any campaign binary run, in
/// process or distributed — and run the process-fault matrix harness.
pub fn cmd_campaign(args: &[String]) -> CliResult {
    use mpass_experiments::orchestrator::{self, FaultMatrixOptions};

    let sub = args.first().map(|s| s.as_str()).unwrap_or("");
    let rest = args.get(1..).unwrap_or_default();
    match sub {
        "work" => {
            let opts = orchestrator::worker_options_from_args(rest)?;
            let summary = orchestrator::run_worker(&opts)?;
            Ok(format!(
                "worker {}: {} shard(s) run, {} failed\n",
                summary.worker_id, summary.shards_run, summary.shards_failed
            ))
        }
        "status" => {
            let dir = flag(rest, "--dir").ok_or("campaign status requires --dir DIR")?;
            let status = orchestrator::campaign_status(Path::new(dir))?;
            Ok(orchestrator::render_status(&status))
        }
        "fault-matrix" => {
            let out = flag(rest, "--out").ok_or("campaign fault-matrix requires --out DIR")?;
            // Workers are this very binary, re-entered through `campaign work`.
            let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
            let exe = exe.to_string_lossy().into_owned();
            let opts = FaultMatrixOptions {
                out: out.into(),
                seed: flag_value(rest, "--seed")?.unwrap_or(0xFA17),
                kills: flag_value(rest, "--kills")?.unwrap_or(3),
                processes: flag_value(rest, "--processes")?.unwrap_or(2),
                worker_cmd: vec![exe, "campaign".to_owned(), "work".to_owned()],
                samples: flag_value(rest, "--samples")?.unwrap_or(2),
            };
            orchestrator::run_fault_matrix(&opts)
        }
        "" | "help" => Ok(CAMPAIGN_USAGE.to_owned()),
        other => Err(format!("unknown campaign subcommand {other:?}\n\n{CAMPAIGN_USAGE}")),
    }
}

/// Usage text for `mpass campaign`.
pub const CAMPAIGN_USAGE: &str = "\
mpass campaign — campaign directories and the process-fault matrix

USAGE:
  mpass campaign work --dir DIR [--worker-id ID] [--ttl-ms MS]
                 [--heartbeat-ms MS] [--poll-ms MS] [--hold-ms MS]
                 [--kill-after N]
  mpass campaign status --dir DIR
  mpass campaign fault-matrix --out DIR [--seed S] [--kills N]
                 [--processes N] [--samples N]

Campaigns run through the campaign binaries (exp_offline, exp_commercial,
exp_packers, exp_ablation), which keep their state in
results/<experiment>.campaign/ — in process, or with --processes N across
worker processes that share shards through lease files. `work` joins such
a directory as one more worker (any terminal); `status` shows per-shard
progress and reassignments. `fault-matrix` sweeps seeded worker kills and
checks merged-vs-baseline byte identity.
";

/// Top-level usage text.
pub const USAGE: &str = "\
mpass — MPass (DAC 2023) reproduction toolkit

USAGE:
  mpass gen --out DIR [--malware N] [--benign N] [--seed S] [--macho-fraction F]
  mpass inspect FILE [--format pe|macho]
  mpass disasm FILE [--section NAME] [--format pe|macho]
  mpass run FILE [--format pe|macho]
  mpass verify ORIGINAL MODIFIED
  mpass pack FILE --packer upx|pespin|aspack --out FILE
  mpass attack FILE --out FILE [--seed S] [--faults SEED] [--format pe|macho]
  mpass score FILE [FILE ...] [--seed S]
  mpass snapshot --out PATH [--detector malconv|nonneg|malgcg|lightgbm] [--seed S]
  mpass serve --socket PATH [--seed S] [--batch N] [--linger-ms MS] [--queue N]
              [--deadline-ms MS] [--rate R] [--burst B] [--tenant-budget N]
              [--metrics-out PATH] [--snapshot PATH]
  mpass engine-report METRICS.json|CAMPAIGN_DIR [...]
  mpass campaign work|status|fault-matrix ... (see mpass campaign help)

Container formats are auto-detected by magic (MZ -> pe, Mach-O magic
family -> macho); --format forces one backend.
";

/// Tiny flag parser: `--name value` pairs after positional arguments.
/// Numeric flags go through [`flag_value`], which refuses a malformed
/// value instead of falling back to the default.
pub fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(|s| s.as_str())
}

/// Dispatch a parsed command line (everything after the program name).
pub fn dispatch(args: &[String]) -> CliResult {
    let cmd = args.first().map(|s| s.as_str()).unwrap_or("");
    let positional: Vec<&String> =
        args.iter().skip(1).take_while(|a| !a.starts_with("--")).collect();
    let seed = flag_value(args, "--seed")?.unwrap_or(0xDAC2023);
    let format = parse_format_flag(flag(args, "--format"))?;
    match cmd {
        "gen" => {
            let out = flag(args, "--out").ok_or("gen requires --out DIR")?;
            let m = flag_value(args, "--malware")?.unwrap_or(10);
            let b = flag_value(args, "--benign")?.unwrap_or(10);
            let f = flag_value(args, "--macho-fraction")?.unwrap_or(0.0);
            cmd_gen(out, m, b, seed, f)
        }
        "inspect" => cmd_inspect(positional.first().ok_or("inspect requires FILE")?, format),
        "disasm" => cmd_disasm(
            positional.first().ok_or("disasm requires FILE")?,
            flag(args, "--section"),
            format,
        ),
        "run" => cmd_run(positional.first().ok_or("run requires FILE")?, format),
        "verify" => {
            let orig = positional.first().ok_or("verify requires ORIGINAL MODIFIED")?;
            let modified = positional.get(1).ok_or("verify requires ORIGINAL MODIFIED")?;
            cmd_verify(orig, modified)
        }
        "pack" => cmd_pack(
            positional.first().ok_or("pack requires FILE")?,
            flag(args, "--packer").ok_or("pack requires --packer")?,
            flag(args, "--out").ok_or("pack requires --out FILE")?,
        ),
        "attack" => cmd_attack(
            positional.first().ok_or("attack requires FILE")?,
            flag(args, "--out").ok_or("attack requires --out FILE")?,
            seed,
            flag_value(args, "--faults")?,
            format,
        ),
        "score" => cmd_score(&positional, seed),
        "snapshot" => cmd_snapshot(
            flag(args, "--out").ok_or("snapshot requires --out PATH")?,
            flag(args, "--detector").unwrap_or("malconv"),
            seed,
        ),
        "serve" => cmd_serve(&ServeOptions {
            socket: flag(args, "--socket").ok_or("serve requires --socket PATH")?.into(),
            seed,
            max_batch: flag_value(args, "--batch")?.unwrap_or(32),
            linger_ms: flag_value(args, "--linger-ms")?.unwrap_or(2),
            queue: flag_value(args, "--queue")?.unwrap_or(256),
            deadline_ms: flag_value(args, "--deadline-ms")?.unwrap_or(1_000),
            rate: flag_value(args, "--rate")?.unwrap_or(200.0),
            burst: flag_value(args, "--burst")?.unwrap_or(50),
            tenant_budget: flag_value(args, "--tenant-budget")?,
            metrics_out: flag(args, "--metrics-out").map(Into::into),
            snapshot: flag(args, "--snapshot").map(Into::into),
        }),
        "engine-report" => cmd_engine_report(&positional),
        "campaign" => cmd_campaign(args.get(1..).unwrap_or_default()),
        "" | "help" | "--help" | "-h" => Ok(USAGE.to_owned()),
        other => Err(format!("unknown command {other:?}\n\n{USAGE}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fresh directory per call: tests run in parallel and each removes
    /// its directory when done, so no two may share one.
    fn tempdir() -> std::path::PathBuf {
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("mpass-cli-test-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn gen_inspect_run_verify_round_trip() {
        let dir = tempdir();
        let out = dir.join("corpus");
        let msg = dispatch(&strings(&[
            "gen",
            "--out",
            out.to_str().unwrap(),
            "--malware",
            "2",
            "--benign",
            "1",
            "--seed",
            "5",
        ]))
        .unwrap();
        assert!(msg.contains("wrote 3 samples"));
        let mal = out.join("mal_0.exe");
        let mal_str = mal.to_str().unwrap();

        let info = dispatch(&strings(&["inspect", mal_str])).unwrap();
        assert!(info.contains(".data"));
        assert!(info.contains("suspicious API invocations"));

        let dis = dispatch(&strings(&["disasm", mal_str])).unwrap();
        assert!(dis.contains("callapi"));

        let run = dispatch(&strings(&["run", mal_str])).unwrap();
        assert!(run.contains("Halted"));
        assert!(run.contains("suspicious calls"));

        let verify = dispatch(&strings(&["verify", mal_str, mal_str])).unwrap();
        assert!(verify.contains("preserved"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pack_produces_functional_output() {
        let dir = tempdir();
        let out = dir.join("c2");
        dispatch(&strings(&["gen", "--out", out.to_str().unwrap(), "--malware", "1", "--benign", "0"]))
            .unwrap();
        let mal = out.join("mal_0.exe");
        let packed = out.join("packed.exe");
        let msg = dispatch(&strings(&[
            "pack",
            mal.to_str().unwrap(),
            "--packer",
            "upx",
            "--out",
            packed.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(msg.contains("packed with UPX"));
        let verify = dispatch(&strings(&[
            "verify",
            mal.to_str().unwrap(),
            packed.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(verify.contains("preserved"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn macho_gen_inspect_disasm_run_round_trip() {
        let dir = tempdir();
        let out = dir.join("macho-corpus");
        let msg = dispatch(&strings(&[
            "gen",
            "--out",
            out.to_str().unwrap(),
            "--malware",
            "2",
            "--benign",
            "1",
            "--seed",
            "3",
            "--macho-fraction",
            "1.0",
        ]))
        .unwrap();
        assert!(msg.contains("wrote 3 samples"));
        let mal = out.join("mal_0.macho");
        let mal_str = mal.to_str().unwrap();
        assert!(mal.exists(), "fraction 1.0 must emit .macho files");

        // Auto-detected by magic: no --format needed.
        let info = dispatch(&strings(&["inspect", mal_str])).unwrap();
        assert!(info.contains("mach-o"), "{info}");
        assert!(info.contains("__data"), "{info}");
        assert!(info.contains("libSystem"), "{info}");

        let dis = dispatch(&strings(&["disasm", mal_str])).unwrap();
        assert!(dis.contains("disassembly of __"), "{dis}");
        assert!(dis.contains("callapi"), "{dis}");

        let run = dispatch(&strings(&["run", mal_str, "--format", "macho"])).unwrap();
        assert!(run.contains("Halted"), "{run}");

        // The explicit override refuses a mismatched backend.
        let forced = dispatch(&strings(&["inspect", mal_str, "--format", "pe"]));
        assert!(forced.is_err(), "Mach-O bytes must not parse as PE");

        // PE-only subcommands fail cleanly instead of mangling the file.
        let packed = out.join("packed.macho");
        let err = dispatch(&strings(&[
            "pack",
            mal_str,
            "--packer",
            "upx",
            "--out",
            packed.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.contains("PE binaries only"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_magic_is_a_typed_refusal() {
        let dir = tempdir();
        let bogus = dir.join("not-a-binary");
        std::fs::write(&bogus, b"#!/bin/sh\necho hello\n").unwrap();
        let err = dispatch(&strings(&["inspect", bogus.to_str().unwrap()])).unwrap_err();
        assert!(err.contains("unknown container magic"), "{err}");
        assert!(err.contains("--format"), "the refusal must mention the override: {err}");
        assert!(dispatch(&strings(&["inspect", bogus.to_str().unwrap(), "--format", "nope"]))
            .unwrap_err()
            .contains("unknown format"));
        std::fs::remove_file(&bogus).ok();
    }

    #[test]
    fn gen_without_fraction_stays_all_pe() {
        let dir = tempdir();
        let out = dir.join("pe-only");
        dispatch(&strings(&["gen", "--out", out.to_str().unwrap(), "--malware", "1", "--benign", "1"]))
            .unwrap();
        assert!(out.join("mal_0.exe").exists());
        assert!(out.join("ben_0.exe").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_command_and_help() {
        assert!(dispatch(&strings(&["bogus"])).is_err());
        assert!(dispatch(&strings(&["help"])).unwrap().contains("USAGE"));
        assert!(dispatch(&[]).unwrap().contains("USAGE"));
    }

    /// A malformed numeric flag is an error naming the flag, raised
    /// before any work, never a silent fall-back to the default.
    #[test]
    fn malformed_numeric_flags_are_errors_naming_the_flag() {
        let cases: [(&[&str], &str); 5] = [
            (&["attack", "/nonexistent/f.exe", "--out", "o.exe", "--faults", "abc"], "--faults"),
            (&["campaign", "fault-matrix", "--out", "/nonexistent/fm", "--kills", "x"], "--kills"),
            (&["gen", "--out", "/nonexistent/c", "--malware", "2.5"], "--malware"),
            (&["score", "/nonexistent/f.exe", "--seed"], "--seed"),
            (
                &["serve", "--socket", "/nonexistent/s.sock", "--tenant-budget", "lots"],
                "--tenant-budget",
            ),
        ];
        for (args, flag) in cases {
            let err = dispatch(&strings(args)).unwrap_err();
            assert!(err.starts_with(flag), "{args:?}: {err}");
        }
    }

    #[test]
    fn flag_parser() {
        let args = strings(&["cmd", "pos", "--out", "x", "--seed", "7"]);
        assert_eq!(flag(&args, "--out"), Some("x"));
        assert_eq!(flag(&args, "--seed"), Some("7"));
        assert_eq!(flag(&args, "--nope"), None);
    }

    #[test]
    fn engine_report_summarizes_metrics_file() {
        use mpass_engine::{metrics, Engine, EngineConfig, MetricsFile, Shard};
        let engine = Engine::new(EngineConfig { workers: 1, seed: 7 });
        let run = engine.run(vec![Shard::new("demo shard", ())], |_ctx, ()| {
            metrics::counter("queries", 3);
        });
        let file = MetricsFile::from_run("cli-test", &run);
        let dir = tempdir();
        let path = dir.join("cli-test.metrics.json");
        file.save(&path).unwrap();
        let out = dispatch(&strings(&["engine-report", path.to_str().unwrap()])).unwrap();
        assert!(out.contains("experiment `cli-test`"));
        assert!(out.contains("demo shard"));
        assert!(out.contains("3 queries"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn score_reports_every_file_in_argument_order() {
        let dir = tempdir();
        let out = dir.join("score-corpus");
        dispatch(&strings(&[
            "gen",
            "--out",
            out.to_str().unwrap(),
            "--malware",
            "3",
            "--benign",
            "2",
            "--seed",
            "9",
        ]))
        .unwrap();
        let files: Vec<String> = ["mal_0", "ben_0", "mal_1", "ben_1", "mal_2"]
            .iter()
            .map(|n| out.join(format!("{n}.exe")).to_str().unwrap().to_owned())
            .collect();
        let mut args = vec!["score".to_owned()];
        args.extend(files.iter().cloned());
        args.extend(["--seed", "9"].map(String::from));
        let msg = dispatch(&args).unwrap();
        let reported: Vec<&str> =
            msg.lines().map(|l| l.split(": score ").next().unwrap()).collect();
        assert_eq!(reported, files, "{msg}");
        assert!(dispatch(&strings(&["score"])).is_err());
        std::fs::remove_dir_all(&out).ok();
    }

    #[test]
    fn engine_report_requires_a_path() {
        assert!(dispatch(&strings(&["engine-report"])).is_err());
    }

    #[test]
    fn serve_requires_a_socket() {
        assert!(dispatch(&strings(&["serve"])).is_err());
    }

    #[test]
    fn snapshot_writes_a_loadable_bit_identical_model() {
        let dir = tempdir();
        let path = dir.join("malconv.mpss");
        let msg = dispatch(&strings(&[
            "snapshot",
            "--out",
            path.to_str().unwrap(),
            "--seed",
            "11",
        ]))
        .unwrap();
        assert!(msg.contains("malconv snapshot"), "{msg}");

        // The file decodes into a detector scoring bit-identically to the
        // demo model it captured.
        let snap = mpass_ml::Snapshot::load_file(&path).expect("snapshot decodes");
        let reloaded = mpass_detectors::detector_from_snapshot(&snap).expect("rebuilds");
        let fresh = train_demo_malconv(11);
        for bytes in [&b"MZ\x90\x00"[..], &[0u8; 0][..], &[0x41; 600][..]] {
            assert_eq!(fresh.score(bytes).to_bits(), reloaded.score(bytes).to_bits());
        }

        assert!(dispatch(&strings(&["snapshot"])).is_err(), "--out is required");
        assert!(
            dispatch(&strings(&[
                "snapshot",
                "--out",
                path.to_str().unwrap(),
                "--detector",
                "mystery",
            ]))
            .is_err(),
            "unknown detectors are refused"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_boots_from_a_snapshot_file() {
        use mpass_serve::{Response, ServeClient};
        let dir = tempdir();
        let snap_path = dir.join("serve-model.mpss");
        dispatch(&strings(&["snapshot", "--out", snap_path.to_str().unwrap(), "--seed", "7"]))
            .unwrap();
        let socket = dir.join("serve-snap.sock");
        let daemon = {
            let args = strings(&[
                "serve",
                "--socket",
                socket.to_str().unwrap(),
                "--snapshot",
                snap_path.to_str().unwrap(),
            ]);
            std::thread::spawn(move || dispatch(&args))
        };
        let mut client = ServeClient::connect_retry(&socket, std::time::Duration::from_secs(60))
            .expect("daemon must come up");
        assert!(matches!(client.ping(1).unwrap(), Response::Pong { epoch: 1, .. }));
        match client.score(2, "cli-test", b"MZ\x90\x00", Some(30_000)).unwrap() {
            Response::Score(resp) => assert_eq!(resp.epoch, 1),
            other => panic!("expected a score, got {other:?}"),
        }
        // Reload re-reads the snapshot file instead of retraining.
        assert!(matches!(client.reload(3).unwrap(), Response::Reloaded { epoch: 2, .. }));
        client.shutdown(4).unwrap();
        let msg = daemon.join().unwrap().unwrap();
        assert!(msg.contains("drained cleanly"), "{msg}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_boots_scores_reloads_and_drains() {
        use mpass_serve::{Response, ServeClient};
        let dir = tempdir();
        let out = dir.join("serve-corpus");
        dispatch(&strings(&[
            "gen",
            "--out",
            out.to_str().unwrap(),
            "--malware",
            "1",
            "--benign",
            "1",
            "--seed",
            "9",
        ]))
        .unwrap();
        let mal = std::fs::read(out.join("mal_0.exe")).unwrap();
        let socket = dir.join("serve-test.sock");
        let metrics = dir.join("serve.metrics.json");
        let daemon = {
            let args = strings(&[
                "serve",
                "--socket",
                socket.to_str().unwrap(),
                "--seed",
                "9",
                "--batch",
                "4",
                "--linger-ms",
                "1",
                "--metrics-out",
                metrics.to_str().unwrap(),
            ]);
            std::thread::spawn(move || dispatch(&args))
        };
        let mut client = ServeClient::connect_retry(&socket, std::time::Duration::from_secs(60))
            .expect("daemon must come up");
        assert!(matches!(client.ping(1).unwrap(), Response::Pong { epoch: 1, .. }));
        match client.score(2, "cli-test", &mal, Some(30_000)).unwrap() {
            Response::Score(resp) => assert_eq!(resp.epoch, 1),
            other => panic!("expected a score, got {other:?}"),
        }
        // Hot reload retrains the demo model and bumps the epoch.
        assert!(matches!(client.reload(3).unwrap(), Response::Reloaded { epoch: 2, .. }));
        match client.score(4, "cli-test", &mal, Some(30_000)).unwrap() {
            Response::Score(resp) => assert_eq!(resp.epoch, 2),
            other => panic!("expected a score, got {other:?}"),
        }
        client.shutdown(5).unwrap();
        let msg = daemon.join().unwrap().unwrap();
        assert!(msg.contains("drained cleanly"), "{msg}");
        assert!(msg.contains("admitted 2"), "{msg}");
        assert!(metrics.exists(), "drain must flush the metrics file");
        let report =
            dispatch(&strings(&["engine-report", metrics.to_str().unwrap()])).unwrap();
        assert!(report.contains("serve"), "{report}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
