//! The detect/soak path: generate → dispatch → gate → probe →
//! checkpoint, on either shard backend.
//!
//! [`run`] is one repeat: set up (rules pack, hitlist, pool, child
//! `Init`), then stream the shape's hours through the pool with one
//! dirty-only delta checkpoint per simulated hour, each followed by a
//! burst of verdict queries on the pool at rest, then `finish`. Only
//! the program's ingest calls sit inside the timed window; the query
//! bursts, digests and counter reads stay out of it.

use crate::util::{self, ms, Ledger, Route, Shape};
use haystack_core::detector::DetectorConfig;
use haystack_core::parallel::{DetectorPool, ShardBackend, DEFAULT_REPLAY_LIMIT};
use haystack_core::telemetry::{self, Scope, Snapshot};
use haystack_core::{CheckpointDir, DetectorSnapshot, HitList, ProcPool, ProcPoolOptions};
use haystack_net::AnonId;
use haystack_wild::{RecordChunk, RecordStream, SoakConfig, SoakStream, DEFAULT_CHUNK_RECORDS};
use std::path::Path;
use std::time::{Duration, Instant};

/// What one soak pass is asked to do.
#[derive(Clone, Copy)]
pub struct Plan<'a> {
    pub route: Route,
    pub shape: Shape,
    pub seed: u64,
    pub hours: u32,
    /// Record spans around every call into the program.
    pub traced: bool,
    /// Lines to query after each hour's checkpoint (empty: no queries).
    pub query_lines: &'a [u64],
    /// Telemetry scope of the thread pool (side passes use their own).
    pub scope: &'static str,
    pub haystack: &'a str,
    pub ckpt_root: &'a Path,
}

/// Everything one pass measured.
#[derive(Debug, Default)]
pub struct Pass {
    pub setup_s: Vec<f64>,
    pub window_s: f64,
    pub steal_frac: f64,
    pub sent: u64,
    pub rejected: u64,
    pub pauses_ms: Vec<f64>,
    pub query_ms: Vec<f64>,
    pub queries_failed: u64,
    pub peak_rss_kib: u64,
    pub ledger: Ledger,
    pub export_ms: Vec<f64>,
    pub write_ms: Vec<f64>,
    pub dirty: Vec<f64>,
    pub delta_bytes: Vec<f64>,
    pub state_entries: u64,
    pub digest: String,
    /// Telemetry moved during the pass.
    pub tel: Snapshot,
}

impl Pass {
    pub fn counter(&self, name: &str) -> u64 {
        self.tel.counter(name).unwrap_or(0)
    }

    /// Records every shard of the thread pool counted as observed.
    pub fn shard_counts(&self, scope: &str, leaf: &str) -> Vec<u64> {
        (0..)
            .map_while(|i| self.tel.counter(&format!("{scope}.shard{i}.{leaf}")))
            .collect()
    }
}

/// One query as the serve engine answers `GET /line`: flush, then each
/// class's verdict and confidence from the shards.
fn query(pool: &mut dyn ShardBackend, line: AnonId, classes: &[String]) -> bool {
    if pool.flush().is_err() {
        return false;
    }
    classes
        .iter()
        .all(|c| pool.is_detected(line, c).is_ok() && pool.confidence(line, c).is_ok())
}

/// Queries per hour boundary: 24 bursts give a repeat 240 samples, so
/// its own p95 has twelve beyond it.
pub const HOUR_QUERIES: usize = 10;

/// Set-up samples per pass: the pool is built this many times and the
/// last one is used, so every pass contributes several set-up times.
pub const SETUPS: usize = 5;

/// A ready pool: rules pack loaded, hitlist compiled, shards (and
/// children, with their `Init` handshake) up, supervision and telemetry
/// attached.
struct Ready {
    pack: haystack_core::pack::SignaturePack,
    pool: Box<dyn ShardBackend>,
    child_pids: Vec<u32>,
}

fn set_up(plan: &Plan, pack_dir: &Path) -> Result<Ready, String> {
    let pack = util::load_pack(pack_dir)?;
    let rules = &pack.rules;
    let config = DetectorConfig {
        threshold: pack.threshold,
        require_established: false,
    };
    let (mut pool, child_pids): (Box<dyn ShardBackend>, Vec<u32>) = match plan.route {
        Route::Proc => {
            let opts = ProcPoolOptions {
                command: vec![plan.haystack.to_string(), "shard-worker".to_string()],
                ..ProcPoolOptions::default()
            };
            let p =
                ProcPool::new(rules, config, util::workers(), opts).map_err(|e| e.to_string())?;
            let pids = p.child_pids();
            (Box::new(p), pids)
        }
        _ => {
            let hitlist = HitList::whole_window(rules);
            (
                Box::new(DetectorPool::new(rules, &hitlist, config, util::workers())),
                Vec::new(),
            )
        }
    };
    pool.enable_supervision(DEFAULT_REPLAY_LIMIT)
        .map_err(|e| e.to_string())?;
    pool.attach_telemetry(&Scope::named(plan.scope))
        .map_err(|e| e.to_string())?;
    Ok(Ready {
        pack,
        pool,
        child_pids,
    })
}

pub fn run(plan: &Plan, pack_dir: &Path, setups: usize) -> Result<Pass, String> {
    let mut pass = Pass::default();
    let on = plan.traced;
    let mut ready = None;
    for _ in 0..setups.max(1) {
        drop(ready.take());
        let t = Instant::now();
        ready = Some(set_up(plan, pack_dir)?);
        pass.setup_s.push(t.elapsed().as_secs_f64());
    }
    let Ready {
        pack,
        mut pool,
        child_pids,
    } = ready.expect("at least one set-up");
    let rules = &pack.rules;
    let targets = util::hit_targets(rules);
    let _ = std::fs::remove_dir_all(plan.ckpt_root);
    let dir = CheckpointDir::open(plan.ckpt_root).map_err(|e| e.to_string())?;

    let classes = util::class_names(rules);
    let cfg = SoakConfig {
        lines: plan.shape.lines,
        seed: plan.seed,
        hit_rate_ppm: plan.shape.hit_ppm,
        records_per_hour: plan.shape.records_per_hour,
    };
    let mut chunk = RecordChunk::with_capacity(DEFAULT_CHUNK_RECORDS);
    let before = telemetry::global().snapshot();
    let ledger = &mut pass.ledger;

    let cpus = util::affinity()?;
    let ticks = util::cpu_ticks();
    let t0 = Instant::now();
    let mut at_rest = Duration::ZERO;
    let mut next_query = 0usize;
    for hour in 0..plan.hours {
        let mut stream = SoakStream::hour(&targets, cfg, 0, hour, DEFAULT_CHUNK_RECORDS);
        while ledger.span(on, "gen", || stream.next_chunk(&mut chunk)) {
            let n = chunk.records.len() as u64;
            pass.sent += n;
            if ledger
                .span(on, "dispatch", || pool.observe_records(&chunk.records))
                .is_err()
            {
                pass.rejected += n;
            }
        }
        // Hour boundary: export the dirty entries, frame them, write the
        // delta durably. This is the whole pause a live feed would see.
        let p0 = Instant::now();
        let frames = ledger
            .span(on, "export", || pool.checkpoint_all_delta())
            .map_err(|e| e.to_string())?;
        let e1 = Instant::now();
        let dirty: usize = frames.iter().map(DetectorSnapshot::entry_count).sum();
        let frame = ledger.span(on, "encode", || {
            let mut frame = Vec::new();
            for f in &frames {
                frame.extend_from_slice(&f.encode());
            }
            frame
        });
        let w0 = Instant::now();
        ledger
            .span(on, "write", || {
                dir.write_delta("soak", &frame, dirty as u64)
            })
            .map_err(|e| e.to_string())?;
        let end = Instant::now();
        pass.pauses_ms.push(ms(end - p0));
        pass.export_ms.push(ms(e1 - p0));
        pass.write_ms.push(ms(end - w0));
        pass.dirty.push(dirty as f64);
        pass.delta_bytes.push(frame.len() as f64);

        // Queries: a closed loop on the pool at rest, right after the
        // checkpoint drained every shard, with this process and its
        // shard children held on one CPU. Each query's time is then the
        // query plane's own (flush and a round trip per class, each a
        // local context switch), not the ingest backlog it would wait
        // behind mid-hour, nor a cross-CPU wake-up the hypervisor may
        // delay. The burst is kept out of the ingest window and ledger.
        if !plan.query_lines.is_empty() {
            let b0 = Instant::now();
            util::pin(&child_pids, None)?;
            for _ in 0..HOUR_QUERIES {
                let line = AnonId(plan.query_lines[next_query % plan.query_lines.len()]);
                next_query += 1;
                let q0 = Instant::now();
                let ok = query(pool.as_mut(), line, &classes);
                pass.query_ms.push(ms(q0.elapsed()));
                pass.queries_failed += u64::from(!ok);
            }
            util::pin(&child_pids, Some(cpus))?;
            at_rest += b0.elapsed();
        }
    }
    ledger
        .span(on, "finish", || pool.finish())
        .map_err(|e| e.to_string())?;
    pass.window_s = (t0.elapsed() - at_rest).as_secs_f64();
    pass.steal_frac = util::steal_frac(ticks, util::cpu_ticks());

    // Outside the window: memory, counters, state, final detections.
    pass.peak_rss_kib = util::peak_rss_kib(None)
        + child_pids
            .iter()
            .map(|&p| util::peak_rss_kib(Some(p)))
            .sum::<u64>();
    pass.tel = telemetry::global().snapshot().delta_since(&before);
    pass.state_entries = pool.state_size().map_err(|e| e.to_string())? as u64;
    if !plan.query_lines.is_empty() {
        let mut rows = Vec::with_capacity(classes.len());
        for c in &classes {
            let lines = pool.detected_lines(c).map_err(|e| e.to_string())?;
            rows.push((c.clone(), lines.iter().map(|l| l.0).collect()));
        }
        pass.digest = util::digest(&rows);
    }
    drop(pool);
    let _ = std::fs::remove_dir_all(plan.ckpt_root);
    Ok(pass)
}

/// Single-threaded kernel replay over the same chunks: the gate alone
/// and gate + probe, through `Detector::observe_chunk`.
#[derive(Debug, Default)]
pub struct Kernel {
    pub records: u64,
    pub gate_ns_per_rec: f64,
    pub pass_frac: f64,
    pub match_frac: f64,
    pub ns_per_probe: f64,
    pub gen_ns_per_rec: f64,
}

/// The gate's fingerprint bytes are crate-private, so `gate_block` cannot
/// be called from outside. Its cost is measured instead as
/// `observe_chunk` over the records the gate rejects: for those the call
/// runs the gate pass and nothing else. The full pass over every record
/// minus that per-record gate cost is the probe pass's time.
pub fn kernel(shape: &Shape, seed: u64, pack_dir: &Path) -> Result<Kernel, String> {
    use haystack_core::detector::Detector;
    use haystack_core::fasthash::mix64;
    let pack = util::load_pack(pack_dir)?;
    let rules = &pack.rules;
    let config = DetectorConfig {
        threshold: pack.threshold,
        require_established: false,
    };
    let hitlist = HitList::whole_window(rules);
    let targets = util::hit_targets(rules);
    let cfg = SoakConfig {
        lines: shape.lines,
        seed,
        hit_rate_ppm: shape.hit_ppm,
        records_per_hour: shape.records_per_hour,
    };
    let mut full = Detector::new(rules, hitlist.clone(), config);
    let mut gate_only = Detector::new(rules, hitlist.clone(), config);
    let mut chunk = RecordChunk::with_capacity(DEFAULT_CHUNK_RECORDS);
    let mut misses = Vec::with_capacity(DEFAULT_CHUNK_RECORDS);
    let (mut t_gen, mut t_full, mut t_gate) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let mut n_miss = 0u64;
    for hour in 0..shape.hours {
        let mut stream = SoakStream::hour(&targets, cfg, 0, hour, DEFAULT_CHUNK_RECORDS);
        loop {
            let t = Instant::now();
            let more = stream.next_chunk(&mut chunk);
            t_gen += t.elapsed();
            if !more {
                break;
            }
            misses.clear();
            misses.extend(
                chunk
                    .records
                    .iter()
                    .filter(|r| !hitlist.prefilter_pass(mix64(HitList::pack_key(r.dst, r.dport)))),
            );
            n_miss += misses.len() as u64;
            let t = Instant::now();
            full.observe_chunk(std::hint::black_box(&chunk.records));
            t_full += t.elapsed();
            let t = Instant::now();
            gate_only.observe_chunk(std::hint::black_box(&misses));
            t_gate += t.elapsed();
        }
    }
    let s = full.hot_stats();
    let gate_ns = t_gate.as_nanos() as f64 / n_miss.max(1) as f64;
    let probe_ns = t_full.as_nanos() as f64 - gate_ns * s.records as f64;
    Ok(Kernel {
        records: s.records,
        gate_ns_per_rec: gate_ns,
        pass_frac: s.prefilter_hits as f64 / s.records.max(1) as f64,
        match_frac: s.matches as f64 / s.probes.max(1) as f64,
        ns_per_probe: probe_ns / s.prefilter_hits.max(1) as f64,
        gen_ns_per_rec: t_gen.as_nanos() as f64 / s.records.max(1) as f64,
    })
}
