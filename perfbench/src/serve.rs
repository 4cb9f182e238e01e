//! The serve path: socket → admission queue → collector → anonymize →
//! usage/staleness → dispatch → shards, plus the HTTP query plane.
//!
//! [`traffic`] turns the soak generator's records into NetFlow v9
//! datagrams (before any timing). [`daemon`] runs one repeat against
//! the real `haystack serve` process. [`replica`] replays the same
//! datagrams in-process through the same public calls the daemon's
//! engine makes, in the same order, so the per-stage costs can be
//! timed and the loopback/listener/queue/HTTP share of the daemon's
//! time falls out as the difference.

use crate::util::{self, ms, Ledger, Shape};
use bytes::Bytes;
use haystack_core::detector::DetectorConfig;
use haystack_core::pack::SignaturePack;
use haystack_core::parallel::{DetectorPool, DEFAULT_REPLAY_LIMIT};
use haystack_core::staleness::StalenessMonitor;
use haystack_core::telemetry::Scope;
use haystack_core::usage::{UsageConfig, UsageTracker};
use haystack_core::HitList;
use haystack_flow::export::{ExportProtocol, Exporter};
use haystack_flow::{Collector, FlowKey, FlowRecord, TcpFlags};
use haystack_net::{Anonymizer, Prefix4, SimTime};
use haystack_wild::{
    RecordChunk, RecordStream, SoakConfig, SoakStream, WildRecord, DEFAULT_CHUNK_RECORDS,
};
use std::collections::HashMap;
use std::io::{BufWriter, Read, Write};
use std::net::{Ipv4Addr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// NetFlow source id of the replay exporter.
const SOURCE_ID: u32 = 7;

/// Set-up samples per session: the daemon is started (and drained)
/// this many times, the last start serving the replay.
const SETUPS: usize = 5;

/// Subscriber line `line` as a source address. `SoakStream` folds lines
/// into a /16 (`100.64.x.y`), which the daemon's anonymizer would merge
/// into 65 536 lines; the serve traffic spreads them over the shared
/// address space `100.64.0.0/10` instead, so every line keeps its own
/// address.
pub fn line_ip(line: u64) -> Ipv4Addr {
    Ipv4Addr::from(u32::from(Ipv4Addr::new(100, 64, 0, 0)) + line as u32)
}

/// The anonymizer the daemon builds from `--seed`.
pub fn anonymizer(seed: u64) -> Anonymizer {
    Anonymizer::new(seed, seed ^ 0x9E37_79B9_7F4A_7C15)
}

fn flow(r: &WildRecord) -> FlowRecord {
    let first = u64::from(r.hour.0) * 3_600;
    FlowRecord {
        key: FlowKey {
            src: line_ip(r.line.0),
            dst: r.dst,
            sport: 40_000 + (r.line.0 % 1_000) as u16,
            dport: r.dport,
            proto: r.proto,
        },
        packets: r.packets,
        bytes: r.bytes,
        tcp_flags: TcpFlags::ACK,
        first: SimTime(first),
        last: SimTime(first + 30),
    }
}

/// Visit every record of the shape's first `hours` hours, hour by hour.
pub fn for_each_record(
    shape: &Shape,
    seed: u64,
    hours: u32,
    targets: &[(Ipv4Addr, u16)],
    mut f: impl FnMut(u32, &[WildRecord]),
) -> Duration {
    let cfg = SoakConfig {
        lines: shape.lines,
        seed,
        hit_rate_ppm: shape.hit_ppm,
        records_per_hour: shape.records_per_hour,
    };
    let mut chunk = RecordChunk::with_capacity(DEFAULT_CHUNK_RECORDS);
    let mut t_gen = Duration::ZERO;
    for hour in 0..hours {
        let mut stream = SoakStream::hour(targets, cfg, 0, hour, DEFAULT_CHUNK_RECORDS);
        loop {
            let t = Instant::now();
            let more = stream.next_chunk(&mut chunk);
            t_gen += t.elapsed();
            if !more {
                break;
            }
            f(hour, &chunk.records);
        }
    }
    t_gen
}

/// Replay traffic: v9 datagrams in send order.
pub struct Traffic {
    pub datagrams: Vec<Bytes>,
    pub records: u64,
    pub gen_s: f64,
}

pub fn traffic(shape: &Shape, seed: u64, hours: u32, targets: &[(Ipv4Addr, u16)]) -> Traffic {
    let mut exporter = Exporter::new(ExportProtocol::NetflowV9, SOURCE_ID);
    let mut datagrams = Vec::new();
    let mut records = 0u64;
    let mut flows = Vec::with_capacity(DEFAULT_CHUNK_RECORDS);
    let gen = for_each_record(shape, seed, hours, targets, |hour, chunk| {
        flows.clear();
        flows.extend(chunk.iter().map(flow));
        records += flows.len() as u64;
        let msgs = exporter
            .export(&flows, hour * 3_600 + 60)
            .expect("v9 export of valid records");
        datagrams.extend(msgs);
    });
    Traffic {
        datagrams,
        records,
        gen_s: gen.as_secs_f64(),
    }
}

/// A deliberate defect for the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    None,
    /// Never send one datagram.
    DropDatagram,
    /// Send one datagram cut short (inside a well-formed frame).
    TruncateFrame,
}

// ---------------------------------------------------------------------
// The in-process replica
// ---------------------------------------------------------------------

#[derive(Debug, Default)]
pub struct Replica {
    pub wall_s: f64,
    pub records: u64,
    pub ledger: Ledger,
    pub state_entries: u64,
    pub template_misses: u64,
    pub missed_records: u64,
}

/// Replay `datagrams` through collector → anonymize → usage → staleness
/// → pool, as the daemon's engine does. Untraced, each record takes the
/// engine's exact call order; traced, each stage runs over a whole
/// datagram's records inside one span, so the timers cost a few
/// nanoseconds per record rather than per call.
pub fn replica(
    pack: &SignaturePack,
    seed: u64,
    datagrams: &[Bytes],
    traced: bool,
) -> Result<Replica, String> {
    let rules = Arc::new(pack.rules.clone());
    let config = DetectorConfig {
        threshold: pack.threshold,
        require_established: false,
    };
    let hitlist = HitList::whole_window(&rules);
    let mut pool = DetectorPool::new(&rules, &hitlist, config, util::workers());
    pool.enable_supervision(DEFAULT_REPLAY_LIMIT)
        .map_err(|e| e.to_string())?;
    pool.attach_telemetry(&Scope::named("replica"))
        .map_err(|e| e.to_string())?;
    let mut usage = UsageTracker::new(Arc::clone(&rules), hitlist.clone(), UsageConfig::default());
    let mut staleness = StalenessMonitor::new(hitlist);
    let anon = anonymizer(seed);
    let mut collector = Collector::new();
    let mut wild: Vec<WildRecord> = Vec::new();
    let mut ids = Vec::new();
    let mut out = Replica::default();
    let ledger = &mut out.ledger;
    let on = traced;

    let t0 = Instant::now();
    for d in datagrams {
        let Ok(records) = ledger.span(on, "decode", || collector.feed(d.clone())) else {
            continue;
        };
        out.records += records.len() as u64;
        wild.clear();
        if traced {
            ledger.span(on, "anonymize", || {
                ids.clear();
                ids.extend(records.iter().map(|r| anon.anonymize(r.key.src)));
            });
            ledger.span(on, "convert", || {
                wild.extend(records.iter().zip(&ids).map(|(r, &line)| convert(r, line)));
            });
            ledger.span(on, "usage", || wild.iter().for_each(|w| usage.observe(w)));
            ledger.span(on, "staleness", || {
                wild.iter().for_each(|w| staleness.observe(w))
            });
        } else {
            for r in &records {
                let w = convert(r, anon.anonymize(r.key.src));
                usage.observe(&w);
                staleness.observe(&w);
                wild.push(w);
            }
        }
        ledger
            .span(on, "dispatch", || pool.observe_records(&wild))
            .map_err(|e| e.to_string())?;
    }
    ledger
        .span(on, "finish", || pool.finish())
        .map_err(|e| e.to_string())?;
    out.wall_s = t0.elapsed().as_secs_f64();
    out.state_entries = pool.state_size().map_err(|e| e.to_string())? as u64;
    out.template_misses = collector.dropped_unknown_template();
    out.missed_records = collector.missed_records();
    Ok(out)
}

/// The engine's `FlowRecord` → `WildRecord` conversion.
fn convert(r: &FlowRecord, line: haystack_net::AnonId) -> WildRecord {
    WildRecord {
        line,
        line_slash24: Prefix4::slash24_of(r.key.src),
        src_ip: r.key.src,
        dst: r.key.dst,
        dport: r.key.dport,
        proto: r.key.proto,
        packets: r.packets,
        bytes: r.bytes,
        established: r.tcp_flags.is_established_evidence(),
        hour: r.first.hour(),
    }
}

// ---------------------------------------------------------------------
// The daemon
// ---------------------------------------------------------------------

/// One HTTP/1.1 exchange with `Connection: close`.
pub fn http(
    port: u16,
    method: &str,
    path: &str,
    timeout: Duration,
) -> Result<(u16, String), String> {
    let mut s = TcpStream::connect(("127.0.0.1", port)).map_err(|e| e.to_string())?;
    s.set_read_timeout(Some(timeout))
        .map_err(|e| e.to_string())?;
    s.set_write_timeout(Some(timeout))
        .map_err(|e| e.to_string())?;
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\nContent-Length: 0\r\n\r\n"
    );
    s.write_all(req.as_bytes()).map_err(|e| e.to_string())?;
    let mut resp = Vec::new();
    s.read_to_end(&mut resp).map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&resp);
    let status = text
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| format!("malformed response to {path}"))?;
    let body = text
        .split_once("\r\n\r\n")
        .map_or("", |(_, b)| b)
        .to_string();
    Ok((status, body))
}

fn get_json(port: u16, path: &str) -> Result<serde_json::Value, String> {
    let (status, body) = http(port, "GET", path, Duration::from_secs(30))?;
    if status != 200 {
        return Err(format!("{path}: HTTP {status}"));
    }
    serde_json::from_str(&body).map_err(|e| format!("{path}: {e}"))
}

fn field(v: &serde_json::Value, key: &str) -> u64 {
    v.get(key).and_then(serde_json::Value::as_u64).unwrap_or(0)
}

/// `/metrics` as name → value.
pub fn metrics(port: u16) -> Result<HashMap<String, f64>, String> {
    let (status, body) = http(port, "GET", "/metrics", Duration::from_secs(30))?;
    if status != 200 {
        return Err(format!("/metrics: HTTP {status}"));
    }
    Ok(body
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (k, v) = l.rsplit_once(' ')?;
            Some((k.to_string(), v.parse().ok()?))
        })
        .collect())
}

/// Sum of `haystack_<scope>_shardN_<leaf>` over shards.
pub fn shard_values(m: &HashMap<String, f64>, scope: &str, leaf: &str) -> Vec<f64> {
    (0..)
        .map_while(|i| m.get(&format!("haystack_{scope}_shard{i}_{leaf}")).copied())
        .collect()
}

#[derive(Debug, Default)]
pub struct Daemon {
    pub setup_s: Vec<f64>,
    pub window_s: f64,
    pub steal_frac: f64,
    pub sent_records: u64,
    pub sent_datagrams: u64,
    pub query_ms: Vec<f64>,
    pub queries_failed: u64,
    pub query_late_ms_max: f64,
    pub queue_depth: Vec<f64>,
    pub ckpt_ms: Vec<f64>,
    pub peak_rss_kib: u64,
    pub stats: Option<serde_json::Value>,
    pub metrics: HashMap<String, f64>,
    pub digest: String,
}

/// Kills and reaps the daemon if a repeat bails out early.
struct Reaper(Option<Child>);

impl Drop for Reaper {
    fn drop(&mut self) {
        if let Some(mut c) = self.0.take() {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

pub struct DaemonPlan<'a> {
    pub haystack: &'a str,
    pub run_dir: &'a Path,
    pub seed: u64,
    pub threshold: f64,
    pub query_ids: &'a [u64],
    pub query_rate: f64,
    pub traced: bool,
    pub fault: Fault,
}

/// A started daemon: reaped on drop if a repeat bails out early.
struct Running {
    reaper: Reaper,
    pid: u32,
    http_port: u16,
    tcp_port: u16,
}

/// Start the daemon and wait until it is ready. Returns the running
/// daemon and the set-up time: exec until the HTTP plane answers.
///
/// Two polls in the daemon would otherwise decide the reading. The
/// engine answers `/readyz` between ingest chunks and, idle, waits up
/// to 20 ms for data before it looks at queries; the accept loop sleeps
/// 25 ms whenever it finds no connection. Set-up read ~4 ms or ~24 ms by
/// chance. So the clock stops at `/healthz`, which the HTTP thread
/// answers itself and which it starts to serve only after the engine
/// and its shard pool are built; `/readyz` must then return 200 before
/// the session goes on. The HTTP port is chosen here and the probe
/// connects in a loop from exec on, so its connection is already in the
/// listen backlog when the accept loop makes its first pass.
fn start(plan: &DaemonPlan) -> Result<(Running, f64), String> {
    let ports_file = plan.run_dir.join("ports.json");
    let ckpt_dir = plan.run_dir.join("serve-ckpt");
    let _ = std::fs::remove_file(&ports_file);
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    let log = std::fs::File::create(plan.run_dir.join("serve.log")).map_err(|e| e.to_string())?;
    let http_port = std::net::TcpListener::bind(("127.0.0.1", 0))
        .and_then(|l| l.local_addr())
        .map_err(|e| e.to_string())?
        .port();

    let t_setup = Instant::now();
    let child = Command::new(plan.haystack)
        .arg("serve")
        .arg("--rules")
        .arg(plan.run_dir.join("rules.pack"))
        .args(["--workers", &util::workers().to_string()])
        .args(["--threshold", &plan.threshold.to_string()])
        .args(["--seed", &plan.seed.to_string()])
        .args(["--http-port", &http_port.to_string()])
        .arg("--checkpoint-dir")
        .arg(&ckpt_dir)
        .arg("--ports-file")
        .arg(&ports_file)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(log)
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", plan.haystack))?;
    let pid = child.id();
    let mut reaper = Reaper(Some(child));
    let deadline = t_setup + Duration::from_secs(60);
    let wait = |path: &str, reaper: &mut Reaper| -> Result<(), String> {
        while !matches!(
            http(http_port, "GET", path, Duration::from_secs(5)),
            Ok((200, _))
        ) {
            if Instant::now() > deadline {
                return Err(format!("daemon never answered {path} with 200"));
            }
            if let Some(Some(status)) = reaper.0.as_mut().map(|c| c.try_wait().ok().flatten()) {
                return Err(format!("daemon exited before ready: {status}"));
            }
            std::thread::sleep(Duration::from_micros(100));
        }
        Ok(())
    };
    wait("/healthz", &mut reaper)?;
    let setup_s = t_setup.elapsed().as_secs_f64();
    wait("/readyz", &mut reaper)?;
    // Written before the HTTP plane starts, so present by now.
    let ports: serde_json::Value = std::fs::read_to_string(&ports_file)
        .ok()
        .and_then(|s| serde_json::from_str(&s).ok())
        .ok_or("daemon wrote no ports file")?;
    let tcp_port = field(&ports, "tcp") as u16;
    Ok((
        Running {
            reaper,
            pid,
            http_port,
            tcp_port,
        },
        setup_s,
    ))
}

/// Drain the daemon (`POST /admin/drain`) and wait for it to exit.
fn stop(mut d: Running, run_dir: &Path) -> Result<(), String> {
    let _ = http(d.http_port, "POST", "/admin/drain", Duration::from_secs(5));
    let mut child = d.reaper.0.take().expect("daemon still owned");
    let t = Instant::now();
    while child.try_wait().map_err(|e| e.to_string())?.is_none() {
        if t.elapsed() > Duration::from_secs(60) {
            let _ = child.kill();
            let _ = child.wait();
            return Err("daemon did not exit after drain".into());
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let _ = std::fs::remove_dir_all(run_dir.join("serve-ckpt"));
    Ok(())
}

/// One session: [`SETUPS`] set-up samples (all but the last start
/// drained again at once), then a started daemon fed the whole replay,
/// then one checkpoint timed as a client sees it.
pub fn daemon(plan: &DaemonPlan, schedule: u64, traffic: &Traffic) -> Result<Daemon, String> {
    let mut out = Daemon::default();
    for _ in 1..SETUPS {
        let (d, setup_s) = start(plan)?;
        out.setup_s.push(setup_s);
        stop(d, plan.run_dir)?;
    }
    let (d, setup_s) = start(plan)?;
    out.setup_s.push(setup_s);
    let (http_port, tcp_port) = (d.http_port, d.tcp_port);

    let stream = TcpStream::connect(("127.0.0.1", tcp_port)).map_err(|e| e.to_string())?;
    let mut wire = BufWriter::with_capacity(1 << 16, stream);
    let done = AtomicBool::new(false);
    let skip = traffic.datagrams.len() / 2;

    let ticks = util::cpu_ticks();
    let t0 = Instant::now();
    let (query_ms, failed, late, depth) = std::thread::scope(|s| -> Result<_, String> {
        let stop_q = &done;
        let ids = plan.query_ids;
        let traced = plan.traced;
        let rate = (plan.seed, schedule, plan.query_rate);
        let q = s.spawn(move || queries(http_port, ids, rate, t0, stop_q, traced));
        let fed = (|| -> Result<(), String> {
            for (i, d) in traffic.datagrams.iter().enumerate() {
                let frame: &[u8] = match plan.fault {
                    Fault::DropDatagram if i == skip => continue,
                    Fault::TruncateFrame if i == skip => &d[..d.len() - 7],
                    _ => d,
                };
                wire.write_all(&(frame.len() as u32).to_be_bytes())
                    .map_err(|e| e.to_string())?;
                wire.write_all(frame).map_err(|e| e.to_string())?;
                out.sent_datagrams += 1;
            }
            wire.flush().map_err(|e| e.to_string())
        })();
        out.sent_records = traffic.records;
        // The window closes when the daemon has decoded every record
        // sent, or — when some were lost — once its queue is empty and
        // the count stops moving.
        let mut last = (u64::MAX, Instant::now());
        let waited = fed.and_then(|()| loop {
            let st = get_json(http_port, "/stats")?;
            let records = field(&st, "records");
            if records == traffic.records {
                break Ok(());
            }
            if records != last.0 {
                last = (records, Instant::now());
            } else if field(&st, "queue_depth") == 0
                && last.1.elapsed() > Duration::from_millis(300)
            {
                break Ok(());
            }
            if t0.elapsed() > Duration::from_secs(120) {
                break Err("daemon did not drain the replay within 120 s".to_string());
            }
            std::thread::sleep(Duration::from_millis(5));
        });
        out.window_s = t0.elapsed().as_secs_f64();
        out.steal_frac = util::steal_frac(ticks, util::cpu_ticks());
        done.store(true, Ordering::SeqCst);
        let q = q.join().map_err(|_| "query thread panicked".to_string())?;
        waited.map(|()| q)
    })?;
    out.query_ms = query_ms;
    out.queries_failed = failed;
    out.query_late_ms_max = late;
    out.queue_depth = depth;

    // After the window: one checkpoint pause as a client sees it (the
    // workers export everything dirtied by the replay), then counters,
    // memory and the final detections.
    let t = Instant::now();
    let (status, body) = http(
        http_port,
        "POST",
        "/admin/checkpoint",
        Duration::from_secs(60),
    )?;
    if status != 200 {
        return Err(format!("/admin/checkpoint: HTTP {status}: {body}"));
    }
    out.ckpt_ms.push(ms(t.elapsed()));
    let detections = get_json(http_port, "/detections")?;
    let rows: Vec<(String, Vec<u64>)> = detections
        .get("classes")
        .and_then(serde_json::Value::as_array)
        .ok_or("/detections: no classes")?
        .iter()
        .map(|c| {
            let name = c
                .get("class")
                .and_then(serde_json::Value::as_str)
                .unwrap_or("")
                .to_string();
            let lines = c
                .get("lines")
                .and_then(serde_json::Value::as_array)
                .map(|a| a.iter().filter_map(serde_json::Value::as_u64).collect())
                .unwrap_or_default();
            (name, lines)
        })
        .collect();
    out.digest = util::digest(&rows);
    out.stats = Some(get_json(http_port, "/stats")?);
    // Shard counters in `/metrics` are live; the collector gauges follow
    // on the watchdog cadence (1 s), so a traced session waits for a
    // publish that has seen every decoded record.
    let decoded = field(out.stats.as_ref().expect("just set"), "records") as f64;
    let t = Instant::now();
    loop {
        out.metrics = metrics(http_port)?;
        let seen = out
            .metrics
            .get("haystack_serve_records_decoded")
            .copied()
            .unwrap_or(-1.0);
        if !plan.traced || seen == decoded || t.elapsed() > Duration::from_secs(5) {
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    out.peak_rss_kib = util::peak_rss_kib(Some(d.pid));
    stop(d, plan.run_dir)?;
    Ok(out)
}

/// The query client: `GET /line?id=` at a fixed open-loop rate, each
/// timed from its due time. Traced, each tick also samples `/stats`
/// for the admission queue depth.
fn queries(
    port: u16,
    ids: &[u64],
    (seed, schedule, rate): (u64, u64, f64),
    t0: Instant,
    stop: &AtomicBool,
    traced: bool,
) -> (Vec<f64>, u64, f64, Vec<f64>) {
    let mut arrivals = util::Arrivals::new(seed, schedule, rate);
    let (mut lat, mut failed, mut late, mut depth) = (Vec::new(), 0u64, 0f64, Vec::new());
    let mut due = t0 + arrivals.next_gap();
    let mut k = 0usize;
    while !stop.load(Ordering::SeqCst) {
        let now = Instant::now();
        if now < due {
            std::thread::sleep((due - now).min(Duration::from_millis(5)));
            continue;
        }
        late = late.max(ms(now - due));
        let id = ids[k % ids.len()];
        k += 1;
        match http(
            port,
            "GET",
            &format!("/line?id={id}"),
            Duration::from_secs(5),
        ) {
            Ok((200, _)) => {}
            _ => failed += 1,
        }
        lat.push(ms(due.elapsed()));
        if traced {
            if let Ok(st) = get_json(port, "/stats") {
                depth.push(field(&st, "queue_depth") as f64);
            }
        }
        due += arrivals.next_gap();
    }
    (lat, failed, late, depth)
}
